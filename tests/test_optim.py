import sys

import numpy as np
import pytest

import aem.autograd
import aem.optim
from aem.config import RunConfig
from aem.model import DialogueModel
from aem.optim import Adam, clip_grad_norm
from aem.params import ParamStore, uniform_init
from helpers import assert_same_bits_on_one_and_two_cpus, run_on_cpus


def store_with(name="w", shape=(1,), dtype=np.float64):
    store = ParamStore(dtype)
    store.add(name, shape)
    return store


def test_first_step_closed_form():
    store = store_with()
    p = store["w"]
    p.values[:] = 1.0
    p.grad = np.array([0.5])
    opt = Adam(store, lr=0.002)
    opt.step()
    g = 0.5
    expected = 1.0 - 0.002 * g / (np.sqrt(g * g) + 1e-8)
    np.testing.assert_allclose(p.values[0], expected, rtol=1e-12)
    assert abs(1.0 - p.values[0] - 0.002) < 1e-7


def test_zero_grad_step_is_noop_but_counts():
    store = store_with(shape=(3,))
    p = store["w"]
    p.values[:] = [1.0, -2.0, 3.0]
    before = p.values.copy()
    p.grad = np.zeros(3)
    opt = Adam(store)
    opt.step()
    np.testing.assert_array_equal(p.values, before)
    assert opt.t == 1


def test_two_steps_match_hand_unrolled_recurrence():
    lr, b1, b2, eps = 0.002, 0.9, 0.999, 1e-8
    g = 0.3
    store = store_with()
    p = store["w"]
    p.values[:] = 0.7
    opt = Adam(store, lr=lr, beta1=b1, beta2=b2, epsilon=eps)

    # independent hand unrolling of the moment recurrences
    theta, m, v = 0.7, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)

        p.grad = np.array([g])
        opt.step()

    np.testing.assert_allclose(p.values[0], theta, atol=1e-12, rtol=0)


def test_missing_grad_rejected_with_name():
    store = ParamStore()
    store.add("theta.enc.W", (2, 2))
    store.add("theta.enc.b", (2,))
    store["theta.enc.W"].grad = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="theta.enc.b"):
        Adam(store).step()


def test_grads_zeroed_after_step():
    store = store_with(shape=(2,))
    store["w"].grad = np.array([1.0, 2.0])
    opt = Adam(store)
    opt.step()
    np.testing.assert_array_equal(store["w"].grad, np.zeros(2))


def whole_array_adam_step(p, g, m, v, t, lr=0.002, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """The whole-array Adam formula, with its full-size temporaries."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)


def test_chunked_adam_equals_whole_array_formula_bit_for_bit():
    # 2.3 chunks, a partial last chunk, and a parameter smaller than one chunk
    chunk = aem.optim._CHUNK
    rng = np.random.default_rng(4)
    store = ParamStore()
    store.add("big", (3, (2 * chunk + chunk // 3) // 3))
    store.add("small", (5,))
    assert store["big"].values.size % chunk
    uniform_init(store, seed=2)
    ref = {name: [p.values.copy(), np.zeros_like(p.values), np.zeros_like(p.values)]
           for name, p in store.items()}
    opt = Adam(store)
    for t in (1, 2, 3):
        for name, p in store.items():
            g = (rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-3, 3)).astype(np.float32)
            p.grad = g.copy()
            whole_array_adam_step(*ref[name][:1], g, *ref[name][1:], t)
        opt.step()
        for name, p in store.items():
            for got, want in zip((p.values, opt.m[name], opt.v[name]), ref[name]):
                assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def vocab_bound_store(seed):
    """The aem store at the vocab_bound shape (H = 128, E = 64, V = 3000),
    well above autograd._SPLIT_MIN values, with seeded gradients whose
    magnitudes span six decades."""
    cfg = RunConfig(kind="aem", hidden_size=128, embed_size=64, vocab_size=3000,
                    seed=seed).validate()
    store = DialogueModel("aem", cfg).store
    assert store.num_values() >= aem.autograd._SPLIT_MIN
    rng = np.random.default_rng(seed)
    for _, p in store.items():
        p.grad = (rng.standard_normal(p.values.shape)
                  * 10.0 ** rng.integers(-4, 2)).astype(np.float32)
    return store


def store_halves(store):
    """The parameter names that run in the caller and on the worker, by
    the one rule that splits them."""
    params = list(store.items())
    return aem.autograd._in_two(lambda run: [name for name, _ in run], params,
                                [p.values.size for _, p in params])


def clip_and_step(max_norm):
    """Two clip_grad_norm and Adam.step rounds on the vocab_bound store:
    the norms and group norms, then the clipped gradients, then every
    value, moment and zeroed gradient, after each round."""
    store = vocab_bound_store(seed=11)
    adam, out = Adam(store), []
    for step in range(2):
        norm = clip_grad_norm(store, max_norm)
        assert (norm > max_norm) == (max_norm == 1.0)
        out.append(np.array([norm] + [norm.groups[g] for g in sorted(norm.groups)]))
        out += [p.grad.copy() for _, p in store.items()]
        adam.step()
        out += [a.copy() for name, p in store.items()
                for a in (p.values, adam.m[name], adam.v[name], p.grad)]
        for _, p in store.items():
            p.grad += np.float32(step + 1) * p.values
    return out


@pytest.mark.parametrize("max_norm", [1.0, 1e9], ids=["clipping", "not-clipping"])
def test_split_adam_and_clipping_same_bits_on_one_and_two_cpus(max_norm):
    assert_same_bits_on_one_and_two_cpus(lambda: clip_and_step(max_norm))


def test_split_adam_and_clipping_under_a_short_switch_interval():
    # both threads switch every microsecond: each half must still touch
    # only its own parameters and buffers
    want = [a.tobytes() for a in run_on_cpus(1, lambda: clip_and_step(1.0))[0]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got, on_worker = run_on_cpus(2, lambda: clip_and_step(1.0))
            assert on_worker == [True] * 6  # per round: squares, scaling, update
            assert [a.tobytes() for a in got] == want
    finally:
        sys.setswitchinterval(interval)


def test_clip_names_the_first_non_finite_gradient_of_the_worker_half():
    store = vocab_bound_store(seed=12)
    caller, worker = store_halves(store)
    # NaN in the worker's half, then inf later in store order
    store[worker[1]].grad[0, ...] = np.nan
    store[worker[-1]].grad[...] = np.inf
    grads = {name: p.grad.copy() for name, p in store.items()}
    values = {name: p.values.copy() for name, p in store.items()}

    def clip():
        with pytest.raises(FloatingPointError, match="non-finite gradient in %s$" % worker[1]):
            clip_grad_norm(store, 1e-6)

    assert run_on_cpus(2, clip)[1] == [True]  # the squares; nothing was scaled
    # a non-finite gradient in the caller's half comes first in store order
    store[caller[-1]].grad[-1] = np.inf
    grads[caller[-1]] = store[caller[-1]].grad.copy()

    def clip_again():
        with pytest.raises(FloatingPointError, match="non-finite gradient in %s$" % caller[-1]):
            clip_grad_norm(store, 1e-6)

    assert run_on_cpus(2, clip_again)[1] == [True]
    for name, p in store.items():
        assert p.grad.tobytes() == grads[name].tobytes()
        assert p.values.tobytes() == values[name].tobytes()


def test_clip_refuses_a_non_finite_gradient_and_scales_nothing():
    store = ParamStore(np.float64)
    for name in ("a", "b", "c"):
        store.add(name, (2,))
    store["a"].grad = np.array([30.0, 40.0])
    store["b"].grad = np.array([1.0, np.nan])
    store["c"].grad = np.array([np.inf, 0.0])
    with pytest.raises(FloatingPointError, match="non-finite gradient in b$"):
        clip_grad_norm(store, 5.0)
    np.testing.assert_array_equal(store["a"].grad, [30.0, 40.0])


def test_clip_reports_group_norms_from_the_global_sums():
    store = ParamStore(np.float64)
    for name, g in (("gamma.w", [3.0]), ("theta.u", [6.0, 0.0]), ("theta.w", [8.0])):
        store.add(name, (len(g),)).grad = np.array(g)
    norm = clip_grad_norm(store, 1e6)
    assert norm == pytest.approx(np.sqrt(9.0 + 36.0 + 64.0))
    assert norm.groups == {"gamma": 3.0, "theta": 10.0}


def test_clip_reduces_norm_and_keeps_direction():
    store = store_with(shape=(2,))
    store["w"].grad = np.array([6.0, 8.0])  # norm 10
    pre = clip_grad_norm(store, 5.0)
    assert pre == pytest.approx(10.0)
    g = store["w"].grad
    assert np.linalg.norm(g) == pytest.approx(5.0)
    cos = g @ np.array([6.0, 8.0]) / (np.linalg.norm(g) * 10.0)
    assert cos == pytest.approx(1.0)


def test_clip_below_threshold_unchanged():
    store = store_with(shape=(2,))
    store["w"].grad = np.array([3.0, 0.0])
    pre = clip_grad_norm(store, 5.0)
    assert pre == pytest.approx(3.0)
    np.testing.assert_array_equal(store["w"].grad, [3.0, 0.0])


def test_clip_rejects_bad_max_norm():
    store = store_with()
    store["w"].grad = np.zeros(1)
    with pytest.raises(ValueError):
        clip_grad_norm(store, 0.0)


def test_uniform_init_bounds_and_determinism():
    a = ParamStore()
    a.add("x", (50, 40))
    a.add("y", (11,))
    uniform_init(a, -0.1, 0.1, seed=42)
    for _, p in a.items():
        assert p.values.min() >= -0.1 and p.values.max() < 0.1

    b = ParamStore()
    b.add("x", (50, 40))
    b.add("y", (11,))
    uniform_init(b, -0.1, 0.1, seed=42)
    for name in ("x", "y"):
        np.testing.assert_array_equal(a[name].values, b[name].values)


def test_uniform_init_independent_of_store_contents():
    a = ParamStore()
    a.add("shared", (4, 4))
    a.add("extra", (3,))
    uniform_init(a, seed=7)

    b = ParamStore()
    b.add("shared", (4, 4))
    uniform_init(b, seed=7)
    np.testing.assert_array_equal(a["shared"].values, b["shared"].values)


def test_uniform_init_mean_near_zero():
    store = ParamStore(np.float64)
    store.add("big", (100_000,))
    uniform_init(store, -0.1, 0.1, seed=1)
    assert abs(store["big"].values.mean()) < 0.005


def test_uniform_init_rejects_bad_bounds():
    store = store_with()
    with pytest.raises(ValueError):
        uniform_init(store, 0.1, 0.1, seed=0)


def test_param_store_duplicate_and_order():
    store = ParamStore()
    store.add("b", (1,))
    store.add("a", (1,))
    assert store.names() == ["a", "b"]
    with pytest.raises(ValueError):
        store.add("a", (1,))


def test_subset_shares_tensors():
    store = ParamStore()
    w = store.add("theta.enc.W", (2,))
    store.add("phi.dec.W", (2,))
    sub = store.subset("theta")
    assert sub.names() == ["theta.enc.W"]
    assert sub["theta.enc.W"] is w
