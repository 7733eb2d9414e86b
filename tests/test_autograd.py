import math

import numpy as np
import pytest

from aem.autograd import (
    Tape,
    Tensor,
    add,
    add_bias,
    attend,
    attention_sequence,
    backward,
    batched_dot,
    concat_cols,
    detach,
    embedding_lookup,
    lerp_mask,
    linear_softmax_cross_entropy,
    lstm_sequence,
    masked_softmax,
    matmul,
    mul,
    reshape,
    scale,
    sigmoid,
    slice_cols,
    softmax_cross_entropy,
    stack_steps,
    sub,
    sum_all,
    tanh,
)
from aem.gradcheck import check_gradients
from helpers import composite_attention, composite_lstm

RNG = np.random.default_rng(20240815)


def t64(*shape):
    return Tensor(RNG.standard_normal(shape))


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(matmul(a, b).values, b.values)


def test_matmul_hand_case():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(matmul(a, b).values, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(t64(2, 3), t64(2, 3))


def test_matmul_gradient_vs_finite_differences():
    a, b = t64(3, 4), t64(4, 2)
    err = check_gradients(lambda: sum_all(tanh(matmul(a, b))), [a, b])
    assert err < 1e-4


def test_elementwise_trivial_values():
    assert sigmoid(Tensor(np.zeros(1))).values[0] == 0.5
    assert tanh(Tensor(np.zeros(1))).values[0] == 0.0
    np.testing.assert_array_equal(
        add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))).values, [4.0, 6.0]
    )


def test_elementwise_shape_errors():
    for op in (add, sub, mul):
        with pytest.raises(ValueError):
            op(t64(2, 3), t64(3, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda x: sum_all(sigmoid(x)),
        lambda x: sum_all(tanh(x)),
        lambda x: sum_all(mul(x, x)),
        lambda x: sum_all(scale(x, -2.5)),
        lambda x: sum_all(reshape(x, (6,))),
        lambda x: sum_all(slice_cols(x, 1, 3)),
    ],
)
def test_unary_gradients(build):
    x = t64(2, 3)
    assert check_gradients(lambda: build(x), [x]) < 1e-4


def test_binary_gradients():
    a, b = t64(2, 3), t64(2, 3)
    for op in (add, sub, mul):
        assert check_gradients(lambda: sum_all(op(a, b)), [a, b]) < 1e-4


def test_add_bias_gradient():
    x, b = t64(4, 3), t64(3)
    assert check_gradients(lambda: sum_all(tanh(add_bias(x, b))), [x, b]) < 1e-4


def test_concat_and_slice_gradients():
    a, b = t64(3, 2), t64(3, 4)
    loss = lambda: sum_all(mul(concat_cols(a, b), concat_cols(a, b)))
    assert check_gradients(loss, [a, b]) < 1e-4


def test_embedding_lookup_rows_only():
    table = t64(5, 3)
    ids = np.array([1, 3, 3])
    with Tape() as tape:
        out = sum_all(embedding_lookup(table, ids))
    backward(tape, out)
    assert np.all(table.grad[[0, 2, 4]] == 0)
    np.testing.assert_array_equal(table.grad[1], np.ones(3))
    np.testing.assert_array_equal(table.grad[3], 2 * np.ones(3))


def test_embedding_lookup_range_error():
    with pytest.raises(ValueError):
        embedding_lookup(t64(5, 3), np.array([5]))


def test_stack_and_attend_gradients():
    s1, s2, q = t64(2, 3), t64(2, 3), t64(2, 3)
    mask = np.ones((2, 2))

    def loss():
        states = stack_steps([s1, s2])
        w = masked_softmax(batched_dot(q, states), mask)
        return sum_all(attend(w, states))

    assert check_gradients(loss, [s1, s2, q]) < 1e-4


def test_masked_softmax_masks_and_normalizes():
    scores = Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    mask = np.array([[1, 1, 0], [1, 1, 1]])
    w = masked_softmax(scores, mask).values
    np.testing.assert_allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-6)
    assert w[0, 2] == 0.0
    assert np.all(w >= 0)


def test_masked_softmax_rejects_all_masked_row():
    with pytest.raises(ValueError):
        masked_softmax(t64(2, 3), np.array([[1, 1, 1], [0, 0, 0]]))


def test_lerp_mask_carries_state():
    new, prev = t64(2, 3), t64(2, 3)
    keep = np.array([[1.0], [0.0]])
    out = lerp_mask(new, prev, keep)
    np.testing.assert_array_equal(out.values[0], new.values[0])
    np.testing.assert_array_equal(out.values[1], prev.values[1])
    assert check_gradients(lambda: sum_all(mul(lerp_mask(new, prev, keep), new)), [new, prev]) < 1e-4


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss, n = softmax_cross_entropy(logits, np.array([0, 1, 3]), np.ones(3))
    assert n == 3
    np.testing.assert_allclose(loss.values / n, math.log(4), rtol=1e-12)


def test_cross_entropy_saturated_stable():
    logits = Tensor(np.array([[1000.0, 0.0]]))
    loss, _ = softmax_cross_entropy(logits, np.array([0]), np.ones(1))
    assert abs(float(loss.values)) < 1e-6


def test_cross_entropy_mask_zeroes_rows():
    logits = t64(4, 5)
    targets = np.array([0, 1, 2, 3])
    full, _ = softmax_cross_entropy(logits, targets, np.array([1, 1, 0, 0]))
    a, _ = softmax_cross_entropy(Tensor(logits.values[:1]), targets[:1], np.ones(1))
    b, _ = softmax_cross_entropy(Tensor(logits.values[1:2]), targets[1:2], np.ones(1))
    np.testing.assert_allclose(float(full.values), float(a.values) + float(b.values), rtol=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(t64(2, 5), np.array([0, 5]), np.ones(2))


def test_cross_entropy_gradient_vs_finite_differences():
    logits = t64(2, 5)
    targets = np.array([1, 4])
    mask = np.array([1.0, 1.0])
    loss = lambda: softmax_cross_entropy(logits, targets, mask)[0]
    assert check_gradients(loss, [logits]) < 1e-4
    # masked row gets exactly zero gradient
    logits.grad = None
    with Tape() as tape:
        out, _ = softmax_cross_entropy(logits, targets, np.array([1.0, 0.0]))
    backward(tape, out)
    assert np.all(logits.grad[1] == 0)


def test_backward_sum_gives_ones():
    p = t64(3, 2)
    with Tape() as tape:
        loss = sum_all(p)
    backward(tape, loss)
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))


def test_backward_half_square_norm_gives_param():
    p = t64(4)
    with Tape() as tape:
        loss = scale(sum_all(mul(p, p)), 0.5)
    backward(tape, loss)
    np.testing.assert_allclose(p.grad, p.values, rtol=1e-12)


def test_backward_rejects_non_scalar():
    p = t64(2, 2)
    with Tape() as tape:
        out = mul(p, p)
    with pytest.raises(ValueError):
        backward(tape, out)


def test_backward_rejects_foreign_loss():
    p = t64(2)
    with Tape() as tape:
        sum_all(p)
    with Tape() as other:
        loss = sum_all(p)
    with pytest.raises(ValueError):
        backward(tape, loss)


def test_backward_accumulates_reused_tensor():
    x = t64(2, 2)
    # x used twice: loss = sum(x*x) + sum(x)
    def loss():
        return add(sum_all(mul(x, x)), sum_all(x))

    assert check_gradients(loss, [x]) < 1e-4


def test_backward_zero_fills_unreachable_watched():
    p, q = t64(2), t64(2)
    with Tape() as tape:
        tape.watch([p, q])
        loss = sum_all(p)
    backward(tape, loss)
    np.testing.assert_array_equal(q.grad, np.zeros(2))


def test_detach_blocks_gradient():
    x = t64(3)
    with Tape() as tape:
        tape.watch([x])
        loss = sum_all(mul(detach(x), detach(x)))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_no_tape_records_nothing():
    x = t64(2, 2)
    out = tanh(matmul(x, x))
    assert out.grad is None
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_composite_chain_matches_finite_differences():
    w1, w2, b = t64(3, 4), t64(4, 2), t64(4)
    x = Tensor(RNG.standard_normal((5, 3)))

    def loss():
        h = tanh(add_bias(matmul(x, w1), b))
        return sum_all(tanh(matmul(h, w2)))

    assert check_gradients(loss, [w1, w2, b]) < 1e-4


def test_forward_values_finite_on_finite_inputs():
    x = Tensor(np.array([[800.0, -800.0, 0.0]]))
    for op in (sigmoid, tanh):
        assert np.all(np.isfinite(op(x).values))
    big = Tensor(np.array([[1e4, -1e4, 0.0]]))
    w = masked_softmax(big, np.ones((1, 3)))
    assert np.all(np.isfinite(w.values))


def head_case(n=5, hdim=3, v=6, dtype=np.float64):
    h = Tensor(RNG.standard_normal((n, hdim)).astype(dtype))
    w = Tensor(RNG.standard_normal((hdim, v)).astype(dtype))
    b = Tensor(RNG.standard_normal(v).astype(dtype))
    return h, w, b


def composite_head(h, w, b, targets, mask):
    return softmax_cross_entropy(add_bias(matmul(h, w), b), targets, mask)


@pytest.mark.parametrize(
    "targets, mask",
    [
        (np.array([0, 5, 2, 5, 0]), np.array([1.0, 0.0, 1.0, 1.0, 0.0])),  # masked rows
        (np.array([5]), np.array([1.0])),  # a single row
        (np.array([0, 5, 0, 5, 5]), np.ones(5)),  # only the boundary ids
    ],
)
def test_linear_cross_entropy_gradient_vs_finite_differences(targets, mask):
    h, w, b = head_case(n=len(targets))
    loss = lambda: linear_softmax_cross_entropy(h, w, b, targets, mask)[0]
    assert check_gradients(loss, [h, w, b]) < 1e-4
    with Tape() as tape:
        out, _ = linear_softmax_cross_entropy(h, w, b, targets, mask)
    backward(tape, out)
    assert np.all(h.grad[mask == 0] == 0)


def test_linear_cross_entropy_matches_composite_gradients():
    targets = np.array([1, 4, 0, 5, 3, 2, 0])
    mask = np.array([1, 1, 0, 1, 0, 1, 1])
    h, w, b = head_case(n=7)
    grads = []
    for head in (composite_head, linear_softmax_cross_entropy):
        for t in (h, w, b):
            t.grad = None
        with Tape() as tape:
            out, n = head(h, w, b, targets, mask)
            loss = scale(out, 0.7)
        backward(tape, loss)
        grads.append((float(out.values), n, h.grad.copy(), w.grad.copy(), b.grad.copy()))
    (la, na, *ga), (lf, nf, *gf) = grads
    assert na == nf == 5
    np.testing.assert_allclose(lf, la, rtol=1e-12)
    for a, f in zip(ga, gf):
        np.testing.assert_allclose(f, a, rtol=1e-10, atol=1e-14)


def test_linear_cross_entropy_float32_loss_bit_equal_to_composite():
    targets = RNG.integers(0, 50, 40)
    mask = (RNG.random(40) < 0.7).astype(np.float64)
    mask[:2] = [1.0, 0.0]  # the single-row case is live; the full one has padding
    for rows in (40, 1):
        h, w, b = head_case(n=rows, hdim=16, v=50, dtype=np.float32)
        t, m = targets[:rows], mask[:rows]
        fused, n = linear_softmax_cross_entropy(h, w, b, t, m)
        composite, n_ref = composite_head(h, w, b, t, m)
        assert fused.dtype == np.float32 and n == n_ref
        assert fused.values.tobytes() == composite.values.tobytes()


def test_linear_cross_entropy_errors_match_cross_entropy():
    h, w, b = head_case(n=2)
    for bad in (np.array([0, 6]), np.array([-1, 0])):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(matmul(h, w), bad, np.ones(2))
        with pytest.raises(ValueError, match="out of range"):
            linear_softmax_cross_entropy(h, w, b, bad, np.ones(2))
    for targets, mask in ((np.array([0, 1, 2]), np.ones(2)), (np.array([0, 1]), np.ones(3))):
        with pytest.raises(ValueError, match="targets/mask must be length 2"):
            softmax_cross_entropy(matmul(h, w), targets, mask)
        with pytest.raises(ValueError, match="targets/mask must be length 2"):
            linear_softmax_cross_entropy(h, w, b, targets, mask)
    with pytest.raises(ValueError, match="shape mismatch"):
        linear_softmax_cross_entropy(h, Tensor(np.zeros((4, 6))), b, np.zeros(2, int), np.ones(2))
    with pytest.raises(ValueError, match="shape mismatch"):
        linear_softmax_cross_entropy(h, w, Tensor(np.zeros(5)), np.zeros(2, int), np.ones(2))


def test_first_gradient_is_copied_not_aliased():
    x = t64(2, 3)
    with Tape() as tape:
        loss = sum_all(add(x, x))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 3)))

    a, b = t64(2, 3), t64(2, 3)
    with Tape() as tape:
        loss = sum_all(add(a, b))
    backward(tape, loss)
    a.grad *= 5.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    assert not np.shares_memory(a.grad, b.grad)


# rows padded in the middle, at the end, and not at all
PADDED_KEEP = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])


def lstm_case(T=4, zero_init=False, B=3, V=5, E=3, H=2):
    table, w, u, b = t64(V, E), t64(E, 4 * H), t64(H, 4 * H), t64(4 * H)
    init = Tensor(np.zeros((B, 2 * H))) if zero_init else t64(B, 2 * H)
    ids = RNG.integers(0, V, (B, T))  # B*T > V, so ids repeat
    return table, ids, init, w, u, b


def fused_lstm(table, ids, init, w, u, b, keep=None):
    return lstm_sequence(embedding_lookup(table, ids), init, w, u, b, keep)


def lstm_loss(run, case, keep, on):
    """Scalar loss on the hiddens, the final state, or both, contracted
    against fixed weights."""
    table, ids, init, w, u, b = case
    B, T, H = ids.shape + (u.shape[0],)
    wh = Tensor(np.linspace(-1.0, 1.5, B * T * H).reshape(B, T, H))
    wf = Tensor(np.linspace(1.2, -0.8, B * 2 * H).reshape(B, 2 * H))

    def loss():
        hiddens, final = run(table, ids, init, w, u, b, keep)
        parts = []
        if on in ("hiddens", "both"):
            parts.append(sum_all(mul(hiddens, wh)))
        if on in ("final", "both"):
            parts.append(sum_all(mul(final, wf)))
        return parts[0] if len(parts) == 1 else add(parts[0], parts[1])

    return loss


LSTM_CASES = [
    pytest.param(dict(T=4), PADDED_KEEP, "both", id="padded-middle-and-end"),
    pytest.param(dict(T=1), None, "both", id="single-step"),
    pytest.param(dict(T=1), PADDED_KEEP[:, :1], "final", id="single-step-masked"),
    pytest.param(dict(T=4, zero_init=True), PADDED_KEEP, "final", id="encoder-final-only"),
    pytest.param(dict(T=4), None, "hiddens", id="decoder-hiddens-only"),
    pytest.param(dict(T=4), PADDED_KEEP, "hiddens", id="padded-hiddens-only"),
]


@pytest.mark.parametrize("shape, keep, on", LSTM_CASES)
def test_lstm_sequence_gradient_vs_finite_differences(shape, keep, on):
    case = lstm_case(**shape)
    table, _, init, w, u, b = case
    assert check_gradients(lstm_loss(fused_lstm, case, keep, on), [table, init, w, u, b]) < 1e-4


@pytest.mark.parametrize("shape, keep, on", LSTM_CASES)
def test_lstm_sequence_matches_composite_chain(shape, keep, on):
    case = lstm_case(**shape)
    leaves = [case[0]] + list(case[2:])
    results = []
    for run in (composite_lstm, fused_lstm):
        for t in leaves:
            t.grad = None
        loss_fn = lstm_loss(run, case, keep, on)
        with Tape() as tape:
            tape.watch(leaves)
            loss = loss_fn()
        backward(tape, loss)
        values = run(*case, keep)
        results.append([v.values for v in values] + [t.grad.copy() for t in leaves])
    for ref, got in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_lstm_sequence_is_one_record_and_backward_runs_from_either_output():
    case = lstm_case()
    table, ids, init, w, u, b = case
    for pick in (0, 1):
        for t in (table, init, w, u, b):
            t.grad = None
        with Tape() as tape:
            x = embedding_lookup(table, ids)
            outs = lstm_sequence(x, init, w, u, b, PADDED_KEEP)
            loss = sum_all(outs[pick])
        assert len(tape) == 3
        backward(tape, loss)
        assert all(t.grad is not None and np.any(t.grad) for t in (table, init, w, u, b))


def test_lstm_sequence_float32_forward_bit_equal_to_composite():
    B, T, V, E, H = 16, 9, 40, 24, 32
    table, w, u, b = (Tensor(RNG.uniform(-0.3, 0.3, shape).astype(np.float32))
                      for shape in ((V, E), (E, 4 * H), (H, 4 * H), (4 * H,)))
    ids = RNG.integers(0, V, (B, T))
    keep = (np.arange(T) < RNG.integers(1, T + 1, B)[:, None]).astype(np.float32)
    for init, mask in ((np.zeros((B, 2 * H)), keep), (RNG.normal(size=(B, 2 * H)), None)):
        init = Tensor(init.astype(np.float32))
        fused = fused_lstm(table, ids, init, w, u, b, mask)
        ref = composite_lstm(table, ids, init, w, u, b, mask)
        for got, want in zip(fused, ref):
            assert got.dtype == np.float32
            assert got.values.tobytes() == want.values.tobytes()


def test_lstm_sequence_shape_errors():
    table, ids, init, w, u, b = lstm_case()
    x = embedding_lookup(table, ids)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(x, Tensor(np.zeros((3, 3))), w, u, b)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(x, init, u, u, b)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(Tensor(np.zeros((3, 0, 3))), init, w, u, b)
    with pytest.raises(ValueError, match="keep mask"):
        lstm_sequence(x, init, w, u, b, np.ones((3, 2)))


def attention_case(B=3, T=4, S=5, H=3, dtype=np.float64):
    hiddens, states, w_a, w_c = (Tensor(RNG.standard_normal(shape).astype(dtype))
                                 for shape in ((B, T, H), (B, S, H), (H, H), (2 * H, H)))
    return hiddens, states, w_a, w_c


# encoder rows padded at the end, in the middle, and not at all
PADDED_SOURCE = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0, 1.0],
                          [1.0, 1.0, 1.0, 1.0, 1.0]])
ATTENTION_CASES = [
    pytest.param(dict(), PADDED_SOURCE, None, id="masked-positions"),
    pytest.param(dict(S=1), np.ones((3, 1)), None, id="single-position"),
    pytest.param(dict(T=1), PADDED_SOURCE, None, id="single-step"),
    pytest.param(dict(), PADDED_SOURCE, [0, 5, 6, 11], id="loss-on-some-rows"),
]


def attention_loss(run, case, mask, rows):
    """Scalar loss contracting the (B*T, H) output against fixed weights,
    zero outside `rows` when given."""
    hiddens, states, w_a, w_c = case
    B, T, H = hiddens.shape
    weights = np.linspace(-1.0, 1.5, B * T * H).reshape(B * T, H)
    if rows is not None:
        weights[np.setdiff1d(np.arange(B * T), rows)] = 0.0
    return lambda: sum_all(mul(run(hiddens, states, mask, w_a, w_c), Tensor(weights)))


@pytest.mark.parametrize("shape, mask, rows", ATTENTION_CASES)
def test_attention_sequence_gradient_vs_finite_differences(shape, mask, rows):
    case = attention_case(**shape)
    assert check_gradients(attention_loss(attention_sequence, case, mask, rows), case) < 1e-4


@pytest.mark.parametrize("shape, mask, rows", ATTENTION_CASES)
def test_attention_sequence_matches_composite_chain(shape, mask, rows):
    case = attention_case(**shape)
    hiddens, states, w_a, w_c = case
    results = []
    for run in (composite_attention, attention_sequence):
        for t in case:
            t.grad = None
        loss_fn = attention_loss(run, case, mask, rows)
        with Tape() as tape:
            tape.watch(case)
            loss = loss_fn()
        backward(tape, loss)
        out = run(hiddens, states, mask, w_a, w_c)
        results.append([out.values] + [t.grad.copy() for t in case])
    for ref, got in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_attention_sequence_float32_forward_bit_equal_to_composite():
    for B, T, S in ((16, 9, 11), (4, 1, 6), (4, 5, 1)):
        hiddens, states, w_a, w_c = attention_case(B, T, S, H=32, dtype=np.float32)
        mask = (np.arange(S) < RNG.integers(1, S + 1, B)[:, None]).astype(np.float32)
        fused = attention_sequence(hiddens, states, mask, w_a, w_c)
        ref = composite_attention(hiddens, states, mask, w_a, w_c)
        assert fused.dtype == np.float32
        assert fused.values.tobytes() == ref.values.tobytes()


def test_attention_sequence_is_one_record():
    hiddens, states, w_a, w_c = attention_case()
    with Tape() as tape:
        attention_sequence(hiddens, states, PADDED_SOURCE, w_a, w_c)
    assert len(tape) == 1


def test_attention_sequence_shape_and_mask_errors():
    hiddens, states, w_a, w_c = attention_case()
    for args in ((Tensor(np.zeros((3, 4))), states, w_a, w_c),
                 (hiddens, Tensor(np.zeros((2, 5, 3))), w_a, w_c),
                 (hiddens, Tensor(np.zeros((3, 5, 2))), w_a, w_c),
                 (hiddens, Tensor(np.zeros((3, 0, 3))), w_a, w_c),
                 (hiddens, states, w_c, w_c),
                 (hiddens, states, w_a, w_a)):
        with pytest.raises(ValueError, match="attention_sequence shape mismatch"):
            attention_sequence(args[0], args[1], np.ones((3, 5)), args[2], args[3])
    with pytest.raises(ValueError, match="mask shape"):
        attention_sequence(hiddens, states, np.ones((3, 4)), w_a, w_c)
    no_position = PADDED_SOURCE.copy()
    no_position[1] = 0.0
    with pytest.raises(ValueError, match="a row has no unmasked positions"):
        attention_sequence(hiddens, states, no_position, w_a, w_c)
