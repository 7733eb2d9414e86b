import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import aem.autograd
from aem.autograd import (
    AttentionMask,
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
from helpers import (assert_halves_equal_whole, assert_same_bits_on_one_and_two_cpus,
                     composite_attention, composite_lstm, peak_traced_bytes, run_on_cpus)

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


def head_grads(head, h, w, b, targets, mask):
    """(loss, n, dh, dw, db) of head under a tape, the loss scaled by 0.7."""
    for t in (h, w, b):
        t.grad = None
    with Tape() as tape:
        out, n = head(h, w, b, targets, mask)
        loss = scale(out, 0.7)
    backward(tape, loss)
    return float(out.values), n, h.grad.copy(), w.grad.copy(), b.grad.copy()


# blocks over the 7 kept rows at V=6: one row each; two rows (edges across
# masked rows, the last block a single row); all rows in one block
@pytest.mark.parametrize("budget", [1, 12, 4 * 1024 * 1024])
def test_linear_cross_entropy_blocks_match_composite(monkeypatch, budget):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", budget)
    targets = np.array([1, 4, 0, 5, 3, 2, 0, 5, 1, 2])
    mask = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 1])
    h, w, b = head_case(n=10)
    loss = lambda: linear_softmax_cross_entropy(h, w, b, targets, mask)[0]
    assert check_gradients(loss, [h, w, b]) < 1e-4
    la, na, *ga = head_grads(composite_head, h, w, b, targets, mask)
    lf, nf, *gf = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
    assert na == nf == 7
    np.testing.assert_allclose(lf, la, rtol=1e-12)
    for a, f in zip(ga, gf):
        np.testing.assert_allclose(f, a, rtol=1e-10, atol=1e-14)
    assert np.all(gf[0][mask == 0] == 0)


def test_linear_cross_entropy_float32_loss_bit_equal_to_composite_across_blocks(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 3 * 50 + 49)  # 3 rows per block
    targets = RNG.integers(0, 50, 40)
    mask = (RNG.random(40) < 0.7).astype(np.float64)
    h, w, b = head_case(n=40, hdim=16, v=50, dtype=np.float32)
    fused, n = linear_softmax_cross_entropy(h, w, b, targets, mask)
    composite, n_ref = composite_head(h, w, b, targets, mask)
    assert n == n_ref > 3
    assert fused.values.tobytes() == composite.values.tobytes()
    # the gradients are scaled after the matmuls and summed block by
    # block, so they may differ from the composite's in the last bits only
    _, _, *ga = head_grads(composite_head, h, w, b, targets, mask)
    _, _, *gf = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
    for a, f in zip(ga, gf):
        assert f.dtype == np.float32
        np.testing.assert_allclose(f, a, rtol=1e-5, atol=1e-6)


# one block; blocks of four rows, the last of three; one row per block
@pytest.mark.parametrize("budget", [4 * 1024 * 1024, 4 * 50, 1])
def test_linear_cross_entropy_same_bits_on_one_and_two_cpus(monkeypatch, budget):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", budget)
    targets = RNG.integers(0, 50, 41)
    mask = np.zeros(41)
    mask[RNG.permutation(41)[:31]] = 1.0  # an odd number of kept rows
    h, w, b = head_case(n=41, hdim=16, v=50, dtype=np.float32)

    def run():
        loss, n, *grads = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
        assert n == 31
        return [np.float32(loss)] + grads

    assert_same_bits_on_one_and_two_cpus(run)


def test_linear_cross_entropy_all_masked_is_zero(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 6)
    h, w, b = head_case(n=4)
    loss, n, dh, dw, db = head_grads(linear_softmax_cross_entropy, h, w, b,
                                     np.array([1, 2, 3, 4]), np.zeros(4))
    assert loss == 0 and n == 0
    for g in (dh, dw, db):
        assert not g.any()


def test_linear_cross_entropy_holds_one_block_of_logits(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 4096)
    n, v = 512, 256  # N*V is 32 blocks
    h, w, b = head_case(n=n, hdim=8, v=v, dtype=np.float32)
    targets, mask = RNG.integers(0, v, n), np.ones(n)

    def step():
        with Tape() as tape:
            out, _ = linear_softmax_cross_entropy(h, w, b, targets, mask)
        backward(tape, out)

    assert peak_traced_bytes(step) < n * v * 4 / 4
    assert h.grad.shape == (n, 8) and w.grad.shape == (8, v)


def test_linear_cross_entropy_without_tape_forms_no_gradient():
    n, hdim, v = 4, 512, 512
    h, w, b = head_case(n=n, hdim=hdim, v=v, dtype=np.float32)
    targets, mask = RNG.integers(0, v, n), np.ones(n)
    peak = peak_traced_bytes(lambda: linear_softmax_cross_entropy(h, w, b, targets, mask))
    assert peak < hdim * v * 4 / 4
    assert h.grad is None and w.grad is None


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


# rows that end before T, and one that runs to T
MIXED_LENGTHS = np.array([3, 2, 4])


def lstm_case(T=4, zero_init=False, B=3, V=5, E=3, H=2):
    table, w, u, b = t64(V, E), t64(E, 4 * H), t64(H, 4 * H), t64(4 * H)
    init = Tensor(np.zeros((B, 2 * H))) if zero_init else t64(B, 2 * H)
    ids = RNG.integers(0, V, (B, T))  # B*T > V, so ids repeat
    return table, ids, init, w, u, b


def fused_lstm(table, ids, init, w, u, b, lengths=None):
    return lstm_sequence(embedding_lookup(table, ids), init, w, u, b, lengths)


def composite_split(table, ids, init, w, u, b, lengths=None):
    """What lstm_sequence computes, from the composite chain: the hiddens
    of the plain recurrence, and the final state carried through the
    prefix mask of `lengths` to each row's last step."""
    hiddens, final = composite_lstm(table, ids, init, w, u, b)
    if lengths is not None:
        keep = (np.arange(ids.shape[1]) < lengths[:, None]).astype(init.dtype)
        _, final = composite_lstm(table, ids, init, w, u, b, keep)
    return hiddens, final


def lstm_loss(run, case, lengths, on):
    """Scalar loss on the hiddens, the final state, or both, contracted
    against fixed weights."""
    table, ids, init, w, u, b = case
    B, T, H = ids.shape + (u.shape[0],)
    wh = Tensor(np.linspace(-1.0, 1.5, B * T * H).reshape(B, T, H))
    wf = Tensor(np.linspace(1.2, -0.8, B * 2 * H).reshape(B, 2 * H))

    def loss():
        hiddens, final = run(table, ids, init, w, u, b, lengths)
        parts = []
        if on in ("hiddens", "both"):
            parts.append(sum_all(mul(hiddens, wh)))
        if on in ("final", "both"):
            parts.append(sum_all(mul(final, wf)))
        return parts[0] if len(parts) == 1 else add(parts[0], parts[1])

    return loss


LSTM_CASES = [
    pytest.param(dict(T=4), MIXED_LENGTHS, "both", id="mixed-lengths"),
    pytest.param(dict(T=4), np.array([4, 4, 4]), "both", id="all-full"),
    pytest.param(dict(T=1), None, "both", id="single-step"),
    pytest.param(dict(T=1), np.array([1, 1, 1]), "final", id="single-step-masked"),
    pytest.param(dict(T=4, zero_init=True), MIXED_LENGTHS, "final", id="encoder-final-only"),
    pytest.param(dict(T=4), None, "hiddens", id="decoder-hiddens-only"),
    pytest.param(dict(T=4), MIXED_LENGTHS, "hiddens", id="padded-hiddens-only"),
]


@pytest.mark.parametrize("shape, lengths, on", LSTM_CASES)
def test_lstm_sequence_gradient_vs_finite_differences(shape, lengths, on):
    case = lstm_case(**shape)
    table, _, init, w, u, b = case
    assert check_gradients(lstm_loss(fused_lstm, case, lengths, on), [table, init, w, u, b]) < 1e-4


@pytest.mark.parametrize("shape, lengths, on", LSTM_CASES)
def test_lstm_sequence_matches_composite_chain(shape, lengths, on):
    case = lstm_case(**shape)
    leaves = [case[0]] + list(case[2:])
    results = []
    for run in (composite_split, fused_lstm):
        for t in leaves:
            t.grad = None
        loss_fn = lstm_loss(run, case, lengths, on)
        with Tape() as tape:
            tape.watch(leaves)
            loss = loss_fn()
        backward(tape, loss)
        values = run(*case, lengths)
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
            outs = lstm_sequence(x, init, w, u, b, MIXED_LENGTHS)
            loss = sum_all(outs[pick])
        assert len(tape) == 3
        backward(tape, loss)
        assert all(t.grad is not None and np.any(t.grad) for t in (table, init, w, u, b))


def test_lstm_sequence_float32_forward_bit_equal_to_composite():
    B, T, V, E, H = 16, 9, 40, 24, 32
    table, w, u, b = (Tensor(RNG.uniform(-0.3, 0.3, shape).astype(np.float32))
                      for shape in ((V, E), (E, 4 * H), (H, 4 * H), (4 * H,)))
    ids = RNG.integers(0, V, (B, T))
    lengths = RNG.integers(1, T + 1, B)
    for init, rows in ((np.zeros((B, 2 * H)), lengths), (RNG.normal(size=(B, 2 * H)), None)):
        init = Tensor(init.astype(np.float32))
        fused = fused_lstm(table, ids, init, w, u, b, rows)
        ref = composite_split(table, ids, init, w, u, b, rows)
        for got, want in zip(fused, ref):
            assert got.dtype == np.float32
            assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("T, lengths, on", [
    pytest.param(7, None, "hiddens", id="None-hiddens"),
    pytest.param(7, None, "both", id="None-both"),
    pytest.param(7, np.array([7, 3, 1, 5, 7]), "both", id="lengths2-both"),
    pytest.param(7, np.array([2, 3, 1, 5, 6]), "final", id="lengths3-final"),
    pytest.param(3, np.array([3, 1, 2, 3, 2]), "both", id="three-steps-both"),
])
def test_lstm_sequence_backward_same_bits_on_one_and_two_cpus(T, lengths, on):
    # odd counts: at T = 7 the gate factors run steps 0-2 and 3-6, at T = 3
    # (fewer than four steps) whole; the forward recurrence and the
    # backward walk run rows 0-1 and 2-4
    B, E, H = 5, 6, 8
    leaves = [Tensor(RNG.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(RNG.standard_normal(shape).astype(np.float32))
              for shape in ((B, T, H), (B, 2 * H)))

    def run():
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            hiddens, final = lstm_sequence(*leaves, lengths)
            parts = ([sum_all(mul(hiddens, wh))] if on != "final" else []) \
                + ([sum_all(mul(final, wf))] if on != "hiddens" else [])
            loss = parts[0] if len(parts) == 1 else add(*parts)
        backward(tape, loss)
        return [hiddens.values, final.values] + [t.grad.copy() for t in leaves]

    assert_same_bits_on_one_and_two_cpus(run)


@pytest.mark.parametrize("on", ["final", "both"])
@pytest.mark.parametrize("B, E, H", [(6, 3, 4), (256, 64, 128)], ids=["tiny", "benchmark"])
def test_lstm_sequence_without_lengths_equals_every_row_ending_at_T(B, E, H, on):
    """An omitted `lengths` reads as every row ending at step T: the
    hiddens, the final state and the gradients of every input are the
    bytes of lengths = T for every row, with and without a gradient on
    the hiddens, on one CPU and on two."""
    T = 5
    leaves = [Tensor(RNG.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(RNG.standard_normal(shape).astype(np.float32))
              for shape in ((B, T, H), (B, 2 * H)))

    def run_with(lengths):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            hiddens, final = lstm_sequence(*leaves, lengths)
            loss = sum_all(mul(final, wf))
            if on == "both":
                loss = add(sum_all(mul(hiddens, wh)), loss)
        backward(tape, loss)
        return [hiddens.values, final.values] + [t.grad.copy() for t in leaves]

    def run():
        omitted = run_with(None)
        for a, b in zip(omitted, run_with(np.full(B, T))):
            assert a.tobytes() == b.tobytes()
        return omitted

    assert_same_bits_on_one_and_two_cpus(run)


@pytest.mark.parametrize("B, H", [(256, 128), (64, 512)], ids=["benchmark", "default_hidden"])
def test_lstm_sequence_halves_equal_whole(B, H):
    """The forward recurrence and the backward walk over row halves write
    the bytes of the whole pass, at the vocab_bound training shape
    (B = 256, H = 128) and at the default H = 512 with the fewest rows
    the floor splits there (B = 64: halves of 32 rows). This pins the
    row-partition invariance of numpy's BLAS (OpenBLAS in numpy's wheels)
    at these shapes; OpenBLAS picks kernels by shape, so it does not hold
    for every shape."""
    T, E = 5, 64
    leaves = [Tensor(RNG.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(RNG.standard_normal(shape).astype(np.float32))
              for shape in ((B, T, H), (B, 2 * H)))

    def run(lengths):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            hiddens, final = lstm_sequence(*leaves, lengths)
            loss = add(sum_all(mul(hiddens, wh)), sum_all(mul(final, wf)))
        backward(tape, loss)
        return [hiddens.values, final.values] + [t.grad.copy() for t in leaves]

    for lengths in (None, RNG.integers(1, T + 1, B)):
        sizes = assert_halves_equal_whole(lambda: run(lengths))
        assert sizes.count(B * 4 * H) == 2  # the forward and the backward walk


def test_linear_cross_entropy_halves_equal_whole_at_benchmark_shape():
    """A 1398-row block at V = 3000 (one block of the vocab_bound head)
    projects, and forms its loss and gradients, in row halves with the
    bytes of the whole block. This pins the row-partition invariance of
    numpy's BLAS (OpenBLAS in numpy's wheels) at a shape the floor
    admits."""
    n, v = 1398, 3000
    assert aem.autograd._BLOCK_LOGITS // v == n
    targets = RNG.integers(0, v, n)
    mask = np.ones(n)
    h, w, b = head_case(n=n, hdim=128, v=v, dtype=np.float32)

    def run():
        loss, _, *grads = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
        return [np.float32(loss)] + grads

    assert n * v in assert_halves_equal_whole(run)


def test_lstm_sequence_shape_errors():
    table, ids, init, w, u, b = lstm_case()
    x = embedding_lookup(table, ids)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(x, Tensor(np.zeros((3, 3))), w, u, b)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(x, init, u, u, b)
    with pytest.raises(ValueError, match="lstm_sequence shape mismatch"):
        lstm_sequence(Tensor(np.zeros((3, 0, 3))), init, w, u, b)
    for lengths in ([1, 2], [[1, 2, 3]], [0, 2, 3], [1, 5, 3], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="lstm_sequence lengths"):
            lstm_sequence(x, init, w, u, b, np.array(lengths))


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


def fused_attention(hiddens, states, mask, w_a, w_c):
    """attention_sequence over the raw mask checked as the model checks it."""
    checked = AttentionMask(mask, states.shape[:2], states.dtype)
    return attention_sequence(hiddens, states, checked, w_a, w_c)


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
    assert check_gradients(attention_loss(fused_attention, case, mask, rows), case) < 1e-4


@pytest.mark.parametrize("shape, mask, rows", ATTENTION_CASES)
def test_attention_sequence_matches_composite_chain(shape, mask, rows):
    case = attention_case(**shape)
    hiddens, states, w_a, w_c = case
    results = []
    for run in (composite_attention, fused_attention):
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
        fused = fused_attention(hiddens, states, mask, w_a, w_c)
        ref = composite_attention(hiddens, states, mask, w_a, w_c)
        assert fused.dtype == np.float32
        assert fused.values.tobytes() == ref.values.tobytes()


def test_attention_sequence_is_one_record():
    hiddens, states, w_a, w_c = attention_case()
    with Tape() as tape:
        fused_attention(hiddens, states, PADDED_SOURCE, w_a, w_c)
    assert len(tape) == 1


def test_attention_sequence_shape_and_mask_errors():
    hiddens, states, w_a, w_c = attention_case()
    every_position = AttentionMask(np.ones((3, 5)), (3, 5), np.float64)
    for args in ((Tensor(np.zeros((3, 4))), states, w_a, w_c),
                 (hiddens, Tensor(np.zeros((2, 5, 3))), w_a, w_c),
                 (hiddens, Tensor(np.zeros((3, 5, 2))), w_a, w_c),
                 (hiddens, Tensor(np.zeros((3, 0, 3))), w_a, w_c),
                 (hiddens, states, w_c, w_c),
                 (hiddens, states, w_a, w_a)):
        with pytest.raises(ValueError, match="attention_sequence shape mismatch"):
            attention_sequence(args[0], args[1], every_position, args[2], args[3])
    with pytest.raises(ValueError, match="mask shape"):
        AttentionMask(np.ones((3, 4)), (3, 5), np.float64)
    no_position = PADDED_SOURCE.copy()
    no_position[1] = 0.0
    with pytest.raises(ValueError, match="a row has no unmasked positions"):
        AttentionMask(no_position, (3, 5), np.float64)
    # a mask checked for other positions is refused, not trusted
    other = AttentionMask(np.ones((3, 4)), (3, 4), np.float64)
    with pytest.raises(ValueError, match=re.escape("mask shape (3, 4) != states positions (3, 5)")):
        attention_sequence(hiddens, states, other, w_a, w_c)


# ---------------------------------------------------------------------------
# the worker thread behind _both


def test_both_returns_results_in_argument_order():
    result, on_worker = run_on_cpus(2, lambda: aem.autograd._both(lambda: "a", lambda: "b", 0))
    assert result == ("a", "b") and on_worker == [True]


def test_both_raises_only_after_the_other_thunk_has_finished():
    def slow(done):
        def run():
            time.sleep(0.05)
            done.append(True)
            return "slow"
        return run

    def fail():
        raise KeyError("boom")

    def run():
        both = aem.autograd._both
        for first, second in ((fail, None), (None, fail)):
            done = []
            with pytest.raises(KeyError, match="boom"):
                both(first or slow(done), second or slow(done), 0)
            assert done == [True]
        # the worker still serves after either thunk failed
        return both(lambda: 1, lambda: 2, 0)

    result, on_worker = run_on_cpus(2, run)
    assert result == (1, 2) and on_worker == [True] * 3


def test_both_does_not_wait_for_a_worker_that_has_not_started(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_cpus", lambda: 2)
    both, busy = aem.autograd._both, threading.Event()
    both(lambda: None, lambda: None, aem.autograd._SPLIT_MIN)  # makes sure the worker exists
    blocker = aem.autograd._WORKER[1].submit(busy.wait, 10)
    try:
        on_main = lambda: threading.current_thread() is threading.main_thread()
        assert both(lambda: 1, on_main, aem.autograd._SPLIT_MIN) == (1, True)
        ran = []
        with pytest.raises(KeyError):
            both(lambda: {}["boom"], lambda: ran.append(1), aem.autograd._SPLIT_MIN)
        assert ran == []  # never started, so not run after the error either
    finally:
        busy.set()
    assert blocker.result(timeout=10) is True


def test_both_below_the_split_size_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_cpus", lambda: 2)
    ran_on = []
    where = lambda: ran_on.append(threading.current_thread() is threading.main_thread())
    aem.autograd._both(where, where, aem.autograd._SPLIT_MIN - 1)
    assert ran_on == [True, True]


def test_both_on_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(aem.autograd, "_WORKER", None)
    threads = threading.active_count()
    result, on_worker = run_on_cpus(1, lambda: aem.autograd._both(lambda: 1, lambda: 2, 0))
    assert result == (1, 2) and on_worker == [False]
    assert aem.autograd._WORKER is None and threading.active_count() == threads


def test_halves_split_only_at_the_floor_and_four_rows():
    # a one-row half would run through gemv: two or three rows stay whole
    floor = aem.autograd._SPLIT_MIN
    for n, size, want in ((2, floor, [(0, 2)]), (3, floor, [(0, 3)]),
                          (4, floor - 1, [(0, 4)]), (4, floor, [(0, 2), (2, 4)]),
                          (5, floor, [(0, 2), (2, 5)])):
        seen = []
        aem.autograd._halves(lambda rows: seen.append((rows.start, rows.stop)), n, size)
        assert sorted(seen) == want


TESTS = Path(__file__).resolve().parent


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_starts_no_thread():
    # start-up pays for neither the thread nor the concurrent.futures import
    assert run_python("import sys, threading, aem, aem.cli\n"
                      "print('concurrent.futures' in sys.modules, threading.active_count())"
                      ) == ["False", "1"]


def test_a_process_that_started_the_worker_exits():
    # the idle worker must not hold the interpreter open at exit
    assert run_python("import threading, aem.autograd\n"
                      "aem.autograd._cpus = lambda: 2\n"
                      "aem.autograd._SPLIT_MIN = 0\n"
                      "from aem.model import DialogueModel\n"
                      "from helpers import tiny_config, toy_batch\n"
                      "model = DialogueModel('aem', tiny_config())\n"
                      "model.train_step(toy_batch(), model.make_optimizer())\n"
                      "print(aem.autograd._WORKER is not None, threading.active_count())"
                      ) == ["True", "2"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_its_own_worker():
    # the child inherits the parent's executor, but not its thread
    assert run_python("import multiprocessing, aem.autograd as ag\n"
                      "ag._cpus = lambda: 2\n"
                      "ag._SPLIT_MIN = 0\n"
                      "ag._both(lambda: 1, lambda: 2, 0)\n"
                      "def child(q):\n"
                      "    q.put(ag._both(lambda: 3, lambda: 4, 0))\n"
                      "fork = multiprocessing.get_context('fork')\n"
                      "q = fork.Queue()\n"
                      "p = fork.Process(target=child, args=(q,), daemon=True)\n"
                      "p.start()\n"
                      "print(*q.get(timeout=20))\n"
                      "p.join(20)\n"
                      "print(p.exitcode)") == ["3", "4", "0"]
