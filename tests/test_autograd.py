import math
import os
import re
import subprocess
import sys
import threading
import time
import weakref
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
    lstm_sequences,
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
from aem.data import BOS_ID, PAD_ID
from aem.gradcheck import check_gradients
from helpers import (assert_halves_equal_whole, assert_same_bits_on_one_and_two_cpus,
                     composite_attention, composite_lstm, peak_traced_bytes, run_on_cpus,
                     traced_bytes)

@pytest.fixture
def rng():
    """A generator of the test's own, seeded alike for every test, so what
    a test draws does not depend on which tests ran before it."""
    return np.random.default_rng(20240815)


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(matmul(a, b).values, b.values)


def test_matmul_hand_case():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(matmul(a, b).values, [[11.0]])


def test_matmul_shape_error_names_shapes(rng):
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(t64(rng, 2, 3), t64(rng, 2, 3))


def test_matmul_gradient_vs_finite_differences(rng):
    a, b = t64(rng, 3, 4), t64(rng, 4, 2)
    err = check_gradients(lambda: sum_all(tanh(matmul(a, b))), [a, b])
    assert err < 1e-4


def test_elementwise_trivial_values():
    assert sigmoid(Tensor(np.zeros(1))).values[0] == 0.5
    assert tanh(Tensor(np.zeros(1))).values[0] == 0.0
    np.testing.assert_array_equal(
        add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))).values, [4.0, 6.0]
    )


def test_elementwise_shape_errors(rng):
    for op in (add, sub, mul):
        with pytest.raises(ValueError):
            op(t64(rng, 2, 3), t64(rng, 3, 2))


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
def test_unary_gradients(build, rng):
    x = t64(rng, 2, 3)
    assert check_gradients(lambda: build(x), [x]) < 1e-4


def test_binary_gradients(rng):
    a, b = t64(rng, 2, 3), t64(rng, 2, 3)
    for op in (add, sub, mul):
        assert check_gradients(lambda: sum_all(op(a, b)), [a, b]) < 1e-4


def test_add_bias_gradient(rng):
    x, b = t64(rng, 4, 3), t64(rng, 3)
    assert check_gradients(lambda: sum_all(tanh(add_bias(x, b))), [x, b]) < 1e-4


def test_concat_and_slice_gradients(rng):
    a, b = t64(rng, 3, 2), t64(rng, 3, 4)
    loss = lambda: sum_all(mul(concat_cols(a, b), concat_cols(a, b)))
    assert check_gradients(loss, [a, b]) < 1e-4


def test_embedding_lookup_rows_only(rng):
    table = t64(rng, 5, 3)
    ids = np.array([1, 3, 3])
    with Tape() as tape:
        out = sum_all(embedding_lookup(table, ids))
    backward(tape, out)
    assert np.all(table.grad[[0, 2, 4]] == 0)
    np.testing.assert_array_equal(table.grad[1], np.ones(3))
    np.testing.assert_array_equal(table.grad[3], 2 * np.ones(3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B, T, V, E", [(3, 4, 6, 2), (256, 9, 3000, 64)],
                         ids=["tiny", "vocab_bound"])
def test_embedding_lookup_scatter_writes_the_bytes_of_a_row_scatter(dtype, B, T, V, E):
    """Two lookups of one table, as J2 and J4 read the target embedding:
    backward scatters the second lookup's gradient, then the first's into
    the sum so far, and the flat scatter writes the bytes of
    np.add.at(grad, ids, gout) made in the same order. Every row starts
    with BOS, and each row ends in a run of PAD as long as its index
    allows, so BOS and PAD rows collect many adds."""
    rng = np.random.default_rng(B)
    table = Tensor(rng.standard_normal((V, E)).astype(dtype))
    ids = []
    for _ in range(2):
        rows = rng.integers(3, V, (B, T))
        rows[:, 0] = BOS_ID
        for r in range(B):
            rows[r, T - r % T:] = PAD_ID
        ids.append(rows)
    weights = [Tensor((rng.standard_normal((B, T, E))
                       * 10.0 ** rng.integers(-3, 3, (B, T, 1))).astype(dtype)) for _ in ids]
    with Tape() as tape:
        outs = [embedding_lookup(table, rows) for rows in ids]
        loss = add(*(sum_all(mul(out, w)) for out, w in zip(outs, weights)))
    backward(tape, loss)
    want = np.zeros_like(table.values)
    for rows, out in reversed(list(zip(ids, outs))):
        np.add.at(want, rows, out.grad)
    assert table.grad.dtype == dtype and table.grad.tobytes() == want.tobytes()


def test_embedding_lookup_refuses_a_gradient_whose_flat_form_is_a_copy():
    table = Tensor(np.ones((5, 3)))
    table.grad = np.zeros((3, 5)).T
    with Tape() as tape:
        out = sum_all(embedding_lookup(table, np.array([1, 3, 3])))
    with pytest.raises(ValueError, match="C-contiguous table gradient"):
        backward(tape, out)
    assert not table.grad.any()


def test_embedding_lookup_range_error(rng):
    with pytest.raises(ValueError):
        embedding_lookup(t64(rng, 5, 3), np.array([5]))


def test_stack_and_attend_gradients(rng):
    s1, s2, q = t64(rng, 2, 3), t64(rng, 2, 3), t64(rng, 2, 3)
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


def test_masked_softmax_rejects_all_masked_row(rng):
    with pytest.raises(ValueError):
        masked_softmax(t64(rng, 2, 3), np.array([[1, 1, 1], [0, 0, 0]]))


def test_lerp_mask_carries_state(rng):
    new, prev = t64(rng, 2, 3), t64(rng, 2, 3)
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


def test_cross_entropy_mask_zeroes_rows(rng):
    logits = t64(rng, 4, 5)
    targets = np.array([0, 1, 2, 3])
    full, _ = softmax_cross_entropy(logits, targets, np.array([1, 1, 0, 0]))
    a, _ = softmax_cross_entropy(Tensor(logits.values[:1]), targets[:1], np.ones(1))
    b, _ = softmax_cross_entropy(Tensor(logits.values[1:2]), targets[1:2], np.ones(1))
    np.testing.assert_allclose(float(full.values), float(a.values) + float(b.values), rtol=1e-12)


def test_cross_entropy_target_out_of_range(rng):
    with pytest.raises(ValueError):
        softmax_cross_entropy(t64(rng, 2, 5), np.array([0, 5]), np.ones(2))


def test_cross_entropy_gradient_vs_finite_differences(rng):
    logits = t64(rng, 2, 5)
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


def test_backward_sum_gives_ones(rng):
    p = t64(rng, 3, 2)
    with Tape() as tape:
        loss = sum_all(p)
    backward(tape, loss)
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))


def test_backward_half_square_norm_gives_param(rng):
    p = t64(rng, 4)
    with Tape() as tape:
        loss = scale(sum_all(mul(p, p)), 0.5)
    backward(tape, loss)
    np.testing.assert_allclose(p.grad, p.values, rtol=1e-12)


def test_backward_rejects_non_scalar(rng):
    p = t64(rng, 2, 2)
    with Tape() as tape:
        out = mul(p, p)
    with pytest.raises(ValueError):
        backward(tape, out)


def test_backward_rejects_foreign_loss(rng):
    p = t64(rng, 2)
    with Tape() as tape:
        sum_all(p)
    with Tape() as other:
        loss = sum_all(p)
    with pytest.raises(ValueError):
        backward(tape, loss)


def test_backward_refuses_a_tape_it_already_ran():
    # a second run would find the tape empty and leave every gradient as it was
    p = Tensor(np.random.default_rng(1).standard_normal((3, 2)))
    with Tape() as tape:
        loss = sum_all(mul(p, p))
    backward(tape, loss)
    assert len(tape) == 0
    grads = [p.grad.tobytes(), loss.grad.tobytes()]
    with pytest.raises(ValueError, match="already ran"):
        backward(tape, loss)
    assert [p.grad.tobytes(), loss.grad.tobytes()] == grads


def test_backward_frees_each_record_once_it_has_run():
    # the head, recorded last, runs first: its closure and the dh it saved
    # are gone by the time the embedding lookup, recorded first, runs
    rng = np.random.default_rng(2)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape))
    table, init, w, u, b, proj_w, proj_b = (leaf(5, 3), leaf(2, 4), leaf(3, 8), leaf(2, 8),
                                            leaf(8), leaf(2, 5), leaf(5))
    ids = rng.integers(0, 5, (2, 3))
    with Tape() as tape:
        hiddens, _ = lstm_sequence(embedding_lookup(table, ids), init, w, u, b)
        loss, _ = linear_softmax_cross_entropy(reshape(hiddens, (6, 2)), proj_w, proj_b,
                                               ids.reshape(-1), np.ones(6))
    head = tape._records[-1][1]
    saved = dict(zip(head.__code__.co_freevars, (cell.cell_contents for cell in head.__closure__)))
    refs = [weakref.ref(head), weakref.ref(saved["dh"])]
    del head, saved
    lookup_outs, lookup = tape._records[0]
    alive = []

    def checked(gout):
        alive.extend(ref() is not None for ref in refs)
        lookup(gout)

    tape._records[0] = (lookup_outs, checked)
    backward(tape, loss)
    assert alive == [False, False]
    assert len(tape) == 0 and table.grad is not None


def independent_heads(n_heads=6):
    """A tape of n_heads linear_softmax_cross_entropy records over their
    own leaves, each saving a 512 KiB dW, and the sum of their losses."""
    rng = np.random.default_rng(3)
    targets, mask = rng.integers(0, 1024, 8), np.ones(8)
    with Tape() as tape:
        losses = [linear_softmax_cross_entropy(*(Tensor(rng.standard_normal(shape))
                                                 for shape in ((8, 64), (64, 1024), (1024,))),
                                               targets, mask)[0] for _ in range(n_heads)]
        loss = losses[0]
        for other in losses[1:]:
            loss = add(loss, other)
    return tape, loss


def test_backward_peak_falls_by_the_records_it_frees():
    # each head's saved sums go once backward has added them into the
    # grads, so its peak stays near one head's; a caller that holds the
    # records, as every tape did while backward kept them, holds all six
    tape, loss = independent_heads()
    peak = traced_bytes(lambda: backward(tape, loss))[2]
    tape, loss = independent_heads()
    held = list(tape._records)
    peak_held = traced_bytes(lambda: backward(tape, loss))[2]
    assert len(held) == 11 and len(tape) == 0
    assert peak < peak_held / 2


def test_backward_accumulates_reused_tensor(rng):
    x = t64(rng, 2, 2)
    # x used twice: loss = sum(x*x) + sum(x)
    def loss():
        return add(sum_all(mul(x, x)), sum_all(x))

    assert check_gradients(loss, [x]) < 1e-4


def test_backward_zero_fills_unreachable_watched(rng):
    p, q = t64(rng, 2), t64(rng, 2)
    with Tape() as tape:
        tape.watch([p, q])
        loss = sum_all(p)
    backward(tape, loss)
    np.testing.assert_array_equal(q.grad, np.zeros(2))


def test_detach_blocks_gradient(rng):
    x = t64(rng, 3)
    with Tape() as tape:
        tape.watch([x])
        loss = sum_all(mul(detach(x), detach(x)))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_no_tape_records_nothing(rng):
    x = t64(rng, 2, 2)
    out = tanh(matmul(x, x))
    assert out.grad is None
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_composite_chain_matches_finite_differences(rng):
    w1, w2, b = t64(rng, 3, 4), t64(rng, 4, 2), t64(rng, 4)
    x = Tensor(rng.standard_normal((5, 3)))

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


def head_case(rng, n=5, hdim=3, v=6, dtype=np.float64):
    h = Tensor(rng.standard_normal((n, hdim)).astype(dtype))
    w = Tensor(rng.standard_normal((hdim, v)).astype(dtype))
    b = Tensor(rng.standard_normal(v).astype(dtype))
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
def test_linear_cross_entropy_gradient_vs_finite_differences(targets, mask, rng):
    h, w, b = head_case(rng, n=len(targets))
    loss = lambda: linear_softmax_cross_entropy(h, w, b, targets, mask)[0]
    assert check_gradients(loss, [h, w, b]) < 1e-4
    with Tape() as tape:
        out, _ = linear_softmax_cross_entropy(h, w, b, targets, mask)
    backward(tape, out)
    assert np.all(h.grad[mask == 0] == 0)


def test_linear_cross_entropy_matches_composite_gradients(rng):
    targets = np.array([1, 4, 0, 5, 3, 2, 0])
    mask = np.array([1, 1, 0, 1, 0, 1, 1])
    h, w, b = head_case(rng, n=7)
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


def test_linear_cross_entropy_float32_loss_bit_equal_to_composite(rng):
    targets = rng.integers(0, 50, 40)
    mask = (rng.random(40) < 0.7).astype(np.float64)
    mask[:2] = [1.0, 0.0]  # the single-row case is live; the full one has padding
    for rows in (40, 1):
        h, w, b = head_case(rng, n=rows, hdim=16, v=50, dtype=np.float32)
        t, m = targets[:rows], mask[:rows]
        fused, n = linear_softmax_cross_entropy(h, w, b, t, m)
        composite, n_ref = composite_head(h, w, b, t, m)
        assert fused.dtype == np.float32 and n == n_ref
        assert fused.values.tobytes() == composite.values.tobytes()


def test_linear_cross_entropy_errors_match_cross_entropy(rng):
    h, w, b = head_case(rng, n=2)
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
def test_linear_cross_entropy_blocks_match_composite(monkeypatch, budget, rng):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", budget)
    targets = np.array([1, 4, 0, 5, 3, 2, 0, 5, 1, 2])
    mask = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 1])
    h, w, b = head_case(rng, n=10)
    loss = lambda: linear_softmax_cross_entropy(h, w, b, targets, mask)[0]
    assert check_gradients(loss, [h, w, b]) < 1e-4
    la, na, *ga = head_grads(composite_head, h, w, b, targets, mask)
    lf, nf, *gf = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
    assert na == nf == 7
    np.testing.assert_allclose(lf, la, rtol=1e-12)
    for a, f in zip(ga, gf):
        np.testing.assert_allclose(f, a, rtol=1e-10, atol=1e-14)
    assert np.all(gf[0][mask == 0] == 0)


def test_linear_cross_entropy_float32_loss_bit_equal_to_composite_across_blocks(monkeypatch, rng):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 3 * 50 + 49)  # 3 rows per block
    targets = rng.integers(0, 50, 40)
    mask = (rng.random(40) < 0.7).astype(np.float64)
    h, w, b = head_case(rng, n=40, hdim=16, v=50, dtype=np.float32)
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
def test_linear_cross_entropy_same_bits_on_one_and_two_cpus(monkeypatch, budget, rng):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", budget)
    targets = rng.integers(0, 50, 41)
    mask = np.zeros(41)
    mask[rng.permutation(41)[:31]] = 1.0  # an odd number of kept rows
    h, w, b = head_case(rng, n=41, hdim=16, v=50, dtype=np.float32)

    def run():
        loss, n, *grads = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
        assert n == 31
        return [np.float32(loss)] + grads

    assert_same_bits_on_one_and_two_cpus(run)


def test_linear_cross_entropy_all_masked_is_zero(monkeypatch, rng):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 6)
    h, w, b = head_case(rng, n=4)
    loss, n, dh, dw, db = head_grads(linear_softmax_cross_entropy, h, w, b,
                                     np.array([1, 2, 3, 4]), np.zeros(4))
    assert loss == 0 and n == 0
    for g in (dh, dw, db):
        assert not g.any()


def test_linear_cross_entropy_holds_one_block_of_logits(monkeypatch, rng):
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 4096)
    n, v = 512, 256  # N*V is 32 blocks
    h, w, b = head_case(rng, n=n, hdim=8, v=v, dtype=np.float32)
    targets, mask = rng.integers(0, v, n), np.ones(n)

    def step():
        with Tape() as tape:
            out, _ = linear_softmax_cross_entropy(h, w, b, targets, mask)
        backward(tape, out)

    assert peak_traced_bytes(step) < n * v * 4 / 4
    assert h.grad.shape == (n, 8) and w.grad.shape == (8, v)


def test_linear_cross_entropy_without_tape_forms_no_gradient(rng):
    n, hdim, v = 4, 512, 512
    h, w, b = head_case(rng, n=n, hdim=hdim, v=v, dtype=np.float32)
    targets, mask = rng.integers(0, v, n), np.ones(n)
    peak = peak_traced_bytes(lambda: linear_softmax_cross_entropy(h, w, b, targets, mask))
    assert peak < hdim * v * 4 / 4
    assert h.grad is None and w.grad is None


def test_first_gradient_is_copied_not_aliased(rng):
    x = t64(rng, 2, 3)
    with Tape() as tape:
        loss = sum_all(add(x, x))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 3)))

    a, b = t64(rng, 2, 3), t64(rng, 2, 3)
    with Tape() as tape:
        loss = sum_all(add(a, b))
    backward(tape, loss)
    a.grad *= 5.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    assert not np.shares_memory(a.grad, b.grad)


def test_a_fresh_first_gradient_is_kept_and_any_other_copied():
    def first(g, fresh, dtype=np.float32):
        t = Tensor(np.zeros((2, 3), dtype=dtype))
        aem.autograd._accum(t, g, fresh=fresh)
        return t.grad

    g = np.ones((2, 3), dtype=np.float32)
    assert first(g, fresh=True) is g
    copied = [(g, False),  # not fresh
              (np.ones((2, 6), dtype=np.float32)[:, :3], True),  # a view
              (np.asfortranarray(g), True),  # not C-contiguous
              (np.ones((2, 3)), True)]  # float64
    for g, fresh in copied:
        got = first(g, fresh)
        assert got.dtype == np.float32 and not np.shares_memory(got, g)


def test_matmul_of_a_tensor_with_itself_adds_both_gradients(rng):
    # the first product becomes x.grad as it is; the second adds into it
    x = t64(rng, 3, 3)
    assert check_gradients(lambda: sum_all(matmul(x, x)), [x]) < 1e-4


# rows that end before T, and one that runs to T
MIXED_LENGTHS = np.array([3, 2, 4])


def lstm_case(rng, T=4, zero_init=False, B=3, V=5, E=3, H=2):
    table, w, u, b = t64(rng, V, E), t64(rng, E, 4 * H), t64(rng, H, 4 * H), t64(rng, 4 * H)
    init = Tensor(np.zeros((B, 2 * H))) if zero_init else t64(rng, B, 2 * H)
    ids = rng.integers(0, V, (B, T))  # B*T > V, so ids repeat
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
def test_lstm_sequence_gradient_vs_finite_differences(shape, lengths, on, rng):
    case = lstm_case(rng, **shape)
    table, _, init, w, u, b = case
    assert check_gradients(lstm_loss(fused_lstm, case, lengths, on), [table, init, w, u, b]) < 1e-4


@pytest.mark.parametrize("shape, lengths, on", LSTM_CASES)
def test_lstm_sequence_matches_composite_chain(shape, lengths, on, rng):
    case = lstm_case(rng, **shape)
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


def test_lstm_sequence_is_one_record_and_backward_runs_from_either_output(rng):
    case = lstm_case(rng)
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


def test_lstm_sequence_float32_forward_bit_equal_to_composite(rng):
    B, T, V, E, H = 16, 9, 40, 24, 32
    table, w, u, b = (Tensor(rng.uniform(-0.3, 0.3, shape).astype(np.float32))
                      for shape in ((V, E), (E, 4 * H), (H, 4 * H), (4 * H,)))
    ids = rng.integers(0, V, (B, T))
    lengths = rng.integers(1, T + 1, B)
    for init, rows in ((np.zeros((B, 2 * H)), lengths), (rng.normal(size=(B, 2 * H)), None)):
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
def test_lstm_sequence_backward_same_bits_on_one_and_two_cpus(T, lengths, on, rng):
    # odd counts: at T = 7 the gate factors run steps 0-2 and 3-6, at T = 3
    # (fewer than four steps) whole; the forward recurrence and the
    # backward walk run rows 0-1 and 2-4
    B, E, H = 5, 6, 8
    leaves = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(rng.standard_normal(shape).astype(np.float32))
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
def test_lstm_sequence_without_lengths_equals_every_row_ending_at_T(B, E, H, on, rng):
    """An omitted `lengths` reads as every row ending at step T: the
    hiddens, the final state and the gradients of every input are the
    bytes of lengths = T for every row, with and without a gradient on
    the hiddens, on one CPU and on two."""
    T = 5
    leaves = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(rng.standard_normal(shape).astype(np.float32))
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
def test_lstm_sequence_halves_equal_whole(B, H, rng):
    """The forward recurrence and the backward walk over row halves write
    the bytes of the whole pass, at the vocab_bound training shape
    (B = 256, H = 128) and at the default H = 512 with the fewest rows
    the floor splits there (B = 64: halves of 32 rows). This pins the
    row-partition invariance of numpy's BLAS (OpenBLAS in numpy's wheels)
    at these shapes; OpenBLAS picks kernels by shape, so it does not hold
    for every shape."""
    T, E = 5, 64
    leaves = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    wh, wf = (Tensor(rng.standard_normal(shape).astype(np.float32))
              for shape in ((B, T, H), (B, 2 * H)))

    def run(lengths):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            hiddens, final = lstm_sequence(*leaves, lengths)
            loss = add(sum_all(mul(hiddens, wh)), sum_all(mul(final, wf)))
        backward(tape, loss)
        return [hiddens.values, final.values] + [t.grad.copy() for t in leaves]

    for lengths in (None, rng.integers(1, T + 1, B)):
        sizes = assert_halves_equal_whole(lambda: run(lengths))
        assert sizes.count(B * 4 * H) == 2  # the forward and the backward walk


@pytest.mark.parametrize("B", [256, 512])
@pytest.mark.parametrize("T", [1, 9, 40])
def test_lstm_sequence_forward_halves_equal_whole(B, T):
    """A run that splits by rows projects each half's own inputs (x w over
    that half's time-major rows) before its steps: the hiddens and final
    state equal the whole run's bytes at H = 128, E = 64 from one step to
    forty, the vocab_bound and recurrence_bound lengths."""
    E, H = 64, 128
    rng = np.random.default_rng(T)
    leaves = [Tensor(rng.uniform(-0.5, 0.5, shape).astype(np.float32))
              for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,))]
    sizes = assert_halves_equal_whole(lambda: [t.values for t in lstm_sequence(*leaves)])
    assert sizes == [B * 4 * H]


def test_linear_cross_entropy_halves_equal_whole_at_benchmark_shape(rng):
    """A 1398-row block at V = 3000 (one block of the vocab_bound head)
    projects, and forms its loss and gradients, in row halves with the
    bytes of the whole block. This pins the row-partition invariance of
    numpy's BLAS (OpenBLAS in numpy's wheels) at a shape the floor
    admits."""
    n, v = 1398, 3000
    assert aem.autograd._BLOCK_LOGITS // v == n
    targets = rng.integers(0, v, n)
    mask = np.ones(n)
    h, w, b = head_case(rng, n=n, hdim=128, v=v, dtype=np.float32)

    def run():
        loss, _, *grads = head_grads(linear_softmax_cross_entropy, h, w, b, targets, mask)
        return [np.float32(loss)] + grads

    assert n * v in assert_halves_equal_whole(run)


def test_lstm_sequence_shape_errors(rng):
    table, ids, init, w, u, b = lstm_case(rng)
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


def group_case(rng, B, dtype):
    """Three runs as the AEM decoders have them: run 0 has a cell of its
    own, mixed lengths and a loss on both outputs; runs 1 and 2 share one
    cell's weights, and run 2 starts from run 0's initial state, which the
    loss reads as well: three gradients for one tensor, whose float sum
    depends on their order. Runs 1 and 2 put a loss on their hiddens only,
    so their final states get no gradient. Returns (leaves, runs, loss
    weights)."""
    E, H = 6, 8

    def leaf(*shape):
        return Tensor(rng.uniform(-0.5, 0.5, shape).astype(dtype))

    own, shared = [leaf(E, 4 * H), leaf(H, 4 * H), leaf(4 * H)], \
        [leaf(E, 4 * H), leaf(H, 4 * H), leaf(4 * H)]
    inits = [leaf(B, 2 * H), leaf(B, 2 * H)]
    xs = [leaf(B, T, E) for T in (5, 7, 7)]
    lengths = rng.integers(1, 6, B)
    runs = [(xs[0], inits[0], *own, lengths), (xs[1], inits[1], *shared, None),
            (xs[2], inits[0], *shared, None)]
    weights = [leaf(B, T, H) for T in (5, 7, 7)] + [leaf(B, 2 * H), leaf(B, 2 * H)]
    return xs + inits + own + shared, runs, weights


def group_loss(runs, outs, weights):
    """Run 0's final state, every run's hiddens, then run 0's initial state,
    each contracted against fixed weights."""
    loss = sum_all(mul(outs[0][1], weights[3]))
    for (hiddens, _), w in zip(outs, weights[:3]):
        loss = add(loss, sum_all(mul(hiddens, w)))
    return add(loss, sum_all(mul(runs[0][1], weights[4])))


def one_by_one(runs):
    return [lstm_sequence(*run) for run in runs]


def group_outputs_and_grads(runner, leaves, runs, weights):
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        outs = runner(runs)
        loss = group_loss(runs, outs, weights)
    backward(tape, loss)
    return [t.values for out in outs for t in out] + [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("B", [3, 5], ids=["side-by-side", "row-halves"])
def test_lstm_sequences_equal_runs_one_by_one_on_one_and_two_cpus(B, rng):
    """A group writes the outputs and gradients of its runs made one by
    one, byte for byte, on one CPU and on two: with 3 rows the runs go
    side by side (the caller takes run 0, the worker runs 1 and 2); with
    5 rows every run splits by rows, so the runs go one after another."""
    leaves, runs, weights = group_case(rng, B, np.float32)

    def run():
        group = group_outputs_and_grads(lstm_sequences, leaves, runs, weights)
        for got, want in zip(group, group_outputs_and_grads(one_by_one, leaves, runs, weights)):
            assert got.tobytes() == want.tobytes()
        return group

    assert_same_bits_on_one_and_two_cpus(run)


def test_lstm_sequences_side_by_side_under_a_short_switch_interval(rng):
    # both threads switch every microsecond: each run must still read and
    # write only its own arrays, and every gradient is added once
    leaves, runs, weights = group_case(rng, 3, np.float32)
    want = group_outputs_and_grads(one_by_one, leaves, runs, weights)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got, on_worker = run_on_cpus(
                2, lambda: group_outputs_and_grads(lstm_sequences, leaves, runs, weights))
            # the group's forward and backward, then each of the three runs'
            # gate factors and its du/db beside dw/dx
            assert on_worker == [True] * 8
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    finally:
        sys.setswitchinterval(interval)


def test_lstm_sequences_go_side_by_side_only_when_no_run_splits_by_rows():
    """The forward's _both calls, by the elements each covers: one over the
    whole group when its runs go side by side, or one per run that splits
    by rows (B x 4H). The shapes alone decide, whatever the CPU count."""
    E, H = 4, 128
    G = 4 * H

    def both_sizes(*shapes):
        runs = [(Tensor(np.zeros((B, T, E), np.float32)), Tensor(np.zeros((B, 2 * H), np.float32)),
                 Tensor(np.zeros((E, G), np.float32)), Tensor(np.zeros((H, G), np.float32)),
                 Tensor(np.zeros(G, np.float32)), None) for B, T in shapes]
        both, sizes = aem.autograd._both, []

        def counted(first, second, size):
            sizes.append(size)
            return both(first, second, size)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aem.autograd, "_both", counted)
            lstm_sequences(runs)
        return sizes

    assert both_sizes((32, 40), (32, 30)) == [32 * 70 * G]
    assert both_sizes((32, 40), (32, 30), (32, 30)) == [32 * 100 * G]
    assert both_sizes((256, 8), (256, 8)) == [256 * G] * 2
    assert both_sizes((32, 40), (256, 8)) == [256 * G]
    assert both_sizes((32, 40)) == []


def test_lstm_sequences_gradient_vs_finite_differences_and_single_calls(rng):
    leaves, runs, weights = group_case(rng, 3, np.float64)
    runs = runs[1:]  # the two runs sharing one cell
    weights = [weights[1], weights[2], None, weights[3], weights[4]]
    leaves = [t for t in leaves if any(t is part for run in runs for part in run[:5])]
    single = group_outputs_and_grads(one_by_one, leaves, runs, weights)
    group = group_outputs_and_grads(lstm_sequences, leaves, runs, weights)
    for got, want in zip(group, single):
        np.testing.assert_array_equal(got, want)
    loss = lambda: group_loss(runs, lstm_sequences(runs), weights)
    assert check_gradients(loss, leaves) < 1e-4


def test_lstm_sequences_is_one_record(rng):
    leaves, runs, weights = group_case(rng, 3, np.float64)
    with Tape() as tape:
        outs = lstm_sequences(runs)
    assert len(tape) == 1 and len(outs) == 3
    for out, run in zip(outs, runs):
        want = lstm_sequence(*run)
        assert [t.values.tobytes() for t in out] == [t.values.tobytes() for t in want]


@pytest.mark.parametrize("split_min", [aem.autograd._SPLIT_MIN, 0], ids=["whole", "halves"])
def test_lstm_sequence_record_keeps_only_what_backward_cannot_rebuild(split_min, monkeypatch):
    # the gates, the c states and the two outputs stay; the time-major
    # previous hiddens, tanh(c') and inputs (44, 40 and 20 KiB here) are
    # rebuilt by backward
    B, T, E, H = 16, 10, 32, 64
    rng = np.random.default_rng(0)
    x, state, w, u, b = (Tensor(rng.standard_normal(shape).astype(np.float32))
                         for shape in ((B, T, E), (B, 2 * H), (E, 4 * H), (H, 4 * H), (4 * H,)))
    monkeypatch.setattr(aem.autograd, "_SPLIT_MIN", split_min)
    lstm_sequence(x, state, w, u, b)  # starts the worker thread where the halves use it

    with Tape() as tape:
        _, held, _ = traced_bytes(lambda: lstm_sequence(x, state, w, u, b))
    assert len(tape) == 1
    kept = 4 * (T * B * 4 * H + (T + 1) * B * H + B * T * H + B * 2 * H)
    assert held <= kept + 8 * 1024
    assert held > kept


def test_lstm_sequences_backward_skips_a_run_the_loss_never_reaches(rng):
    # as on a tape of one record per run, whose backward skips a record
    # with no output gradient: the run's inputs get no gradient at all
    _, runs, _ = group_case(rng, 3, np.float64)
    with Tape() as tape:
        outs = lstm_sequences(runs[:2])
        loss = sum_all(outs[1][0])
    backward(tape, loss)
    assert all(t.grad is None for t in runs[0][:5])
    assert all(t.grad is not None for t in runs[1][:5])


def attention_case(B=3, T=4, S=5, H=3, dtype=np.float64, seed=0):
    """Inputs and weights drawn from a generator of their own, seeded by
    `seed`, so a case does not hang on what other tests drew."""
    rng = np.random.default_rng(seed)
    hiddens, states, w_a, w_c = (Tensor(rng.standard_normal(shape).astype(dtype))
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


def test_attention_sequence_float32_forward_bit_equal_to_composite(rng):
    for B, T, S in ((16, 9, 11), (4, 1, 6), (4, 5, 1)):
        hiddens, states, w_a, w_c = attention_case(B, T, S, H=32, dtype=np.float32)
        mask = (np.arange(S) < rng.integers(1, S + 1, B)[:, None]).astype(np.float32)
        fused = fused_attention(hiddens, states, mask, w_a, w_c)
        ref = composite_attention(hiddens, states, mask, w_a, w_c)
        assert fused.dtype == np.float32
        assert fused.values.tobytes() == ref.values.tobytes()


def test_attention_sequence_is_one_record():
    hiddens, states, w_a, w_c = attention_case()
    with Tape() as tape:
        fused_attention(hiddens, states, PADDED_SOURCE, w_a, w_c)
    assert len(tape) == 1


def test_attention_sequence_record_keeps_no_joined_rows():
    # proj, the weights, the context rows and the output stay; backward
    # rebuilds [context; hiddens], a (B*T, 2H) array of 48 KiB here
    B, T, S, H = 8, 12, 10, 64
    hiddens, states, w_a, w_c = attention_case(B, T, S, H, dtype=np.float32)
    mask = AttentionMask(np.ones((B, S)), (B, S), np.float32)
    with Tape() as tape:
        _, held, _ = traced_bytes(lambda: attention_sequence(hiddens, states, mask, w_a, w_c))
    assert len(tape) == 1
    kept = 4 * (3 * B * T * H + B * T * S)
    assert kept < held <= kept + 8 * 1024


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


def test_both_called_on_the_worker_runs_its_second_there_after_its_first():
    # an LSTM run that its group put on the worker splits its own backward
    # passes: that _both must not wait on the worker's queue, where its
    # `second` sits behind the thunk that called it. Run in a child
    # process, so that a deadlock fails at the timeout instead of hanging
    out = run_python(
        "import threading, time, aem.autograd as ag\n"
        "ag._cpus = lambda: 2\n"
        "ag._SPLIT_MIN = 0\n"
        "seen, started = [], threading.Event()\n"
        "def note(name):\n"
        "    seen.append(name + ':' + threading.current_thread().name)\n"
        "    return name\n"
        "def outer_second():\n"
        "    started.set()\n"
        "    start = time.perf_counter()\n"
        "    inner = ag._both(lambda: note('first'), lambda: note('second'), 0)\n"
        "    return inner, time.perf_counter() - start < 1\n"
        "outer, (inner, at_once) = ag._both(lambda: started.wait(10), outer_second, 0)\n"
        "print(outer, *inner, at_once, *seen)")
    assert out == ["True", "first", "second", "True",
                   "first:aem-autograd_0", "second:aem-autograd_0"]


def test_both_lets_go_of_the_worker_thunk_before_the_caller_sees_its_result(monkeypatch):
    # the worker pauses after setting each result, as on a busy host: the
    # arrays `second` holds must already be free when _both returns
    monkeypatch.setattr(aem.autograd, "_cpus", lambda: 2)
    both, split = aem.autograd._both, aem.autograd._SPLIT_MIN
    both(lambda: None, lambda: None, split)  # makes sure the worker exists
    pid, executor = aem.autograd._WORKER

    class Pausing:
        def submit(self, fn):
            future = executor.submit(fn)
            future.add_done_callback(lambda _: time.sleep(0.2))
            return future

    monkeypatch.setattr(aem.autograd, "_WORKER", (pid, Pausing()))
    started = threading.Event()

    def thunk():
        data = np.ones(4)
        return weakref.ref(data), lambda: started.set() or data.size

    ref, second = thunk()
    assert both(lambda: started.wait(10), second, split) == (True, 4)
    del second
    assert ref() is None


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
