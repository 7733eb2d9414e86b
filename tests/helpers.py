"""Small fixtures shared across test modules."""

import threading
import tracemalloc

import pytest

import aem.autograd
from aem.autograd import (add, add_bias, attend, batched_dot, concat_cols, embedding_lookup,
                          lerp_mask, masked_softmax, matmul, mul, reshape, sigmoid, slice_cols,
                          stack_steps, tanh)
from aem.config import RunConfig
from aem.data import DialoguePair, pairs_to_batch


def tiny_config(**overrides):
    base = dict(hidden_size=4, embed_size=3, vocab_size=7, batch_size=2,
                seed=3, epochs=1)
    base.update(overrides)
    return RunConfig(**base).validate()


class HalfWrite:
    """A file whose write stores half the bytes, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def traced_bytes(fn):
    """(fn(), bytes still allocated once it has returned, peak bytes while
    it ran), both above what was allocated when it started. numpy reports
    its array buffers to tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - base, peak - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def peak_traced_bytes(fn):
    """Peak bytes allocated while fn() runs, above what was allocated when
    it started."""
    return traced_bytes(fn)[2]


def run_on_cpus(n, fn, split_min=0):
    """(fn(), one flag per `second` thunk of autograd._both: whether it ran
    on the worker thread), with _both acting as on an n-CPU host and
    _SPLIT_MIN set to `split_min` (by default every pass splits). With
    n > 1, each `first` of a split starts only once the worker has taken
    `second`, so the two always overlap."""
    both, on_worker = aem.autograd._both, []

    def spied(first, second, size):
        taken = threading.Event()

        def second_where():
            taken.set()
            on_worker.append(threading.current_thread() is not threading.main_thread())
            return second()

        def first_once_taken():
            assert taken.wait(timeout=10)
            return first()

        splits = n > 1 and size >= split_min
        return both(first_once_taken if splits else first, second_where, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aem.autograd, "_cpus", lambda: n)
        mp.setattr(aem.autograd, "_SPLIT_MIN", split_min)
        mp.setattr(aem.autograd, "_both", spied)
        return fn(), on_worker


def assert_same_bits_on_one_and_two_cpus(fn):
    """fn() returns a list of arrays: they must be byte-equal whether
    _both runs its thunks in the caller or splits them with the worker."""
    one, in_caller = run_on_cpus(1, fn)
    two, on_worker = run_on_cpus(2, fn)
    assert in_caller and not any(in_caller)
    assert on_worker and all(on_worker)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_halves_equal_whole(fn):
    """fn() returns a list of arrays: they must be byte-equal whether every
    pass runs whole (_SPLIT_MIN above any size) or the passes that the
    real _SPLIT_MIN admits run as two halves. Returns the sizes of the
    passes that split."""
    both, sizes = aem.autograd._both, []

    def counted(first, second, size):
        if size >= aem.autograd._SPLIT_MIN:
            sizes.append(size)
        return both(first, second, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aem.autograd, "_both", counted)
        halves = fn()
        mp.setattr(aem.autograd, "_SPLIT_MIN", 1 << 62)
        whole = fn()
    assert len(whole) == len(halves)
    for a, b in zip(whole, halves):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return sizes


def toy_pairs():
    return [DialoguePair([4, 5, 6], [6, 4]), DialoguePair([5, 4], [4, 5, 6])]


def toy_batch():
    return pairs_to_batch(toy_pairs())


def composite_lstm_step(x, h, c, w, u, b):
    """One LSTM step as the per-step gate chain that lstm_sequence fuses."""
    H = u.shape[0]
    pre = add_bias(add(matmul(x, w), matmul(h, u)), b)
    i = sigmoid(slice_cols(pre, 0, H))
    f = sigmoid(slice_cols(pre, H, 2 * H))
    g = tanh(slice_cols(pre, 2 * H, 3 * H))
    o = sigmoid(slice_cols(pre, 3 * H, 4 * H))
    c = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c)), c


def composite_lstm(table, ids, init, w, u, b, keep=None):
    """lstm_sequence(embedding_lookup(table, ids), init, w, u, b, keep)
    built from per-step composite ops: (hiddens (B, T, H), final [h; c])."""
    H = u.shape[0]
    h, c = slice_cols(init, 0, H), slice_cols(init, H, 2 * H)
    steps = []
    for t in range(ids.shape[1]):
        h_new, c_new = composite_lstm_step(embedding_lookup(table, ids[:, t]), h, c, w, u, b)
        if keep is None:
            h, c = h_new, c_new
        else:
            h = lerp_mask(h_new, h, keep[:, t : t + 1])
            c = lerp_mask(c_new, c, keep[:, t : t + 1])
        steps.append(h)
    return stack_steps(steps), concat_cols(h, c)


def composite_attention(hiddens, states, mask, w_a, w_c):
    """attention_sequence(hiddens, states, mask, w_a, w_c) built from the
    per-step composite ops: (B*T, H) rows b*T + t."""
    B, T, H = hiddens.shape
    rows = reshape(hiddens, (B, T * H))
    feeds = []
    for t in range(T):
        h = slice_cols(rows, t * H, (t + 1) * H)
        weights = masked_softmax(batched_dot(matmul(h, w_a), states), mask)
        feeds.append(tanh(matmul(concat_cols(attend(weights, states), h), w_c)))
    return reshape(stack_steps(feeds), (B * T, H))
