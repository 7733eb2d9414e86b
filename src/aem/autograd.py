"""Minimal reverse-mode differentiation on numpy arrays.

Ops record onto the innermost active Tape (a `with Tape() as tape:`
block); outside any tape they just compute values, which is the
inference path. Backward replays the tape in reverse recording order
and accumulates into `.grad`, never overwriting, so a tensor used
twice collects both contributions. It takes each record off the tape as
it runs it, so the record's closure and the forward arrays it saved are
freed once backward has passed them (unless the caller still holds
them), and it runs a tape once: the tape is empty when it returns.

Training runs in float32; gradient-check tests build float64 graphs.
Ops never broadcast except where stated (add_bias, lerp_mask).

The model runs three fused ops: `lstm_sequences` runs one or more
independent LSTM sequences as one record (the one recurrence for every
LSTM; an encoder reads each row's final state at its length, and
`lstm_sequence` is a group of one), `attention_sequence` runs Luong
attention over every decoder step given to it (a whole teacher-forced
target, or one greedy step), and `linear_softmax_cross_entropy` is the
training output head. The composite ops they replace (matmul, add_bias,
slice_cols, sigmoid, tanh, mul, stack_steps, concat_cols, batched_dot,
masked_softmax, attend, ...) stay for the rest of the model, for the
release gate, and as the reference the fused ops are tested against;
lerp_mask, which the model no longer runs, stays for the last two.

A fused record keeps, from its forward until its backward, only what
backward cannot rebuild without a matrix product (the cheap end of Chen
et al. 2016's recomputation). An LSTM run keeps its gate activations,
its c states and the hiddens it returned; backward rebuilds tanh(c'),
the time-major previous hiddens and the time-major inputs. An attention
record keeps its projected hiddens, softmax weights and context rows;
backward rebuilds [context; hiddens]. Each rebuild is the forward's own
float32 operation on the same values, so the gradients keep their
bytes, and a rebuilt array lives only while its record's backward runs.

Row-independent passes use a second CPU through one worker thread (see
`_both`), which the first pass that splits starts when the process may
run on more than one CPU. A pass runs as two row halves when its shape
says it pays for it (`_halves`): at least _SPLIT_MIN elements per step
and four rows. That covers B x 4H gate values for each step of an
LSTM run's forward recurrence (each half projecting its own rows'
inputs, x w, before its steps) and of its backward walk, rows x V
logits for each `linear_softmax_cross_entropy` block (its projection,
bias, shift, exp, loss and (P - onehot) passes) and a greedy reply's
B x V logits, whose rows split once for every token of the reply: each
half drives `_lstm_steps` and `_attention_forward` for its own rows
(`layers.greedy_decode`); the elementwise gate factors of an LSTM run's
backward split the same way over halves of the steps (T x B x 4H values,
four steps or more). Below the floor the pass runs whole; on one CPU its
halves run one after the other in the caller. Two pairs of unlike work
are only placed by `_both`: du and db beside dw and dx in an LSTM run's
backward, and under a tape each head block's dh and db beside dw. The
third kind of split is whole items side by side, the first ones, about
half the size, in the caller and the rest on the worker (`_in_two`):
`optim.Adam.step` and `optim.clip_grad_norm` do it with a store's
parameters, for the update, for the sums of squares and for the scaling,
when the store holds at least _SPLIT_MIN values, and `lstm_sequences`
with independent LSTM runs when none of them splits by rows, then adds
their gradients in the caller in the order of one record per run. A run
splits its own passes by the rules above whether it sits beside another
or not; one already on the worker runs both parts of each of its splits
there, one after the other (see `_both`). `embedding_lookup` backward,
which stays whole, is one 1-D `np.add.at` over the flat table. Each
side does the same arithmetic on its own rows, steps, runs or
parameters and every sum keeps its order, so outputs do not depend on
the CPU count. Whether they equal an unsplit run's depends on the BLAS:
OpenBLAS picks its kernel by shape, and a product over row halves can
differ from the whole product in the last bits. The tests pin halves ==
whole for numpy's OpenBLAS at the benchmark shapes and at the default
hidden size. Each BLAS call still runs with the threads that the
caller's *_NUM_THREADS give it.
"""

from __future__ import annotations

import os

import numpy as np


class Tensor:
    """Dense real array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.values.shape}, dtype={self.values.dtype})"


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of ops for one backward pass."""

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], callable]] = []
        self._produced: set[int] = set()
        self._watched: list[Tensor] = []
        self._ran = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self

    def record(self, out, backward_fn) -> None:
        """`out` is one Tensor, or a tuple of them for an op with several
        outputs; backward_fn then takes one gradient per output, None for
        an output the loss never reached."""
        outs = out if isinstance(out, tuple) else (out,)
        self._records.append((outs, backward_fn))
        self._produced.update(id(t) for t in outs)

    def watch(self, tensors) -> None:
        """Leaves that must end up with a grad even if the loss never reaches them."""
        self._watched.extend(tensors)

    def __len__(self) -> int:
        return len(self._records)


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _record(out: Tensor, backward_fn) -> None:
    tape = active_tape()
    if tape is not None:
        tape.record(out, backward_fn)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    # the first contribution is copied: ops hand the same array (or views
    # of gout) to several inputs. An array an op made for `t` alone
    # (fresh=True) becomes the gradient itself when it owns its memory and
    # has `t`'s dtype, shape and C layout
    if t.grad is None:
        if (fresh and g.base is None and g.dtype == t.values.dtype
                and g.shape == t.values.shape and g.flags.c_contiguous):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.values.dtype)
    else:
        t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of everything reachable from `loss`; watched leaves
    that stay unreachable get zero grads.

    Each record is popped off the tape before it runs, so its closure,
    and the forward arrays and output tensors that only it held, are
    freed before the next one runs; the tape is empty once backward has
    returned or raised. A tape runs backward once: a second call raises
    ValueError and leaves every gradient as it was."""
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if tape._ran:
        raise ValueError("backward already ran this tape")
    if id(loss) not in tape._produced:
        raise ValueError("loss was not produced on this tape")
    tape._ran = True
    _accum(loss, np.ones_like(loss.values))
    records = tape._records
    try:
        while records:
            # rebinding outs and backward_fn drops the previous record before this one runs
            outs, backward_fn = records.pop()
            grads = [t.grad for t in outs]
            if any(g is not None for g in grads):
                backward_fn(*grads)
    finally:
        records.clear()
    for t in tape._watched:
        if t.grad is None:
            t.grad = np.zeros_like(t.values)


def detach(x: Tensor) -> Tensor:
    """Same values, no backward link."""
    return Tensor(x.values)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the fewest array elements a split must cover to pay for waking the
# worker: on a 2-CPU host a float32 lstm_sequence forward and backward
# over 65536 gate values took 28% longer split, over 262144 5-10% less
_SPLIT_MIN = 1 << 17
_WORKER = None  # (pid, one-thread executor), made by the first _both that needs it


def _both(first, second, size):
    """(first(), second()): `second` runs on the worker thread while the
    caller runs `first`, or in the caller after `first` when the process
    may use one CPU, when the thunks cover fewer than _SPLIT_MIN elements
    (`size`), or when the worker has not started `second` by the time
    `first` returns. Returns, or raises either one's exception, only once
    neither thunk still runs, so neither writes into the caller's arrays
    afterwards, and `second`, with the arrays its closure holds, is
    already dropped wherever it ran. Thunks record nothing on a tape.
    A thunk already running on the worker may call _both again: the
    worker is busy with that thunk, so the inner `second` has not started
    when the inner `first` returns, and by the rule above it runs there
    after `first`, never waiting on the worker's queue."""
    global _WORKER
    if size < _SPLIT_MIN or _cpus() < 2:
        return first(), second()
    # a forked child inherits the executor but not its thread
    if _WORKER is None or _WORKER[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _WORKER = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="aem-autograd"))
    # the worker keeps the callable it ran until after the caller sees its
    # result, so it gets one that pops `second` before running it
    held = [second]
    del second
    future = _WORKER[1].submit(lambda: held.pop()())
    try:
        a = first()
    except BaseException:
        if future.cancel():
            held.clear()
        else:
            future.exception()  # waits for second; the first error is the one raised
        raise
    # a worker that has not started (its CPU busy with other work) is not
    # waited for
    if future.cancel():
        return a, held.pop()()
    return a, future.result()


def _splits(n, size):
    """Whether a pass over n rows covering `size` elements runs as two row
    halves: at least _SPLIT_MIN elements and four rows."""
    return n >= 4 and size >= _SPLIT_MIN


def _in_two(fn, items, sizes):
    """(fn(items[:k]), fn(items[k:])) through _both: whole items, the
    first k in the caller and the rest on the worker, k as near half the
    sum of `sizes` (one per item) as whole items allow, and at least one
    item on each side when there are two or more. The one rule for
    splitting a list of whole items: LSTM runs, and the parameters of
    Adam and gradient clipping."""
    total = sum(sizes)
    k = min(range(1, len(items)), key=lambda k: abs(total - 2 * sum(sizes[:k])),
            default=len(items))
    return _both(lambda: fn(items[:k]), lambda: fn(items[k:]), total)


def _halves(body, n, size):
    """Runs body(rows) over slice(0, n // 2) and slice(n // 2, n) through
    _both when n rows covering `size` elements pay for a split, else
    body(slice(0, n)) once. The shape decides, never the CPU count; on one
    CPU the halves run one after the other in the caller. Each half gets
    two rows or more, since numpy runs a one-row product through gemv,
    whose sums differ from the whole product's gemm."""
    if not _splits(n, size):
        body(slice(0, n))
        return
    half = n // 2
    _both(lambda: body(slice(0, half)), lambda: body(slice(half, n)), size)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.values.shape} x {b.values.shape}")
    out = Tensor(a.values @ b.values)

    def back(gout):
        _accum(a, gout @ b.values.T, fresh=True)
        _accum(b, a.values.T @ gout, fresh=True)

    _record(out, back)
    return out


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.values.shape != b.values.shape:
        raise ValueError(f"{op} shape mismatch: {a.values.shape} vs {b.values.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    out = Tensor(a.values + b.values)

    def back(gout):
        _accum(a, gout)
        _accum(b, gout)

    _record(out, back)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    out = Tensor(a.values - b.values)

    def back(gout):
        _accum(a, gout)
        _accum(b, -gout)

    _record(out, back)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    out = Tensor(a.values * b.values)

    def back(gout):
        _accum(a, gout * b.values)
        _accum(b, gout * a.values)

    _record(out, back)
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias: (N, D) + (D,). The one sanctioned broadcast."""
    if x.values.ndim != 2 or b.values.shape != (x.values.shape[1],):
        raise ValueError(f"add_bias shape mismatch: {x.values.shape} + {b.values.shape}")
    out = Tensor(x.values + b.values)

    def back(gout):
        _accum(x, gout)
        _accum(b, gout.sum(axis=0), fresh=True)

    _record(out, back)
    return out


def scale(x: Tensor, k: float) -> Tensor:
    out = Tensor(x.values * k)

    def back(gout):
        _accum(x, gout * k)

    _record(out, back)
    return out


def sigmoid(x: Tensor) -> Tensor:
    # tanh form is stable for large |x| in both directions
    out = Tensor(0.5 * (np.tanh(x.values * 0.5) + 1.0))

    def back(gout):
        s = out.values
        _accum(x, gout * s * (1.0 - s))

    _record(out, back)
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.values))

    def back(gout):
        _accum(x, gout * (1.0 - out.values * out.values))

    _record(out, back)
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """(N, Da) ++ (N, Db) -> (N, Da+Db)."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[0] != b.values.shape[0]:
        raise ValueError(f"concat_cols shape mismatch: {a.values.shape} vs {b.values.shape}")
    na = a.values.shape[1]
    out = Tensor(np.concatenate([a.values, b.values], axis=1))

    def back(gout):
        _accum(a, gout[:, :na])
        _accum(b, gout[:, na:])

    _record(out, back)
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.values.ndim != 2 or not (0 <= start < stop <= x.values.shape[1]):
        raise ValueError(f"slice_cols [{start}:{stop}] invalid for shape {x.values.shape}")
    out = Tensor(x.values[:, start:stop].copy())

    def back(gout):
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        x.grad[:, start:stop] += gout

    _record(out, back)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.values.reshape(shape))

    def back(gout):
        _accum(x, gout.reshape(x.values.shape))

    _record(out, back)
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of (V, E) by integer ids; grads accumulate only into
    the looked-up rows."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise ValueError(f"embedding id out of range for table with {table.values.shape[0]} rows")
    out = Tensor(table.values[ids])

    def back(gout):
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        # one 1-D scatter over the flat table: the adds of a row scatter,
        # in the same order, at a fraction of its cost. Only a C-contiguous
        # gradient flattens to a view; any other would take them in a copy
        if not table.grad.flags.c_contiguous:
            raise ValueError("embedding_lookup needs a C-contiguous table gradient, "
                             f"got strides {table.grad.strides}")
        E = table.values.shape[1]
        np.add.at(table.grad.reshape(-1), (ids[..., None] * E + np.arange(E)).reshape(-1),
                  gout.reshape(-1))

    _record(out, back)
    return out


def stack_steps(steps: list[Tensor]) -> Tensor:
    """T tensors of (B, H) -> (B, T, H)."""
    out = Tensor(np.stack([s.values for s in steps], axis=1))

    def back(gout):
        for t, s in enumerate(steps):
            _accum(s, gout[:, t, :])

    _record(out, back)
    return out


def lerp_mask(new: Tensor, prev: Tensor, keep: np.ndarray) -> Tensor:
    """keep*new + (1-keep)*prev with a constant (B, 1) column: carried
    through padded steps, the composite reference for a final state read
    at each row's length."""
    _check_same_shape("lerp_mask", new, prev)
    keep = np.asarray(keep, dtype=new.values.dtype)
    out = Tensor(keep * new.values + (1.0 - keep) * prev.values)

    def back(gout):
        _accum(new, gout * keep)
        _accum(prev, gout * (1.0 - keep))

    _record(out, back)
    return out


def lstm_sequence(x: Tensor, state: Tensor, w: Tensor, u: Tensor, b: Tensor,
                  lengths: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """An LSTM over a whole sequence as one op: (B, T, E) inputs, initial
    [h; c] state (B, 2H), weights w (E, 4H), u (H, 4H) and bias b (4H,),
    the gate axis ordered [input, forget, cell candidate, output].

    Step t computes pre = (x_t w + h u) + b, c' = f*c + i*g and
    h' = o*tanh(c'), with sigmoid i, f, o and tanh g. Every row runs all T
    steps. Returns the hiddens (B, T, H) and the final [h; c], read after
    step T or, given (B,) `lengths` in 1..T, after step lengths[r] for row
    r; the hiddens past a row's length are the recurrence over whatever
    inputs sit there. In float32 both equal the composite chain of matmul,
    add, add_bias, slice_cols, sigmoid, tanh, mul, stack_steps and
    concat_cols.

    x w is one time-major (T*B, E) x (E, 4H) matmul, or one over each row
    half's own rows when the steps split, let go once the steps are done.
    Backward runs when either output has a gradient: it walks the steps in
    reverse to fill the preactivation gradient of every step, adding the
    final state's gradient at each row's last step (step T for every row
    when lengths is omitted), then forms dw, du, db and dx with one matmul
    or sum each. Each row's recurrence is its own, so the forward steps and
    the backward walk run over two row halves once B x 4H reaches
    _SPLIT_MIN (see _halves). It is lstm_sequences' group of one run.
    """
    return lstm_sequences([(x, state, w, u, b, lengths)])[0]


def lstm_sequences(runs) -> list[tuple[Tensor, Tensor]]:
    """Independent LSTM runs as one op, the one LSTM implementation: each
    of `runs` is lstm_sequence's (x, state, w, u, b, lengths) and each
    result its (hiddens, final [h; c]), in order. Runs may share tensors
    (two decoders of one cell), but none may take another's output.

    Two or more runs of which none splits by rows (fewer than four rows,
    or B x 4H under _SPLIT_MIN) run side by side through _in_two, each
    run whole, for the forward steps and again for backward; any other
    group runs one run after another. Only this function knows about
    groups: a run forms its outputs and gradients the same way in any of
    them, and backward adds every run's gradients in the caller once all
    are formed, the last run's first: the order of a tape of one record
    per run. So outputs and gradients equal each run's group of one, byte
    for byte, whatever the group and the CPU count.

    The record keeps each run's gate activations (T, B, 4H), its c
    states (T + 1, B, H) and the hiddens it returned, beside the inputs
    it was given. Backward rebuilds tanh(c') as tanh of the c states, the
    time-major hiddens that each step read from the initial h and the
    returned hiddens, and the time-major inputs from x, so the record
    holds none of them between forward and backward.
    """
    group = [_Recurrence(*run) for run in runs]
    beside = len(group) > 1 and not any(_splits(r.acts.shape[1], r.acts[0].size) for r in group)
    sizes = [r.acts.size for r in group]

    def each(fn):
        # [fn(i) for every run i], split by _in_two when the runs go side by side
        every = lambda part: [fn(i) for i in part]
        if not beside:
            return every(range(len(group)))
        ours, theirs = _in_two(every, range(len(group)), sizes)
        return ours + theirs

    outs = each(lambda i: group[i].forward())

    def back(*grads):
        def run_back(i):
            g_hiddens, g_final = grads[2 * i], grads[2 * i + 1]
            if g_hiddens is not None or g_final is not None:
                return group[i].backward(g_hiddens, g_final)
            return None

        for r, g in reversed(list(zip(group, each(run_back)))):
            if g is not None:
                r.accumulate(g)

    _record(tuple(t for out in outs for t in out), back)
    return outs


def _lstm_steps(uv, bv, xw, hs, cs, acts, tcs):
    """The forward recurrence over every step of the rows that these
    time-major arrays hold: xw (T, n, 4H) is x w, hs and cs (T + 1, n, H)
    start at the initial state, and acts and tcs take each step's gate
    activations and tanh(c'). A row's recurrence reads only that row."""
    H = uv.shape[0]
    for t in range(xw.shape[0]):
        pre = xw[t] + hs[t] @ uv
        pre += bv
        a = acts[t]
        # sigmoid in its tanh form on every gate, then g is tanh itself
        np.multiply(pre, 0.5, out=a)
        np.tanh(a, out=a)
        a += 1.0
        a *= 0.5
        np.tanh(pre[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
        ct = np.multiply(a[:, H : 2 * H], cs[t], out=cs[t + 1])
        ct += a[:, :H] * a[:, 2 * H : 3 * H]
        np.multiply(a[:, 3 * H :], np.tanh(ct, out=tcs[t]), out=hs[t + 1])


class _Recurrence:
    """One run of lstm_sequences: its tensors and the forward arrays that
    its backward cannot rebuild (see lstm_sequences), the gates `acts` and
    c states `cs` time-major (row t*B + b), so every step reads contiguous
    blocks, and the `hiddens` it returned."""

    __slots__ = ("x", "state", "w", "u", "b", "lengths", "acts", "cs", "hiddens")

    def __init__(self, x, state, w, u, b, lengths):
        xv, uv = x.values, u.values
        H = uv.shape[0]
        if (xv.ndim != 3 or xv.shape[1] == 0 or w.values.shape != (xv.shape[2], 4 * H)
                or uv.shape != (H, 4 * H) or b.values.shape != (4 * H,)
                or state.values.shape != (xv.shape[0], 2 * H)):
            raise ValueError(f"lstm_sequence shape mismatch: x {xv.shape}, state "
                             f"{state.values.shape}, w {w.values.shape}, u {uv.shape}, "
                             f"b {b.values.shape}")
        B, T, _ = xv.shape
        dtype = xv.dtype
        if lengths is not None:
            lengths = np.asarray(lengths)
            if (lengths.shape != (B,) or not np.issubdtype(lengths.dtype, np.integer)
                    or lengths.min() < 1 or lengths.max() > T):
                raise ValueError(f"lstm_sequence lengths must be {B} values in 1..{T}, "
                                 f"got {lengths!r}")
        self.x, self.state, self.w, self.u, self.b, self.lengths = x, state, w, u, b, lengths
        self.acts = np.empty((T, B, 4 * H), dtype=dtype)
        self.cs = np.empty((T + 1, B, H), dtype=dtype)
        self.cs[0] = state.values[:, H:]
        self.hiddens = None

    def _time_major(self, rows=slice(None)):
        """The inputs of batch rows `rows` as a time-major (T * n, E) copy."""
        xv = self.x.values[rows]
        return xv.transpose(1, 0, 2).reshape(-1, xv.shape[2])

    def forward(self) -> tuple[Tensor, Tensor]:
        """Every step; returns (hiddens, final [h; c]), the final state a
        gather only when lengths are given. The time-major hiddens, tanh(c')
        and inputs live only while it runs."""
        T, B, G = self.acts.shape
        H = G // 4
        uv, bv, wv, cs = self.u.values, self.b.values, self.w.values, self.cs
        hs = np.empty((T + 1, B, H), dtype=cs.dtype)
        hs[0] = self.state.values[:, :H]
        arrays = (hs, cs, self.acts, np.empty((T, B, H), dtype=cs.dtype))

        def half(rows):
            # x w over this half's own rows, time-major
            xw = (self._time_major(rows) @ wv).reshape(T, -1, G)
            _lstm_steps(uv, bv, xw, *(a[:, rows] for a in arrays))

        _halves(half, B, B * G)
        self.hiddens = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
        last = (T, slice(None)) if self.lengths is None else (self.lengths, np.arange(B))
        return Tensor(self.hiddens), Tensor(np.concatenate([hs[last], cs[last]], axis=1))

    def backward(self, g_hiddens, g_final):
        """The gradients of state, w, u, b and x, for `accumulate`, formed
        the same way in any group: the gate factors split over halves of
        the steps, the walk over row halves, and du and db run beside dw
        and dx (_halves, _both)."""
        acts, cs, lengths = self.acts, self.cs, self.lengths
        T, B, G = acts.shape
        H = G // 4
        dtype = acts.dtype
        # dpre = [dc', dc', dc', dh'] * fac, step by step in place
        dpre = np.empty((T, B, 4, H), dtype=dtype)
        dc_per_dh = np.empty((T, B, H), dtype=dtype)

        def factors(steps):
            i, f, g, o = (acts[steps, :, n * H : (n + 1) * H] for n in range(4))
            tc, d = np.tanh(cs[1:][steps]), dpre[steps]
            d[:, :, 0] = g * i * (1.0 - i)
            d[:, :, 1] = cs[:-1][steps] * f * (1.0 - f)
            d[:, :, 2] = i * (1.0 - g * g)
            d[:, :, 3] = tc * o * (1.0 - o)
            dc_per_dh[steps] = o * (1.0 - tc * tc)

        _halves(factors, T, dpre.size)
        f = acts[:, :, H : 2 * H]
        g_steps = None if g_hiddens is None else g_hiddens.transpose(1, 0, 2)
        ut = np.ascontiguousarray(self.u.values.T)
        dstate = np.empty((B, 2 * H), dtype=dtype)

        def walk(rows):
            # the steps in reverse for batch rows `rows`, each on its own dh and dc
            n = dstate[rows].shape[0]
            dh, dc = np.zeros((n, H), dtype=dtype), np.zeros((n, H), dtype=dtype)
            ends = {}  # step index -> rows whose final state is read after it
            if g_final is not None:
                g_rows = g_final[rows]
                lens = np.full(n, T) if lengths is None else lengths[rows]
                ends = {k - 1: np.flatnonzero(lens == k) for k in np.unique(lens)}
            gs = None if g_steps is None else g_steps[:, rows]
            per_dh, dp, fr = dc_per_dh[:, rows], dpre[:, rows], f[:, rows]
            for t in range(T - 1, -1, -1):
                if gs is not None:
                    dh = dh + gs[t]
                last = ends.get(t)
                if last is not None:
                    dh[last] += g_rows[last, :H]
                    dc[last] += g_rows[last, H:]
                dc = dc + dh * per_dh[t]
                d = dp[t]
                d[:, :3] *= dc[:, None, :]
                d[:, 3] *= dh
                dh = d.reshape(n, 4 * H) @ ut
                dc = dc * fr[t]
            dstate[rows, :H], dstate[rows, H:] = dh, dc

        _halves(walk, B, B * G)
        flat = dpre.reshape(T * B, G)
        wv = self.w.values

        def du_db():
            # the time-major hiddens each step read: the initial h, then all but the last
            hs = np.empty((T, B, H), dtype=dtype)
            hs[0] = self.state.values[:, :H]
            hs[1:] = self.hiddens[:, :-1].transpose(1, 0, 2)
            return hs.reshape(T * B, H).T @ flat, flat.sum(axis=0)

        dw_dx = lambda: (self._time_major().T @ flat, flat @ wv.T)
        (du, db), (dw, dx) = _both(du_db, dw_dx, flat.size)
        return dstate, dw, du, db, dx.reshape(T, B, wv.shape[0]).transpose(1, 0, 2)

    def accumulate(self, grads) -> None:
        for t, g in zip((self.state, self.w, self.u, self.b, self.x), grads):
            _accum(t, g, fresh=True)


def batched_dot(q: Tensor, states: Tensor) -> Tensor:
    """(B, H) against (B, T, H) -> per-position scores (B, T)."""
    out = Tensor(np.einsum("bh,bth->bt", q.values, states.values))

    def back(gout):
        _accum(q, np.einsum("bt,bth->bh", gout, states.values))
        _accum(states, np.einsum("bt,bh->bth", gout, q.values))

    _record(out, back)
    return out


def attend(weights: Tensor, states: Tensor) -> Tensor:
    """Convex combination of (B, T, H) states by (B, T) weights -> (B, H)."""
    out = Tensor(np.einsum("bt,bth->bh", weights.values, states.values))

    def back(gout):
        _accum(weights, np.einsum("bh,bth->bt", gout, states.values))
        _accum(states, np.einsum("bt,bh->bth", weights.values, gout))

    _record(out, back)
    return out


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over axis 1 restricted to mask==1 positions; masked
    positions get weight exactly 0. Rejects fully masked rows."""
    mask = np.asarray(mask, dtype=scores.values.dtype)
    if mask.shape != scores.values.shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {scores.values.shape}")
    if np.any(mask.sum(axis=1) == 0):
        raise ValueError("masked_softmax: a row has no unmasked positions")
    neg = np.where(mask > 0, scores.values, -np.inf)
    m = neg.max(axis=1, keepdims=True)
    e = np.exp(neg - m)
    e = np.where(mask > 0, e, 0.0).astype(scores.values.dtype)
    out = Tensor(e / e.sum(axis=1, keepdims=True))

    def back(gout):
        w = out.values
        inner = (gout * w).sum(axis=1, keepdims=True)
        _accum(scores, (gout - inner) * w)

    _record(out, back)
    return out


class AttentionMask:
    """A (B, S) encoder mask converted to `dtype` and checked once against
    `positions` (B, S), the form attention_sequence takes: greedy
    decoding, which attends over the same encoder states once per token,
    pays for both once per reply."""

    __slots__ = ("positions", "keep")

    def __init__(self, mask: np.ndarray, positions: tuple[int, int], dtype):
        mask = np.asarray(mask, dtype=dtype)
        if mask.shape != positions:
            raise ValueError(f"mask shape {mask.shape} != states positions {positions}")
        if np.any(mask.sum(axis=1) == 0):
            raise ValueError("attention_sequence: a row has no unmasked positions")
        self.positions = positions
        self.keep = mask[:, None, :] > 0


def _attention_forward(hv, sv, keep, wa, wc):
    """attention_sequence's forward on arrays, the one copy of its math:
    (proj, weights, context, tanh([context; hiddens] wc)), the context
    (B*T, H), for (B, T, H) hiddens `hv` against (B, S, H) states `sv`
    under an AttentionMask's (B, 1, S) `keep`. Numpy only, so greedy
    decoding runs it for its own rows on either CPU."""
    B, T, H = hv.shape
    flat = hv.reshape(B * T, H)
    proj = (flat @ wa).reshape(B, T, H)
    # einsum, not matmul, for the forward: it sums in the composite ops' order
    scores = np.einsum("bth,bsh->bts", proj, sv)
    neg = np.where(keep, scores, -np.inf)
    e = np.exp(neg - neg.max(axis=2, keepdims=True))
    e = np.where(keep, e, 0.0).astype(hv.dtype)
    weights = e / e.sum(axis=2, keepdims=True)
    context = np.einsum("bts,bsh->bth", weights, sv).reshape(B * T, H)
    joined = np.concatenate([context, flat], axis=1)
    return proj, weights, context, np.tanh(joined @ wc)


def attention_sequence(hiddens: Tensor, states: Tensor, mask: AttentionMask,
                       w_a: Tensor, w_c: Tensor) -> Tensor:
    """Luong general-score attention for every decoder step as one op:
    (B, T, H) decoder hiddens against (B, S, H) encoder states with their
    checked (B, S) mask, weights w_a (H, H) and w_c (2H, H).

    Step t scores s_t = (h_t w_a) . states, takes the masked softmax over
    positions, the context c_t = sum of weighted states, and returns
    tanh([c_t; h_t] w_c) as row b*T + t of a (B*T, H) output. In float32
    that equals the per-step chain of slice_cols, matmul, batched_dot,
    masked_softmax, attend, concat_cols, matmul and tanh. Teacher forcing
    calls it over all target steps; greedy decoding runs only its forward,
    _attention_forward, once per token with no record.

    Backward forms dw_a and dw_c with one matmul each, the score and
    context gradients with batched matmuls, and accumulates into the
    encoder states once. The record keeps the projected hiddens h w_a,
    the weights and the (B*T, H) context rows; backward concatenates
    [context; hiddens] again for dw_c, so no (B*T, 2H) array is held
    between forward and backward. The projection stays: rebuilding it
    would cost a matmul.
    """
    hv, sv = hiddens.values, states.values
    if (hv.ndim != 3 or sv.ndim != 3 or sv.shape[0] != hv.shape[0] or sv.shape[2] != hv.shape[2]
            or sv.shape[1] == 0 or w_a.values.shape != (hv.shape[2],) * 2
            or w_c.values.shape != (2 * hv.shape[2], hv.shape[2])):
        raise ValueError(f"attention_sequence shape mismatch: hiddens {hv.shape}, states "
                         f"{sv.shape}, w_a {w_a.values.shape}, w_c {w_c.values.shape}")
    B, T, H = hv.shape
    if mask.positions != sv.shape[:2]:
        raise ValueError(f"mask shape {mask.positions} != states positions {sv.shape[:2]}")
    flat = hv.reshape(B * T, H)
    proj, weights, context, attended = _attention_forward(hv, sv, mask.keep, w_a.values,
                                                          w_c.values)
    out = Tensor(attended)

    def back(gout):
        dz = gout * (1.0 - out.values * out.values)
        _accum(w_c, np.concatenate([context, flat], axis=1).T @ dz, fresh=True)
        djoined = dz @ w_c.values.T
        dcontext = djoined[:, :H].reshape(B, T, H)
        dweights = np.matmul(dcontext, sv.transpose(0, 2, 1))
        dscores = (dweights - (dweights * weights).sum(axis=2, keepdims=True)) * weights
        dproj = np.matmul(dscores, sv).reshape(B * T, H)
        dstates = np.matmul(weights.transpose(0, 2, 1), dcontext)
        dstates += np.matmul(dscores.transpose(0, 2, 1), proj)
        _accum(states, dstates)
        _accum(w_a, flat.T @ dproj, fresh=True)
        _accum(hiddens, (djoined[:, H:] + dproj @ w_a.values.T).reshape(B, T, H))

    _record(out, back)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.values.sum(), dtype=x.values.dtype))

    def back(gout):
        _accum(x, np.broadcast_to(gout, x.values.shape).copy())

    _record(out, back)
    return out


def _checked_targets(targets, mask, n, v):
    """targets and mask as arrays, each of length n, targets in [0, v)."""
    targets = np.asarray(targets)
    mask = np.asarray(mask)
    if targets.shape != (n,) or mask.shape != (n,):
        raise ValueError(f"targets/mask must be length {n}, got {targets.shape} / {mask.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target index out of range for {v} classes")
    return targets, mask


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
    """Sum over mask==1 rows of -log softmax(logits)[target].

    Returns (loss_sum, n_tokens); callers divide by n_tokens for the
    per-token mean. Backward is (softmax - onehot) on unmasked rows and
    exactly zero on masked rows.
    """
    n, v = logits.values.shape
    targets, mask = _checked_targets(targets, mask, n, v)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    fmask = mask.astype(logits.values.dtype)
    rows = np.arange(n)
    loss = -(logp[rows, targets] * fmask).sum()
    out = Tensor(np.asarray(loss, dtype=logits.values.dtype))

    def back(gout):
        probs = np.exp(logp)
        probs[rows, targets] -= 1.0
        probs *= fmask[:, None]
        _accum(logits, probs * gout)

    _record(out, back)
    return out, int(mask.sum())


# the most logits one block of linear_softmax_cross_entropy holds
_BLOCK_LOGITS = 4 * 1024 * 1024


def linear_softmax_cross_entropy(h: Tensor, w: Tensor, b: Tensor, targets: np.ndarray,
                                 mask: np.ndarray) -> tuple[Tensor, int]:
    """softmax_cross_entropy(add_bias(matmul(h, w), b), targets, mask) as
    one op: (N, H) features, (H, V) weights and (V,) bias.

    Only mask != 0 rows are projected, in blocks of max(1, _BLOCK_LOGITS
    // V) rows through one reused (rows, V) buffer, so the op never holds
    more than one block of logits and the (N, V) logits never become a
    Tensor. `exp` runs once per logit. The float32 loss equals the
    composite's bit for bit.

    Under a tape each block turns its softmax P into (P - onehot) * mask
    at once and sums it into dh (exactly zero on masked rows), dw = h^T P
    and db = sum of P rows; backward only scales those sums by the
    upstream gradient. Scaling after the matmuls, and adding dw and db
    block by block, changes the float32 gradients in their last bits
    against scaling P first. Outside a tape the blocks form the loss only.
    """
    if (h.values.ndim != 2 or w.values.ndim != 2 or h.values.shape[1] != w.values.shape[0]
            or b.values.shape != (w.values.shape[1],)):
        raise ValueError(f"linear_softmax_cross_entropy shape mismatch: {h.values.shape} x "
                         f"{w.values.shape} + {b.values.shape}")
    n, v = h.values.shape[0], w.values.shape[1]
    targets, mask = _checked_targets(targets, mask, n, v)
    hv, wv = h.values, w.values
    dtype = hv.dtype
    fmask = mask.astype(dtype)
    rows = np.flatnonzero(mask)
    block = max(1, _BLOCK_LOGITS // v)
    buf = np.empty((min(block, rows.size), v), dtype=dtype)
    grad = active_tape() is not None
    if grad:
        dh, dw, db = np.zeros_like(hv), np.zeros_like(wv), np.zeros(v, dtype=dtype)
    # per-row losses sit at their original positions so the sum runs in
    # the composite's order
    picked = np.zeros(n, dtype=dtype)
    for start in range(0, rows.size, block):
        r = rows[start : start + block]
        hk, z = hv[r], buf[: r.size]

        def softmax_rows(part):
            # rows `part` of the block: projection, bias, shift, exp and
            # loss, then under a tape (softmax - onehot) * mask in place
            # over their exp
            zp, rp = z[part], r[part]
            np.matmul(hk[part], wv, out=zp)
            zp += b.values
            zp -= zp.max(axis=1, keepdims=True)
            kept, tk = np.arange(rp.size), targets[rp]
            target_z = zp[kept, tk]
            e = np.exp(zp, out=zp)
            sums = e.sum(axis=1)
            picked[rp] = target_z - np.log(sums)
            if grad:
                weight = fmask[rp]
                e *= (weight / sums)[:, None]
                e[kept, tk] -= weight

        _halves(softmax_rows, r.size, z.size)
        if grad:
            def dh_db():
                dh[r] = z @ wv.T
                return z.sum(axis=0)

            block_db, block_dw = _both(dh_db, lambda: hk.T @ z, z.size)
            dw += block_dw
            db += block_db
    out = Tensor(np.asarray(-(picked * fmask).sum(), dtype=dtype))

    if grad:
        def back(gout):
            _accum(h, dh * gout, fresh=True)
            _accum(w, dw * gout, fresh=True)
            _accum(b, db * gout, fresh=True)

        _record(out, back)
    return out, int(mask.sum())
