"""Minimal reverse-mode differentiation on numpy arrays.

Ops record onto the innermost active Tape (a `with Tape() as tape:`
block); outside any tape they just compute values, which is the
inference path. Backward replays the tape in reverse recording order
and accumulates into `.grad`, never overwriting, so a tensor used
twice collects both contributions.

Training runs in float32; gradient-check tests build float64 graphs.
Ops never broadcast except where stated (add_bias, lerp_mask).

Training graphs use three fused ops: `lstm_sequence` runs a whole LSTM
sequence as one record, `attention_sequence` runs teacher-forced Luong
attention over every target step, and `linear_softmax_cross_entropy` is
the output head. The composite ops they replace (matmul, add_bias,
slice_cols, sigmoid, tanh, mul, lerp_mask, stack_steps, concat_cols,
batched_dot, masked_softmax, attend, ...) stay for the rest of the
model, for greedy decoding, which attends one step at a time, for the
release gate, and as the reference the fused ops are tested against.
"""

from __future__ import annotations

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

    def item(self) -> float:
        return float(self.values)

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


def _accum(t: Tensor, g: np.ndarray) -> None:
    # the first contribution is copied, never kept: ops hand the same
    # array (or views of gout) to several inputs
    if t.grad is None:
        t.grad = np.array(g, dtype=t.values.dtype)
    else:
        t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of everything reachable from `loss`; watched leaves
    that stay unreachable get zero grads."""
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if id(loss) not in tape._produced:
        raise ValueError("loss was not produced on this tape")
    _accum(loss, np.ones_like(loss.values))
    for outs, backward_fn in reversed(tape._records):
        grads = [t.grad for t in outs]
        if any(g is not None for g in grads):
            backward_fn(*grads)
    for t in tape._watched:
        if t.grad is None:
            t.grad = np.zeros_like(t.values)


def detach(x: Tensor) -> Tensor:
    """Same values, no backward link."""
    return Tensor(x.values)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.values.shape} x {b.values.shape}")
    out = Tensor(a.values @ b.values)

    def back(gout):
        _accum(a, gout @ b.values.T)
        _accum(b, a.values.T @ gout)

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
        _accum(b, gout.sum(axis=0))

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
        np.add.at(table.grad, ids, gout)

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
    """keep*new + (1-keep)*prev with a constant (B, 1) column; carries the
    previous state through padded timesteps."""
    _check_same_shape("lerp_mask", new, prev)
    keep = np.asarray(keep, dtype=new.values.dtype)
    out = Tensor(keep * new.values + (1.0 - keep) * prev.values)

    def back(gout):
        _accum(new, gout * keep)
        _accum(prev, gout * (1.0 - keep))

    _record(out, back)
    return out


def lstm_sequence(x: Tensor, state: Tensor, w: Tensor, u: Tensor, b: Tensor,
                  keep: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """An LSTM over a whole sequence as one op: (B, T, E) inputs, initial
    [h; c] state (B, 2H), weights w (E, 4H), u (H, 4H) and bias b (4H,),
    the gate axis ordered [input, forget, cell candidate, output].

    Step t computes pre = (x_t w + h u) + b, c' = f*c + i*g and
    h' = o*tanh(c'), with sigmoid i, f, o and tanh g. With a (B, T) keep
    mask the carried state is keep*new + (1-keep)*prev, so padded steps
    pass the state through. Returns the carried hiddens (B, T, H) and the
    final [h; c]; in float32 both equal the composite chain of matmul,
    add, add_bias, slice_cols, sigmoid, tanh, mul, lerp_mask, stack_steps
    and concat_cols.

    x w is one (T*B, E) x (E, 4H) matmul. Backward runs when either
    output has a gradient: it walks the steps in reverse to fill the
    preactivation gradient of every step, then forms dw, du, db and dx
    with one matmul or sum each.
    """
    xv, uv = x.values, u.values
    H = uv.shape[0]
    if (xv.ndim != 3 or xv.shape[1] == 0 or w.values.shape != (xv.shape[2], 4 * H)
            or uv.shape != (H, 4 * H) or b.values.shape != (4 * H,)
            or state.values.shape != (xv.shape[0], 2 * H)):
        raise ValueError(f"lstm_sequence shape mismatch: x {xv.shape}, state "
                         f"{state.values.shape}, w {w.values.shape}, u {uv.shape}, "
                         f"b {b.values.shape}")
    B, T, E = xv.shape
    dtype = xv.dtype
    if keep is not None:
        if np.shape(keep) != (B, T):
            raise ValueError(f"lstm_sequence keep mask must be {(B, T)}, got {np.shape(keep)}")
        keep = np.asarray(keep, dtype=dtype).T[:, :, None]
    # time-major: row t*B + b, so every step reads contiguous blocks
    xs = xv.transpose(1, 0, 2).reshape(T * B, E)
    xw = (xs @ w.values).reshape(T, B, 4 * H)
    acts = np.empty((T, B, 4 * H), dtype=dtype)
    tcs = np.empty((T, B, H), dtype=dtype)
    hs = np.empty((T + 1, B, H), dtype=dtype)
    cs = np.empty((T + 1, B, H), dtype=dtype)
    hs[0], cs[0] = state.values[:, :H], state.values[:, H:]
    for t in range(T):
        pre = xw[t] + hs[t] @ uv
        pre += b.values
        a = acts[t]
        # sigmoid in its tanh form on every gate, then g is tanh itself
        np.multiply(pre, 0.5, out=a)
        np.tanh(a, out=a)
        a += 1.0
        a *= 0.5
        np.tanh(pre[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
        c_new = a[:, H : 2 * H] * cs[t] + a[:, :H] * a[:, 2 * H : 3 * H]
        h_new = a[:, 3 * H :] * np.tanh(c_new, out=tcs[t])
        if keep is None:
            hs[t + 1], cs[t + 1] = h_new, c_new
        else:
            k = keep[t]
            hs[t + 1] = k * h_new + (1.0 - k) * hs[t]
            cs[t + 1] = k * c_new + (1.0 - k) * cs[t]
    hiddens = Tensor(np.ascontiguousarray(hs[1:].transpose(1, 0, 2)))
    final = Tensor(np.concatenate([hs[T], cs[T]], axis=1))

    def back(g_hiddens, g_final):
        i, f, g, o = (acts[:, :, n * H : (n + 1) * H] for n in range(4))
        # dpre = [dc', dc', dc', dh'] * fac, step by step in place
        dpre = np.empty((T, B, 4, H), dtype=dtype)
        dpre[:, :, 0] = g * i * (1.0 - i)
        dpre[:, :, 1] = cs[:-1] * f * (1.0 - f)
        dpre[:, :, 2] = i * (1.0 - g * g)
        dpre[:, :, 3] = tcs * o * (1.0 - o)
        dc_per_dh = o * (1.0 - tcs * tcs)
        if g_final is None:
            dh, dc = np.zeros((B, H), dtype=dtype), np.zeros((B, H), dtype=dtype)
        else:
            dh, dc = g_final[:, :H], g_final[:, H:]
        g_steps = None if g_hiddens is None else g_hiddens.transpose(1, 0, 2)
        ut = np.ascontiguousarray(uv.T)
        for t in range(T - 1, -1, -1):
            if g_steps is not None:
                dh = dh + g_steps[t]
            if keep is None:
                dh_new, dc_new = dh, dc
            else:
                k = keep[t]
                dh_new, dc_new = dh * k, dc * k
            dc_new = dc_new + dh_new * dc_per_dh[t]
            d = dpre[t]
            d[:, :3] *= dc_new[:, None, :]
            d[:, 3] *= dh_new
            dh_prev = d.reshape(B, 4 * H) @ ut
            dc_prev = dc_new * f[t]
            if keep is not None:
                dh_prev += dh * (1.0 - k)
                dc_prev += dc * (1.0 - k)
            dh, dc = dh_prev, dc_prev
        _accum(state, np.concatenate([dh, dc], axis=1))
        flat = dpre.reshape(T * B, 4 * H)
        _accum(w, xs.T @ flat)
        _accum(u, hs[:-1].reshape(T * B, H).T @ flat)
        _accum(b, flat.sum(axis=0))
        _accum(x, (flat @ w.values.T).reshape(T, B, E).transpose(1, 0, 2))

    _record((hiddens, final), back)
    return hiddens, final


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


def attention_sequence(hiddens: Tensor, states: Tensor, mask: np.ndarray, w_a: Tensor,
                       w_c: Tensor) -> Tensor:
    """Luong general-score attention for every decoder step as one op:
    (B, T, H) decoder hiddens against (B, S, H) encoder states with a
    (B, S) mask, weights w_a (H, H) and w_c (2H, H).

    Step t scores s_t = (h_t w_a) . states, takes the masked softmax over
    positions, the context c_t = sum of weighted states, and returns
    tanh([c_t; h_t] w_c) as row b*T + t of a (B*T, H) output. In float32
    that equals the per-step chain of slice_cols, matmul, batched_dot,
    masked_softmax, attend, concat_cols, matmul and tanh, which greedy
    decoding still runs.

    Backward forms dw_a and dw_c with one matmul each, the score and
    context gradients with batched matmuls, and accumulates into the
    encoder states once.
    """
    hv, sv = hiddens.values, states.values
    if (hv.ndim != 3 or sv.ndim != 3 or sv.shape[0] != hv.shape[0] or sv.shape[2] != hv.shape[2]
            or sv.shape[1] == 0 or w_a.values.shape != (hv.shape[2],) * 2
            or w_c.values.shape != (2 * hv.shape[2], hv.shape[2])):
        raise ValueError(f"attention_sequence shape mismatch: hiddens {hv.shape}, states "
                         f"{sv.shape}, w_a {w_a.values.shape}, w_c {w_c.values.shape}")
    B, T, H = hv.shape
    dtype = hv.dtype
    mask = np.asarray(mask, dtype=dtype)
    if mask.shape != sv.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} != states positions {sv.shape[:2]}")
    if np.any(mask.sum(axis=1) == 0):
        raise ValueError("attention_sequence: a row has no unmasked positions")
    flat = hv.reshape(B * T, H)
    proj = (flat @ w_a.values).reshape(B, T, H)
    # einsum, not matmul, for the forward: it sums in the per-step ops' order
    scores = np.einsum("bth,bsh->bts", proj, sv)
    keep = mask[:, None, :] > 0
    neg = np.where(keep, scores, -np.inf)
    e = np.exp(neg - neg.max(axis=2, keepdims=True))
    e = np.where(keep, e, 0.0).astype(dtype)
    weights = e / e.sum(axis=2, keepdims=True)
    context = np.einsum("bts,bsh->bth", weights, sv)
    joined = np.concatenate([context.reshape(B * T, H), flat], axis=1)
    out = Tensor(np.tanh(joined @ w_c.values))

    def back(gout):
        dz = gout * (1.0 - out.values * out.values)
        _accum(w_c, joined.T @ dz)
        djoined = dz @ w_c.values.T
        dcontext = djoined[:, :H].reshape(B, T, H)
        dweights = np.matmul(dcontext, sv.transpose(0, 2, 1))
        dscores = (dweights - (dweights * weights).sum(axis=2, keepdims=True)) * weights
        dproj = np.matmul(dscores, sv).reshape(B * T, H)
        dstates = np.matmul(weights.transpose(0, 2, 1), dcontext)
        dstates += np.matmul(dscores.transpose(0, 2, 1), proj)
        _accum(states, dstates)
        _accum(w_a, flat.T @ dproj)
        _accum(hiddens, (djoined[:, H:] + dproj @ w_a.values.T).reshape(B, T, H))

    _record(out, back)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.values.sum(), dtype=x.values.dtype))

    def back(gout):
        _accum(x, np.broadcast_to(gout, x.values.shape).copy())

    _record(out, back)
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
    """Sum over mask==1 rows of -log softmax(logits)[target].

    Returns (loss_sum, n_tokens); callers divide by n_tokens for the
    per-token mean. Backward is (softmax - onehot) on unmasked rows and
    exactly zero on masked rows.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask)
    n, v = logits.values.shape
    if targets.shape != (n,) or mask.shape != (n,):
        raise ValueError(f"targets/mask must be length {n}, got {targets.shape} / {mask.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target index out of range for {v} classes")
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


def linear_softmax_cross_entropy(h: Tensor, w: Tensor, b: Tensor, targets: np.ndarray,
                                 mask: np.ndarray) -> tuple[Tensor, int]:
    """softmax_cross_entropy(add_bias(matmul(h, w), b), targets, mask) as
    one op: (N, H) features, (H, V) weights and (V,) bias.

    Only mask != 0 rows are projected, `exp` runs once, and the (N, V)
    logits never become a Tensor; backward writes dh, dw = h^T P and
    db = sum of P rows straight from the kept softmax P, with exactly zero
    dh on masked rows. The float32 forward loss equals the composite's.
    """
    if (h.values.ndim != 2 or w.values.ndim != 2 or h.values.shape[1] != w.values.shape[0]
            or b.values.shape != (w.values.shape[1],)):
        raise ValueError(f"linear_softmax_cross_entropy shape mismatch: {h.values.shape} x "
                         f"{w.values.shape} + {b.values.shape}")
    targets = np.asarray(targets)
    mask = np.asarray(mask)
    n, v = h.values.shape[0], w.values.shape[1]
    if targets.shape != (n,) or mask.shape != (n,):
        raise ValueError(f"targets/mask must be length {n}, got {targets.shape} / {mask.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target index out of range for {v} classes")
    dtype = h.values.dtype
    fmask = mask.astype(dtype)
    rows = np.flatnonzero(mask)
    hk = h.values[rows]
    z = hk @ w.values
    z += b.values
    z -= z.max(axis=1, keepdims=True)
    kept, tk = np.arange(rows.size), targets[rows]
    target_z = z[kept, tk]
    e = np.exp(z, out=z)
    sums = e.sum(axis=1)
    # per-row losses sit at their original positions so the sum runs in
    # the composite's order
    picked = np.zeros(n, dtype=dtype)
    picked[rows] = target_z - np.log(sums)
    loss = -(picked * fmask).sum()
    out = Tensor(np.asarray(loss, dtype=dtype))

    def back(gout):
        # (softmax - onehot) * mask * gout, in place over the kept exp
        weight = fmask[rows] * gout
        p = e
        p *= (weight / sums)[:, None]
        p[kept, tk] -= weight
        dh = np.zeros_like(h.values)
        dh[rows] = p @ w.values.T
        _accum(h, dh)
        _accum(w, hk.T @ p)
        _accum(b, p.sum(axis=0))

    _record(out, back)
    return out, int(mask.sum())
