"""Adam optimizer and gradient clipping."""

from __future__ import annotations

import numpy as np

from . import autograd
from .params import ParamStore

# the most values of one parameter that an Adam update handles at a time:
# a chunk and its two buffers stay in cache
_CHUNK = 1 << 16


class Adam:
    """Bias-corrected Adam over a ParamStore.

    Moments live per parameter name; the shared step counter t advances
    by exactly 1 per step() call. After a step, grads are reset to zero
    in place so the next backward accumulates from zero.
    """

    def __init__(self, store: ParamStore, lr: float = 0.002,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in store.items()}

    def step(self) -> None:
        """One update of every parameter, in place, over flat chunks of at
        most _CHUNK values through two buffers: the same float32 operations
        in the same order as the whole-array formula
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps), without its full-size
        temporaries. The store runs as two halves of whole parameters, the
        first in the caller and the second on autograd's worker thread
        (autograd._in_two; both in the caller below autograd._SPLIT_MIN
        values or on one CPU), each half with buffers of its own, so the
        bytes do not depend on where a parameter runs."""
        params = list(self.store.items())
        for name, p in params:
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t

        def update(run):
            largest = max((p.values.size for _, p in run), default=0)
            buf_a = np.empty(min(largest, _CHUNK), dtype=self.store.dtype)
            buf_b = np.empty_like(buf_a)
            for name, p in run:
                # the store's and the moments' arrays are C-contiguous, so these are views
                values, m, v = (p.values.reshape(-1), self.m[name].reshape(-1),
                                self.v[name].reshape(-1))
                grad = p.grad.reshape(-1)
                for start in range(0, values.size, _CHUNK):
                    part = slice(start, start + _CHUNK)
                    g, mk, vk = grad[part], m[part], v[part]
                    a, b = buf_a[: g.size], buf_b[: g.size]
                    mk *= self.beta1
                    mk += np.multiply(g, 1.0 - self.beta1, out=a)
                    vk *= self.beta2
                    np.multiply(g, g, out=a)
                    a *= 1.0 - self.beta2
                    vk += a
                    np.divide(mk, bc1, out=a)
                    a *= self.lr
                    np.divide(vk, bc2, out=b)
                    np.sqrt(b, out=b)
                    b += self.epsilon
                    a /= b
                    values[part] -= a
                p.grad[...] = 0.0

        autograd._in_two(update, params, [p.values.size for _, p in params])


class GradNorm(float):
    """A global gradient norm, still a float to every caller that compares
    or logs it, that also carries `groups`: group name -> that group's
    norm."""

    def __new__(cls, norm, groups):
        self = super().__new__(cls, norm)
        self.groups = groups
        return self


def clip_grad_norm(store: ParamStore, max_norm: float) -> GradNorm:
    """Scale all grads so their global L2 norm is at most max_norm.
    Returns the pre-clip norm, with the norm of each parameter group (the
    first part of the name: theta, phi, gamma, attn) from the same
    per-parameter sums. A non-finite gradient raises FloatingPointError
    naming the first such parameter in store order, before any gradient
    is scaled. The per-parameter float64 sums of squares, and the scaling,
    run as two halves of whole parameters, the first in the caller and the
    second on autograd's worker thread (autograd._in_two, as in
    Adam.step); the caller adds the sums in store order."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = list(store.items())
    sizes = [p.values.size for _, p in params]

    def squares(run):
        return [None if p.grad is None else float(np.square(p.grad, dtype=np.float64).sum())
                for _, p in run]

    ours, theirs = autograd._in_two(squares, params, sizes)
    total, groups = 0.0, {}
    for (name, _), square in zip(params, ours + theirs):
        if square is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        if not np.isfinite(square):
            raise FloatingPointError(f"non-finite gradient in {name}")
        total += square
        group = name.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + square
    norm = GradNorm(np.sqrt(total), {g: float(np.sqrt(v)) for g, v in groups.items()})
    if norm > max_norm:
        factor = max_norm / norm

        def scale(run):
            for _, p in run:
                p.grad *= factor

        autograd._in_two(scale, params, sizes)
    return norm
