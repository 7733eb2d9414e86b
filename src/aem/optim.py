"""Adam optimizer and gradient clipping."""

from __future__ import annotations

import numpy as np

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
        most _CHUNK values through two buffers made once per step: the same
        float32 operations in the same order as the whole-array formula
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps), without its full-size
        temporaries."""
        for name, p in self.store.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        largest = max((p.values.size for _, p in self.store.items()), default=0)
        buf_a = np.empty(min(largest, _CHUNK), dtype=self.store.dtype)
        buf_b = np.empty_like(buf_a)
        for name, p in self.store.items():
            # the store's and the moments' arrays are C-contiguous, so these are views
            values, m, v = p.values.reshape(-1), self.m[name].reshape(-1), self.v[name].reshape(-1)
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
    is scaled."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total, groups = 0.0, {}
    for name, p in store.items():
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        square = float(np.square(p.grad, dtype=np.float64).sum())
        if not np.isfinite(square):
            raise FloatingPointError(f"non-finite gradient in {name}")
        total += square
        group = name.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + square
    norm = GradNorm(np.sqrt(total), {g: float(np.sqrt(v)) for g, v in groups.items()})
    if norm > max_norm:
        factor = max_norm / norm
        for _, p in store.items():
            p.grad *= factor
    return norm
