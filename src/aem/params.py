"""Named parameter storage and initialization."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .rng import SplitMix64, derive_seed


class ParamStore:
    """Map from hierarchical name ("theta.src_enc.W") to parameter Tensor.

    Iteration is always lexicographic by name, so optimizer updates and
    serialization are order-deterministic.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.zeros(shape, dtype=dtype), name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def tensors(self) -> list[Tensor]:
        return [self._params[name] for name in self.names()]

    def subset(self, prefix: str) -> "ParamStore":
        """View over names starting with `prefix.`; shares the Tensors."""
        sub = ParamStore()
        dotted = prefix if prefix.endswith(".") else prefix + "."
        for name, t in self._params.items():
            if name.startswith(dotted):
                sub._params[name] = t
        return sub

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.values.size for t in self._params.values())


def uniform_init(store: ParamStore, lo: float = -0.1, hi: float = 0.1, seed: int = 0) -> None:
    """Fill every parameter with uniform [lo, hi) values.

    Each parameter draws from its own counter stream keyed by (seed,
    name), so the result is independent of store contents and insertion
    order: two models initialize any same-named parameter identically.
    """
    if not lo < hi:
        raise ValueError(f"uniform_init needs lo < hi, got [{lo}, {hi})")
    for name, t in store.items():
        stream = SplitMix64(derive_seed(seed, name))
        t.values[...] = stream.fill_uniform(t.values.size, lo, hi).reshape(t.values.shape)
