"""Named parameter storage and initialization."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .rng import SplitMix64, derive_seed


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read, or whose arrays do not fit
    the model it describes."""


class ParamStore:
    """Map from hierarchical name ("theta.src_enc.W") to parameter Tensor.

    The store sets the dtype: every parameter it adds, and every subset
    view, uses the one given at construction. Iteration is always
    lexicographic by name, so optimizer updates and serialization are
    order-deterministic.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = dtype
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.zeros(shape, dtype=self.dtype), name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def tensors(self) -> list[Tensor]:
        return [self._params[name] for name in self.names()]

    def subset(self, prefix: str) -> "ParamStore":
        """View over names starting with `prefix.`; shares the Tensors."""
        sub = ParamStore(self.dtype)
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

    def assign(self, arrays: dict) -> None:
        """Set each parameter's values to a copy of arrays[name], so the
        store owns its arrays. A parameter whose entry is missing or shaped
        otherwise keeps its zeros; `check_arrays` refuses such input."""
        for name, t in self._params.items():
            given = arrays.get(name)
            if given is not None and given.shape == t.values.shape:
                t.values = np.array(given, dtype=self.dtype)

    def check_arrays(self, arrays: dict, prefixes: tuple[str, ...]) -> None:
        """Require `arrays` to hold exactly prefix + name, shaped like that
        parameter, for every prefix and every parameter: the one rule for
        a checkpoint's parameters ("") and Adam moments ("adam.m.",
        "adam.v."). Raises CheckpointError naming each missing, unexpected
        and wrong-shaped entry."""
        expected = {prefix + name: t.values.shape
                    for prefix in prefixes for name, t in self._params.items()}
        problems = []
        missing = sorted(set(expected) - set(arrays))
        if missing:
            problems.append("missing " + ", ".join(missing))
        unexpected = sorted(set(arrays) - set(expected))
        if unexpected:
            problems.append("unexpected " + ", ".join(unexpected))
        problems += ["%s has shape %s, expected %s" % (name, arrays[name].shape, shape)
                     for name, shape in sorted(expected.items())
                     if name in arrays and arrays[name].shape != shape]
        if problems:
            raise CheckpointError("arrays do not fit the parameters: " + "; ".join(problems))


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
