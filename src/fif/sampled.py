"""Functions represented by values on a dense uniform grid."""

from __future__ import annotations

import numpy as np


class SampledFunction:
    """Finite samples at ``cells + 1`` evenly spaced points of ``[a, b]``, ends included."""

    __slots__ = ("a", "b", "values")

    def __init__(self, a, b, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite sample values")
        a = float(a)
        b = float(b)
        if not b > a:
            raise ValueError("interval must satisfy a < b")
        self.a = a
        self.b = b
        self.values = values

    @classmethod
    def from_callable(cls, func, a, b, cells):
        x = np.linspace(a, b, int(cells) + 1)
        return cls(a, b, np.asarray(func(x), dtype=float))

    @property
    def cells(self) -> int:
        return self.values.size - 1

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.cells
