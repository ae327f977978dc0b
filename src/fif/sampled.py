"""Functions represented by values on a dense uniform grid."""

from __future__ import annotations

import numpy as np


class SampledFunction:
    """Values on a uniform grid over ``[a, b]`` with linear interpolation.

    Linear interpolation is monotone between neighbouring samples, so the
    represented function never overshoots the sampled values.
    """

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

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.size)

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)
