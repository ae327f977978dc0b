"""Interval partitions, the contractive maps they induce, vertical scalings."""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig
from .operators import _call_vectorized

# Sample count used to estimate sup norms of scaling functions.
SUP_SAMPLES = 10**4


class Partition:
    """Strictly increasing knots x_0 < ... < x_N with N >= 2 subintervals.

    Subinterval ``i`` (1-based) is ``[x_{i-1}, x_i]`` and carries the affine
    contraction of ``[x_0, x_N]`` onto it that fixes the orientation:
    slope ``(x_i - x_{i-1}) / (x_N - x_0)`` and the intercept making
    ``x_0 -> x_{i-1}``, ``x_N -> x_i``.  The partition is uniform when its
    spacings agree up to ``max(1e-12 (b - a), 2 ulp(max(|a|, |b|)))``: the
    knots of ``np.linspace`` are ``a + j step`` rounded once each, so two of
    its spacings differ by at most two ulps of the knots' size, plus ulps of
    ``b - a`` from the step.  Every uniform partition has the slope ``1/N``.
    """

    __slots__ = ("knots", "slopes", "intercepts", "is_uniform")

    def __init__(self, knots):
        # a private read-only copy keeps knots in step with slopes and intercepts
        knots = np.array(knots, dtype=float)
        knots.flags.writeable = False
        if knots.ndim != 1 or knots.size < 3:
            raise InvalidConfig("need at least 3 knots (2 subintervals)")
        if not np.all(np.isfinite(knots)):
            raise InvalidConfig("non-finite knots")
        w = np.diff(knots)
        if not np.all(w > 0):
            raise InvalidConfig("knots must be strictly increasing")
        self.knots = knots
        span = knots[-1] - knots[0]
        tol = max(1e-12 * span, 2 * np.spacing(max(abs(knots[0]), abs(knots[-1]))))
        self.is_uniform = bool(np.all(np.abs(w - w[0]) <= tol))
        self.slopes = np.full(w.size, 1.0 / w.size) if self.is_uniform else w / span
        self.intercepts = knots[:-1] - self.slopes * knots[0]

    @classmethod
    def uniform(cls, a, b, count):
        """``count`` equal pieces of ``[a, b]``."""
        if not (isinstance(count, int) and count >= 2):
            raise InvalidConfig("need an integer subinterval count >= 2")
        return cls(np.linspace(a, b, count + 1))

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    @property
    def size(self) -> int:
        return self.knots.size - 1

    def locate(self, x):
        """Subinterval index in 1..N for each x; internal knots go left."""
        idx = np.searchsorted(self.knots, np.asarray(x, dtype=float), side="left")
        return np.clip(idx, 1, self.size)

    def inverse(self, i, x):
        i = np.asarray(i) - 1
        return (np.asarray(x, dtype=float) - self.intercepts[i]) / self.slopes[i]


def _entry_sup(e, domain) -> float:
    """|e| for a constant, or the sup of |e| sampled densely over the domain."""
    if not callable(e):
        v = float(e)
        if not np.isfinite(v):
            raise InvalidConfig("non-finite scaling constant")
        return abs(v)
    if domain is None:
        raise InvalidConfig("function scalings need a domain")
    xs = np.linspace(domain[0], domain[1], SUP_SAMPLES)
    return float(np.max(np.abs(_call_vectorized(e, xs))))


class ScalingVector:
    """One vertical scaling per subinterval: a constant or a function of x.

    Function entries are sampled on a dense grid over the domain to bound
    their sup norms; the overall sup norm must stay below 1.  Pieces often
    share one entry object, so each distinct entry is sampled once and, in
    :meth:`values_at`, evaluated once over all the points of its pieces; in
    :meth:`rows_at`, where every piece reads the same points, once on them.
    """

    __slots__ = ("entries", "sup_norms", "_distinct", "_owner")

    def __init__(self, entries, domain=None):
        entries = tuple(entries)
        if not entries:
            raise InvalidConfig("scaling vector is empty")
        distinct, slot = [], {}
        for e in entries:
            if id(e) not in slot:
                slot[id(e)] = len(distinct)
                distinct.append(e)
        sups = np.asarray([_entry_sup(e, domain) for e in distinct])
        self.entries = entries
        self._distinct = tuple(distinct)
        self._owner = np.asarray([slot[id(e)] for e in entries])
        self.sup_norms = sups[self._owner]
        if self.sup_norm >= 1.0:
            raise InvalidConfig("scaling sup norm must be < 1")

    @classmethod
    def constant(cls, values):
        return cls([float(v) for v in np.atleast_1d(values)])

    @classmethod
    def broadcast(cls, value, count):
        return cls([value] * count)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.sup_norms))

    @property
    def is_constant(self) -> bool:
        return not any(callable(e) for e in self.entries)

    @property
    def kappa(self) -> float:
        """Sum of the per-subinterval sup norms."""
        return float(np.sum(self.sup_norms))

    def constants(self) -> np.ndarray:
        if not self.is_constant:
            raise InvalidConfig("constant scalings required")
        return np.asarray([float(e) for e in self.entries])

    def values_at(self, i, x):
        """alpha_i(x), with the 1-based indices ``i`` broadcast against ``x``."""
        i, x = np.broadcast_arrays(np.asarray(i), np.asarray(x, dtype=float))
        if self.is_constant:
            return self.constants()[i - 1]
        out = np.empty(x.shape)
        owner = self._owner[i - 1]
        for j, e in enumerate(self._distinct):
            mask = owner == j
            if not np.any(mask):
                continue
            out[mask] = _call_vectorized(e, x[mask]) if callable(e) else float(e)
        return out

    def rows_at(self, x):
        """``alpha_i(x)`` of pieces ``i = 1..N`` at the same points ``x``, as ``N`` rows
        (one column when all are constant); each distinct entry is evaluated once."""
        if self.is_constant:
            return self.constants()[:, None]
        x = np.ascontiguousarray(x, dtype=float)
        out = np.empty((self.size,) + x.shape)
        for j, e in enumerate(self._distinct):
            out[self._owner == j] = _call_vectorized(e, x) if callable(e) else float(e)
        return out

    def holder_contraction(self, partition: Partition, mu: float) -> float:
        """max_i sup|alpha_i| / slope_i^mu, the variable-scaling gate value."""
        if not 0 < mu <= 1:
            raise InvalidConfig("exponent mu must lie in (0, 1]")
        if self.size != partition.size:
            raise InvalidConfig("scaling count must match subinterval count")
        return float(np.max(self.sup_norms / partition.slopes**mu))
