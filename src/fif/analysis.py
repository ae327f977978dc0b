"""Error moduli, roughness measures, and dimension estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .sampled import SampledFunction

# Default dyadic box sizes for dimension estimation.
DEFAULT_SCALES = tuple(2.0**-j for j in range(4, 13))

# Samples per block of a window-range query.
_BLOCK = 2**14

# Points per block of box counting's normalize-and-bin pass: above the 1e5
# points it requires, so that small sets take one block.
_BOX_BLOCK = 2**17


class _WindowRange:
    """omega(k): the largest max - min over k + 1 >= 2 consecutive samples.

    Keeps one level of a doubling min/max table, the extremes of every window
    of ``width = 2^j`` samples: a window of ``width < k + 1 <= 2 * width``
    samples is two overlapping ones (a sparse table, Bender & Farach-Colton
    2000, one level at a time).  Nondecreasing queries only climb the table,
    so queries in increasing order cost one climb to the widest window; a
    smaller ``k`` rebuilds it from the samples.  Max and min are exact, so
    every answer is the same bits whichever level it was reached from.
    """

    def __init__(self, values):
        self._values = values
        self._level = (values, values, 1)

    def __call__(self, k: int) -> float:
        window = k + 1
        hi, lo, width = self._level
        if window <= width:
            hi, lo, width = self._values, self._values, 1
        while 2 * width < window:
            hi = np.maximum(hi[:-width], hi[width:])
            lo = np.minimum(lo[:-width], lo[width:])
            width *= 2
        self._level = (hi, lo, width)
        s = window - width
        best = 0.0
        # block-sized temporaries: full-size fresh ones cost more in page faults
        for i in range(0, hi.size - s, _BLOCK):
            j = min(i + _BLOCK, hi.size - s)
            top = np.maximum(hi[i:j], hi[i + s : j + s])
            top -= np.minimum(lo[i:j], lo[i + s : j + s])
            best = max(best, float(top.max()))
        return best


def modulus_of_continuity(phi: SampledFunction, delta):
    """Largest |phi(x) - phi(y)| over grid pairs with |x - y| <= delta.

    ``delta`` may also be a sequence of spacings: their moduli come back as a
    list, in the order given, from one climb of the min/max table (the
    windows are queried smallest first), so a ladder of spacings costs about
    what its largest one does alone.  A float ``delta`` returns a float.
    The grid must resolve every ``delta`` (step <= delta / 16), otherwise the
    sampled value is too loose an underestimate to be useful; every spacing
    is checked before any table level is built.
    """
    scalar = np.ndim(delta) == 0
    deltas = [delta] if scalar else list(delta)
    step = phi.step
    for d in deltas:
        if not 0 < d <= (phi.b - phi.a) * (1 + 1e-12):
            raise InvalidConfig("delta must lie in (0, b - a]")
        if step > d / 16 * (1 + 1e-12):
            raise InvalidConfig("refine grid: need step <= delta / 16")
    # pairs at most k <= cells steps apart all lie in a window of k + 1 samples
    ks = [int(math.floor(d / step + 1e-9)) for d in deltas]
    omega = _WindowRange(phi.values)
    moduli = {k: omega(k) for k in sorted(set(ks))}
    return moduli[ks[0]] if scalar else [moduli[k] for k in ks]


@dataclass(frozen=True)
class HolderParams:
    """Exponent mu in (0, 1] of the discrete seminorm ``holder_seminorm``."""

    mu: float

    def __post_init__(self):
        if not 0 < self.mu <= 1:
            raise InvalidConfig("exponent mu must lie in (0, 1]")


def holder_seminorm(phi: SampledFunction, params: HolderParams) -> float:
    """sup of |phi(x) - phi(y)| / |x - y|^mu over all pairs of grid points.

    The exact value on the sampled grid, bit for bit the maximum over every
    spacing ``d`` of ``gap(d) / (d * step) ** mu``, and a lower bound of the
    continuum seminorm.  With ``omega(k) = max_{d <= k} gap(d)`` it equals
    ``max_k omega(k) / (k * step) ** mu``, and no spacing strictly inside a
    band ``[lo, hi]`` beats ``omega(hi) / ((lo + 1) * step) ** mu``.  Each
    dyadic band that could still beat the best ratio seen is halved until
    none can.  Each ``omega`` costs O(n); a ratio that is flat over all
    spacings (samples of ``|x|^mu`` itself) prunes nothing and costs the
    pair scan's O(n^2).
    """
    step, mu = phi.step, params.mu
    omega = _WindowRange(phi.values)
    ends = [min(2**j, phi.cells) for j in range((phi.cells - 1).bit_length() + 1)]
    ranges = [omega(k) for k in ends]
    best = max(w / (k * step) ** mu for k, w in zip(ends, ranges))
    # each dyadic band is finished before the next: the spacings inside
    # [2^j, 2^(j+1)] all read one table level, so it is rebuilt only once
    bands = list(zip(ends, ends[1:], ranges[1:]))[::-1]
    while bands:
        lo, hi, w_hi = bands.pop()
        if hi - lo > 1 and w_hi / ((lo + 1) * step) ** mu > best:
            mid = (lo + hi) // 2
            w = omega(mid)
            best = max(best, w / (mid * step) ** mu)
            bands += [(mid, hi, w_hi), (lo, mid, w)]
    return best


def error_bound_alpha(scaling_sup: float, base_gap: float) -> float:
    """Sup-error bound scaling_sup / (1 - scaling_sup) * base_gap."""
    if not 0 <= scaling_sup < 1:
        raise InvalidConfig("scaling sup norm must lie in [0, 1)")
    if base_gap < 0:
        raise InvalidConfig("base gap must be nonnegative")
    return scaling_sup / (1.0 - scaling_sup) * base_gap


def error_bound_discrete(scaling_sup: float, omega_n: float, omega_knots: float) -> float:
    """Node-data bound: scaled modulus at the operator step plus the knot step."""
    if not 0 <= scaling_sup < 1:
        raise InvalidConfig("scaling sup norm must lie in [0, 1)")
    if omega_n < 0 or omega_knots < 0:
        raise InvalidConfig("moduli must be nonnegative")
    return (scaling_sup * omega_n + omega_knots) / (1.0 - scaling_sup)


@dataclass
class DimensionReport:
    """Box-counting fit plus, when available, the closed-form prediction."""

    estimated_dimension: float
    scales: tuple
    counts: tuple
    r_squared: float
    theoretical_dimension: float | None = None
    kappa: float | None = None
    collinear_data: bool | None = None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.theoretical_dimension is not None and not (
            1.0 <= self.theoretical_dimension <= 2.0
        ):
            raise InvalidConfig("theoretical dimension must lie in [1, 2]")
        if self.kappa is not None and self.kappa < 0:
            raise InvalidConfig("kappa must be nonnegative")


def theoretical_box_dimension(scaling) -> float:
    """Closed-form graph dimension of a constant ``ScalingVector`` on uniform knots.

    1 + log_N(kappa) with ``N = scaling.size`` pieces, when the absolute
    scalings sum to kappa > 1, else 1; each |alpha_i| < 1, so kappa < N and
    the dimension stays below 2.
    """
    consts = scaling.constants()
    if consts.size < 2:
        raise InvalidConfig("need at least 2 subintervals")
    kappa = float(np.sum(np.abs(consts)))
    if kappa <= 1.0:
        return 1.0
    return 1.0 + math.log(kappa) / math.log(consts.size)


def knot_data_collinear(x, y) -> bool:
    """Whether the data points sit on one straight line (degenerate graph)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        return True
    rng = float(np.max(y) - np.min(y))
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.abs(y - design @ coef)
    return bool(np.max(resid) <= 1e-9 * max(rng, 1.0))


def _column_extremes(blocks, inv, y_lo, y_span):
    """``(lo, hi)``: the lowest and highest normalized ``y`` in each of ``inv``
    columns (inf/-inf if empty), merged over blocks of normalized ``x`` and raw
    ``y``.  Min and max are exact, so any split gives the same bits, as does
    normalizing only the extremes (it is nondecreasing)."""
    lo, hi = np.full(inv, np.inf), np.full(inv, -np.inf)
    for xn, y in blocks:
        ix = np.minimum((xn * inv).astype(np.int64), inv - 1)
        np.minimum.at(lo, ix, y)
        np.maximum.at(hi, ix, y)
        del xn, y, ix  # each block's arrays go before the next ones are made
    return (lo - y_lo) / y_span, (hi - y_lo) / y_span


def _dyadic_counts(blocks, invs, y_lo, y_span) -> list:
    """Box counts for power-of-two ``invs`` from one column pass at the finest.

    Multiplying by a power of two is exact, so the column of a point at
    ``2^j`` columns is its column at the finest ``2^J`` shifted right by
    ``J - j``: each coarser level's extremes are the pairwise min/max of the
    level below, and every count equals a per-scale count exactly.
    """
    inv = max(invs)
    lo, hi = _column_extremes(blocks, inv, y_lo, y_span)
    counts = {}
    while inv >= min(invs):
        # curve-aware count: the points sample a continuous graph, so within
        # one column every box between the column's extremes is occupied
        seen = hi >= lo
        ilo = np.clip(np.floor(lo[seen] * inv).astype(np.int64), 0, inv - 1)
        ihi = np.clip(np.floor(hi[seen] * inv).astype(np.int64), 0, inv - 1)
        counts[inv] = int(np.sum(ihi - ilo + 1))
        lo = np.minimum(lo[0::2], lo[1::2])
        hi = np.maximum(hi[0::2], hi[1::2])
        inv //= 2
    return [counts[i] for i in invs]


def box_counting_dimension(x, y, scales=None) -> DimensionReport:
    """Least-squares box-counting dimension of a normalized point set.

    Parameters
    ----------
    x, y : arrays of equal length (>= 1e5 points)
        The point cloud; it is normalized to the unit square first.
    scales : sequence of box sizes, optional
        Each must be a power of two ``2^-j``.  Defaults to 2^-4 ... 2^-12.
        At least 5 scales spanning a factor >= 100.  The point set is
        binned into columns once, at the finest size, and the coarser
        counts come from a pairwise min/max pyramid.
        Points are binned ``_BOX_BLOCK`` at a time, ``y`` raw and only the
        columns' extremes normalized, so beyond its inputs the count holds a
        fixed amount of memory.

    Returns
    -------
    DimensionReport with the fitted slope of log(count) against
    log(1/scale) and the r-squared of the fit.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise InvalidConfig("x and y must have equal length")
    if x.size < 10**5:
        raise InvalidConfig("need at least 1e5 points for a stable estimate")
    if scales is None:
        scales = DEFAULT_SCALES
    scales = tuple(float(s) for s in scales)
    if len(scales) < 5:
        raise InvalidConfig("need at least 5 scales")
    if max(scales) / min(scales) < 100:
        raise InvalidConfig("scales must span at least two decades")
    invs = []
    for s in scales:
        inv = round(1.0 / s)
        if inv & (inv - 1) or abs(inv * s - 1.0) > 1e-9:
            raise InvalidConfig("each scale must be a power of two 2^-j")
        invs.append(inv)
    x_lo, y_lo = np.min(x), np.min(y)
    x_span, y_span = float(np.max(x) - x_lo), float(np.max(y) - y_lo)
    if x_span <= 0 or y_span <= 0:
        raise InvalidConfig("degenerate point set")
    # normalized x and raw y, one block at a time
    blocks = (((x[i : i + _BOX_BLOCK] - x_lo) / x_span, y[i : i + _BOX_BLOCK])
              for i in range(0, x.size, _BOX_BLOCK))
    counts = _dyadic_counts(blocks, invs, y_lo, y_span)
    if len(set(counts)) < 2:
        raise InvalidConfig("degenerate point set: box counts do not vary")
    logx = np.log(1.0 / np.asarray(scales))
    logy = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(logx, logy, 1)
    fitted = slope * logx + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DimensionReport(
        estimated_dimension=float(slope),
        scales=scales,
        counts=tuple(counts),
        r_squared=r2,
    )
