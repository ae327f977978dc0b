"""Error moduli, roughness measures, and dimension estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

# 2^MAX_SIZE_EXP caps a run's grid cells, orbit and box count points and node
# count, 2^-MAX_SIZE_EXP its box sizes: a 2^24 float64 array is 128 MiB
MAX_SIZE_EXP = 24

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


def _samples(values, span):
    """``(values, step)`` of finite samples at evenly spaced points, ends included,
    of an interval of length ``span``; a float array is checked, not copied."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise InvalidConfig("need a 1-d array of at least two samples")
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise InvalidConfig("non-finite sample values")  # a NaN fails too
    if not 0 < float(span) < math.inf:
        raise InvalidConfig("interval length must be positive and finite")
    step = float(span) / (values.size - 1)
    # a subnormal step is rounded to a few bits, so the windows it places
    # would read the wrong sample counts; 0 is the extreme case
    if step < np.finfo(float).tiny:
        raise InvalidConfig("sample step underflows to 0: interval too short")
    return values, step


def modulus_of_continuity(values, span, delta):
    """Largest |phi(x) - phi(y)| over grid pairs with |x - y| <= delta.

    ``values`` samples ``phi`` at ``values.size`` evenly spaced points of an
    interval of length ``span``, both ends included.
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
    values, step = _samples(values, span)
    for d in deltas:
        if not 0 < d <= span * (1 + 1e-12):
            raise InvalidConfig("delta must lie in (0, b - a]")
        if step > d / 16 * (1 + 1e-12):
            raise InvalidConfig("refine grid: need step <= delta / 16")
    # pairs at most k <= cells steps apart all lie in a window of k + 1 samples
    ks = [int(math.floor(d / step + 1e-9)) for d in deltas]
    omega = _WindowRange(values)
    moduli = {k: omega(k) for k in sorted(set(ks))}
    return moduli[ks[0]] if scalar else [moduli[k] for k in ks]


def holder_seminorm(values, span, mu) -> float:
    """sup of |phi(x) - phi(y)| / |x - y|^mu, mu in (0, 1], over all pairs of grid
    points, with ``values`` and ``span`` as in ``modulus_of_continuity``.

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
    if not 0 < mu <= 1:
        raise InvalidConfig("exponent mu must lie in (0, 1]")
    values, step = _samples(values, span)
    cells = values.size - 1
    omega = _WindowRange(values)
    ends = [min(2**j, cells) for j in range((cells - 1).bit_length() + 1)]
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
    """Box-counting fit: the slope, the box sizes and counts, and r-squared."""

    estimated_dimension: float
    scales: tuple
    counts: tuple
    r_squared: float


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
    ``y``.  A sorted block of 16 or more points per column is reduced by
    column runs (each costs what about 8-16 scattered points do), any other
    (an orbit's, found out on its first points) scattered.  Min and max are
    exact, so any split gives the same bits, as does normalizing only the
    extremes (it is nondecreasing)."""
    lo, hi = np.full(inv, np.inf), np.full(inv, -np.inf)
    run = np.empty(min(inv, _BOX_BLOCK // 16))
    for xn, y in blocks:
        c0, c1 = (min(int(v * inv), inv - 1) for v in (xn[0], xn[-1]))
        k = c1 + 1 - c0  # columns from the first point's to the last one's
        head = xn[:64]  # an orbit's block fails on these points
        if 1 <= k <= xn.size // 16 and (head[1:] >= head[:-1]).all() and (xn[1:] >= xn[:-1]).all():
            # inv = 2^j, so column j's run starts at the first xn >= j / inv (the
            # last column also takes xn = 1); an empty run's reduceat is skipped
            idx = np.searchsorted(xn, np.arange(c0, c1 + 2) / inv)
            idx[-1] = xn.size
            for ext, op in ((lo, np.minimum), (hi, np.maximum)):
                op.reduceat(y, idx[:-1], out=run[:k])
                op(ext[c0 : c1 + 1], run[:k], out=ext[c0 : c1 + 1], where=idx[1:] > idx[:-1])
        else:
            idx = np.minimum((xn * inv).astype(np.int64), inv - 1)  # columns
            np.minimum.at(lo, idx, y)
            np.maximum.at(hi, idx, y)
        del xn, y, idx, head  # each block's arrays go before the next ones are made
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
        Each must be a power of two ``2^-j``, ``0 <= j <= MAX_SIZE_EXP``,
        checked before any array is made.  Defaults to 2^-4 ... 2^-12.
        At least 5 scales spanning a factor >= 100.  The point set is
        binned into columns once, at the finest size, and the coarser
        counts come from a pairwise min/max pyramid.
        Points are binned ``_BOX_BLOCK`` at a time, ``y`` raw and only the
        columns' extremes normalized, so beyond its inputs the count holds a
        fixed amount of memory; a block sorted in ``x`` is reduced one run
        of points per column, any other scattered point by point.

    Returns
    -------
    DimensionReport with the fitted slope of log(count) against
    log(1/scale) and the r-squared of the fit.
    """
    scales = DEFAULT_SCALES if scales is None else tuple(float(s) for s in scales)
    if len(scales) < 5:
        raise InvalidConfig("need at least 5 scales")
    if not all(2.0**-MAX_SIZE_EXP <= s <= 1.0 for s in scales):
        raise InvalidConfig(f"box sizes must lie in [2^-{MAX_SIZE_EXP}, 1]")
    if max(scales) / min(scales) < 100:
        raise InvalidConfig("scales must span at least two decades")
    invs = []
    for s in scales:
        inv = round(1.0 / s)
        if inv & (inv - 1) or abs(inv * s - 1.0) > 1e-9:
            raise InvalidConfig("each scale must be a power of two 2^-j")
        invs.append(inv)
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise InvalidConfig("x and y must have equal length")
    if x.size < 10**5:
        raise InvalidConfig("need at least 1e5 points for a stable estimate")
    x_lo, y_lo = np.min(x), np.min(y)
    x_span, y_span = float(np.max(x) - x_lo), float(np.max(y) - y_lo)
    if not (0 < x_span < math.inf and 0 < y_span < math.inf):  # NaN fails too
        raise InvalidConfig("degenerate or non-finite point set")
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
