import math
import tracemalloc

import numpy as np
import pytest

import fif.analysis
import fif.cli
from fif.analysis import (
    _BOX_BLOCK,
    DEFAULT_SCALES,
    DimensionReport,
    box_counting_dimension,
    error_bound_alpha,
    error_bound_discrete,
    holder_seminorm,
    knot_data_collinear,
    modulus_of_continuity,
    theoretical_box_dimension,
)
from fif.errors import InvalidConfig
from fif.fractal import FifProblem, chaos_game_render, solve_fif
from fif.kernels import ramp
from fif.maps import Partition, ScalingVector
from fif.operators import OperatorConfig
from fif.registry import make_function


# ------------------------------------------------------ modulus of continuity


def brute_modulus(v, span, delta):
    g = np.linspace(0.0, span, v.size)
    best = 0.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            if g[j] - g[i] <= delta:
                best = max(best, abs(v[j] - v[i]))
    return best


def test_modulus_identity():
    x = np.linspace(0.0, 1.0, 257)
    assert modulus_of_continuity(x, 1.0, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_modulus_constant():
    assert modulus_of_continuity(np.full(257, 3.3), 1.0, 0.5) == 0.0


def test_modulus_sine_small_delta():
    got = modulus_of_continuity(np.sin(np.linspace(0.0, np.pi, 2**12 + 1)), np.pi, 0.1)
    assert got == pytest.approx(2 * np.sin(0.05), rel=0.01)


def test_modulus_matches_pair_scan():
    rng = np.random.default_rng(9)
    noise = rng.standard_normal(257)
    walk = np.cumsum(np.random.default_rng(10).standard_normal(257))
    # windows of 17, 32 (a power of two), 101 and all 257 samples besides
    for v in (noise, walk):
        for delta in (0.0625, 0.125, 0.25, 16 / 256, 31 / 256, 100 / 256, 1.0):
            assert modulus_of_continuity(v, 1.0, delta) == brute_modulus(v, 1.0, delta)


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_modulus_sequence_matches_pair_scan(order):
    rng = np.random.default_rng(9)
    noise = rng.standard_normal(257)
    walk = np.cumsum(np.random.default_rng(10).standard_normal(257))
    # a repeated spacing and two spacings that share a window are included
    deltas = [0.0625, 0.125, 0.25, 16 / 256, 31 / 256, 100 / 256, 1.0, 0.125, 100.5 / 256]
    if order == "increasing":
        deltas.sort()
    elif order == "decreasing":
        deltas.sort(reverse=True)
    else:
        np.random.default_rng(11).shuffle(deltas)
    for v in (noise, walk):
        got = modulus_of_continuity(v, 1.0, deltas)
        assert isinstance(got, list)
        assert got == [brute_modulus(v, 1.0, d) for d in deltas]


def test_modulus_sequence_checks_every_delta_before_any_work(monkeypatch):
    v = np.sin(np.linspace(0.0, 1.0, 65))
    built = []
    table = fif.analysis._WindowRange

    def counted(values):
        built.append(values.size)
        return table(values)

    monkeypatch.setattr(fif.analysis, "_WindowRange", counted)
    for deltas, match in (
        ([0.5, 1.0, 0.05], "refine grid"),  # step 1/64 > delta/16, last
        ([0.0, 0.5], "delta"),
        ([0.5, 2.0, 0.25], "delta"),
        ([0.5, float("nan")], "delta"),
    ):
        with pytest.raises(InvalidConfig, match=match):
            modulus_of_continuity(v, 1.0, deltas)
    assert built == []
    assert modulus_of_continuity(v, 1.0, []) == []


def test_modulus_scalar_delta_returns_a_float():
    v = np.sin(np.linspace(0.0, 1.0, 257))
    for delta in (0.25, np.float64(0.25), 1, np.array(0.25)):
        got = modulus_of_continuity(v, 1.0, delta)
        assert type(got) is float
        assert got == modulus_of_continuity(v, 1.0, [float(delta)])[0]


def test_modulus_monotone_in_delta():
    x = np.linspace(0.0, 2.0, 2**12 + 1)
    v = np.sin(7 * x) + 0.3 * x
    ladder = [modulus_of_continuity(v, 2.0, d) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a <= b for a, b in zip(ladder, ladder[1:]))


def test_modulus_subadditive_within_slack():
    v = np.sin(np.linspace(0.0, np.pi, 2**13 + 1))
    w1 = modulus_of_continuity(v, np.pi, 0.2)
    w2 = modulus_of_continuity(v, np.pi, 0.4)
    assert w2 <= 2 * w1 + 2 * np.pi / 2**13


def test_modulus_preconditions():
    v = np.sin(np.linspace(0.0, 1.0, 65))
    with pytest.raises(InvalidConfig, match="refine grid"):
        modulus_of_continuity(v, 1.0, 0.05)  # step 1/64 > delta/16
    with pytest.raises(InvalidConfig, match="delta"):
        modulus_of_continuity(v, 1.0, 0.0)
    with pytest.raises(InvalidConfig, match="delta"):
        modulus_of_continuity(v, 1.0, 2.0)


@pytest.mark.parametrize(
    "values, span, mu, match",
    [
        (np.array(1.0), 1.0, 0.5, "1-d"),
        (np.zeros((2, 3)), 1.0, 0.5, "1-d"),
        (np.array([1.0]), 1.0, 0.5, "two samples"),
        (np.array([0.0, np.nan, 1.0]), 1.0, 0.5, "non-finite"),
        (np.array([0.0, -np.inf, 1.0]), 1.0, 0.5, "non-finite"),
        (np.zeros(3), 0.0, 0.5, "interval length"),
        (np.zeros(3), -1.0, 0.5, "interval length"),
        (np.zeros(3), np.inf, 0.5, "interval length"),
        (np.zeros(3), np.nan, 0.5, "interval length"),
        (np.zeros(2**12 + 1), 1e-320, 0.5, "underflows"),  # the step rounds to 0
        (np.zeros(2**12 + 1), 1e-318, 0.5, "underflows"),  # a subnormal step
        (np.zeros(3), 1.0, 0.0, r"exponent mu must lie in \(0, 1\]"),
        (np.zeros(3), 1.0, 1.5, r"exponent mu must lie in \(0, 1\]"),
        (np.zeros(3), 1.0, np.nan, r"exponent mu must lie in \(0, 1\]"),
    ],
    ids=["0-d", "2-d", "1-sample", "nan", "inf", "span-0", "span-neg", "span-inf",
         "span-nan", "step-0", "step-subnormal", "mu-0", "mu-1.5", "mu-nan"],
)
def test_moduli_refuse_bad_inputs(values, span, mu, match):
    calls = [lambda: holder_seminorm(values, span, mu)]
    if not match.startswith("exponent"):  # the modulus takes no exponent
        calls.append(lambda: modulus_of_continuity(values, span, [span]))
    for call in calls:
        with pytest.raises(InvalidConfig, match=match):
            call()


# ------------------------------------------------------------ Holder measures


def brute_seminorm(v, span, mu):
    g = np.linspace(0.0, span, v.size)
    best = 0.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            best = max(best, abs(v[j] - v[i]) / (g[j] - g[i]) ** mu)
    return best


def test_seminorm_identity_lipschitz():
    x = np.linspace(0.0, 1.0, 101)
    assert holder_seminorm(x, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_constant_is_zero():
    assert holder_seminorm(np.full(101, 2.5), 1.0, 0.5) == 0.0


def test_seminorm_sqrt_equals_one():
    v = np.sqrt(np.linspace(0.0, 1.0, 401))
    assert holder_seminorm(v, 1.0, 0.5) == pytest.approx(1.0, rel=0.02)


def test_seminorm_matches_pair_scan():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(101)
    for mu in (0.3, 0.5, 1.0):
        got = holder_seminorm(v, 1.0, mu)
        assert got == pytest.approx(brute_seminorm(v, 1.0, mu), rel=1e-12)


def spacing_scan(v, span, mu):
    # every spacing d, with the same float expression as holder_seminorm
    step = span / (v.size - 1)
    best = 0.0
    for d in range(1, v.size):
        gap = float(np.max(np.abs(v[d:] - v[:-d])))
        best = max(best, gap / (d * step) ** mu)
    return best


def test_seminorm_is_bitwise_the_spacing_scan():
    rng = np.random.default_rng(13)
    f = make_function("abspow:0,0.5")
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    res = solve_fif(FifProblem(Partition.uniform(0.0, 1.0, 4),
                               ScalingVector.broadcast(0.4, 4), op, f, "alpha"),
                    cells=4 * 2**10, tol=1e-9)
    inputs = [
        (res.values - f(res.grid), 1.0),  # the README cusp
        (np.full(301, 2.5), 1.0),
        (np.array([0.0, 1.0]), 1.0),
        (np.array([0.3, -0.2, 0.9]), 3.0),
    ]
    # sizes beyond 4,001 samples, and a power of two plus one
    for size in (101, 5001, 2**13 + 1):
        inputs.append((rng.standard_normal(size), 1.0))
        inputs.append((np.cumsum(rng.standard_normal(size)), 3.0))
    for v, span in inputs:
        for mu in (0.1, 0.3, 0.5, 0.7, 1.0):
            assert holder_seminorm(v, span, mu) == spacing_scan(v, span, mu)


def test_blocked_window_ranges_match_the_scans(monkeypatch):
    # blocks of 7 samples put block seams inside every window-range query
    monkeypatch.setattr(fif.analysis, "_BLOCK", 7)
    walk = np.cumsum(np.random.default_rng(14).standard_normal(257))
    for delta in (0.0625, 31 / 256, 100 / 256, 1.0):
        assert modulus_of_continuity(walk, 1.0, delta) == brute_modulus(walk, 1.0, delta)
    for mu in (0.1, 0.5, 1.0):
        assert holder_seminorm(walk, 1.0, mu) == spacing_scan(walk, 1.0, mu)


# ------------------------------------------------------------- error bounds


def test_bound_alpha_values():
    assert error_bound_alpha(0.0, 5.0) == 0.0
    assert error_bound_alpha(0.5, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert error_bound_alpha(0.3, 0.07) == pytest.approx(0.03, abs=1e-12)


def test_bound_discrete_values():
    assert error_bound_discrete(0.0, 123.0, 0.25) == 0.25
    assert error_bound_discrete(0.5, 0.1, 0.1) == pytest.approx(0.3, abs=1e-15)
    assert error_bound_discrete(0.2, 0.04, 0.08) == pytest.approx(0.11, abs=1e-12)


def test_bounds_monotone_in_arguments():
    assert error_bound_alpha(0.6, 0.1) > error_bound_alpha(0.5, 0.1)
    assert error_bound_alpha(0.5, 0.2) > error_bound_alpha(0.5, 0.1)
    assert error_bound_discrete(0.6, 0.1, 0.1) > error_bound_discrete(0.5, 0.1, 0.1)
    assert error_bound_discrete(0.5, 0.2, 0.1) > error_bound_discrete(0.5, 0.1, 0.1)
    assert error_bound_discrete(0.5, 0.1, 0.2) > error_bound_discrete(0.5, 0.1, 0.1)


def test_bounds_reject_expansive_scaling():
    with pytest.raises(InvalidConfig):
        error_bound_alpha(1.0, 0.1)
    with pytest.raises(InvalidConfig):
        error_bound_discrete(1.0, 0.1, 0.1)
    with pytest.raises(InvalidConfig):
        error_bound_alpha(0.5, -0.1)


# ------------------------------------------------------- closed-form dimension


def test_theoretical_dimension_values():
    def dim(values):
        return theoretical_box_dimension(ScalingVector.constant(values))

    assert dim([0.5, 0.5, 0.5, 0.5]) == pytest.approx(1.5, abs=1e-15)
    assert dim([0.1, 0.1, 0.1, 0.1]) == 1.0
    assert dim([0.6, 0.6]) == pytest.approx(1.0 + np.log2(1.2), abs=1e-12)


@pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
def test_theoretical_dimension_takes_the_piece_count_from_the_scaling(count):
    # N = scaling.size: 1 + log_N(N * 0.7), and 1 once kappa = N * 0.2 <= 1
    dim = theoretical_box_dimension(ScalingVector.broadcast(0.7, count))
    assert dim == pytest.approx(2.0 + math.log(0.7) / math.log(count), abs=1e-12)
    expected = 1.0 if count <= 5 else 1.0 + math.log(0.2 * count) / math.log(count)
    low = theoretical_box_dimension(ScalingVector.broadcast(0.2, count))
    assert low == pytest.approx(expected, abs=1e-12)


def test_theoretical_dimension_permutation_invariant():
    a = theoretical_box_dimension(ScalingVector.constant([0.7, 0.4, 0.5, 0.6]))
    b = theoretical_box_dimension(ScalingVector.constant([0.4, 0.6, 0.7, 0.5]))
    assert a == b


def test_theoretical_dimension_validation():
    from fif.maps import ScalingVector

    sv = ScalingVector([lambda x: 0.1 * np.ones_like(np.asarray(x))], domain=(0, 1))
    with pytest.raises(InvalidConfig, match="constant scalings required"):
        theoretical_box_dimension(sv)
    with pytest.raises(InvalidConfig, match="at least 2"):
        theoretical_box_dimension(ScalingVector.constant([0.5]))
    # |alpha_i| >= 1 is refused by the vector, so no dimension above 2 is reached
    with pytest.raises(InvalidConfig, match="sup norm"):
        ScalingVector.constant([3.0, 3.0])


def test_theoretical_dimension_accepts_scaling_vector():
    from fif.maps import ScalingVector

    sv = ScalingVector.constant([0.5, 0.5, 0.5, 0.5])
    assert theoretical_box_dimension(sv) == pytest.approx(1.5)


def test_dimension_report_validation():
    with pytest.raises(InvalidConfig):
        DimensionReport(1.2, (0.1,), (5,), 0.99, theoretical_dimension=2.5)
    with pytest.raises(InvalidConfig):
        DimensionReport(1.2, (0.1,), (5,), 0.99, kappa=-1.0)


# ----------------------------------------------------------- collinearity


def test_collinear_detection():
    x = np.linspace(0.0, 1.0, 9)
    assert knot_data_collinear(x, 2.0 * x + 1.0)
    assert not knot_data_collinear(x, x * (1 - x))
    # tiny wiggle relative to the value range still counts as a line
    assert knot_data_collinear(x, 5.0 * x + 1e-12 * np.sin(50 * x))


# ----------------------------------------------------------- box counting


def test_box_counting_line():
    t = np.linspace(0.0, 1.0, 10**5 + 1)
    report = box_counting_dimension(t, t)
    assert abs(report.estimated_dimension - 1.0) <= 0.05
    assert report.r_squared >= 0.99
    assert len(report.counts) == len(report.scales)


def test_box_counting_smooth_graph():
    t = np.linspace(0.0, 1.0, 2 * 10**5)
    report = box_counting_dimension(t, np.sin(2 * np.pi * t))
    assert abs(report.estimated_dimension - 1.0) <= 0.07


def test_box_counting_validation():
    t = np.linspace(0.0, 1.0, 10**5 + 1)
    with pytest.raises(InvalidConfig, match="at least 1e5"):
        box_counting_dimension(t[:100], t[:100])
    with pytest.raises(InvalidConfig, match="at least 5 scales"):
        box_counting_dimension(t, t, scales=(0.5, 0.25, 0.125))
    with pytest.raises(InvalidConfig, match="two decades"):
        box_counting_dimension(t, t, scales=(2.0**-4,) * 3 + (2.0**-5, 2.0**-6))
    with pytest.raises(InvalidConfig, match="power of two"):
        box_counting_dimension(t, t, scales=(0.3, 0.1, 0.03, 0.01, 0.003))
    with pytest.raises(InvalidConfig, match="equal length"):
        box_counting_dimension(t, t[:-1])


class _NoArray:
    """A point set that fails the test if it is ever turned into an array."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("an array was made before the box sizes were checked")


@pytest.mark.parametrize("size", [0.0, -2.0**-4, 2.0**-30, math.inf, math.nan, 2.0])
def test_box_counting_refuses_sizes_outside_the_cap_before_any_array(size):
    # a zero size once divided by zero, 2^-30 asked for 2^30 columns, and an
    # infinite one binned 0 columns without end
    scales = (size, 2.0**-4, 2.0**-8, 2.0**-10, 2.0**-12)
    with pytest.raises(InvalidConfig, match=r"box sizes must lie in \[2\^-24, 1\]"):
        box_counting_dimension(_NoArray(), _NoArray(), scales)
    assert fif.analysis.MAX_SIZE_EXP == 24 and fif.cli.MAX_SIZE_EXP == 24
    # both ends of the range are sizes: the points are read next
    with pytest.raises(AssertionError, match="array was made"):
        box_counting_dimension(_NoArray(), _NoArray(), (1.0, 2.0**-4, 2.0**-12, 2.0**-24) * 2)


def test_box_counting_degenerate():
    t = np.linspace(0.0, 1.0, 10**5 + 1)
    with pytest.raises(InvalidConfig, match="degenerate"):
        box_counting_dimension(t, np.zeros_like(t))  # flat: no y extent
    # a NaN or an infinity has no extent to normalize by
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig, match="non-finite"):
            box_counting_dimension(np.r_[t[:-1], bad], t)
        with pytest.raises(InvalidConfig, match="non-finite"):
            box_counting_dimension(t, np.r_[t[:-1], bad])


def brute_counts(x, y, invs):
    """Curve-aware box counts of the whole point set, one scale at a time, on
    full arrays: the reference for the blocked pass and its pyramid."""
    xn = (x - x.min()) / (x.max() - x.min())
    yn = (y - y.min()) / (y.max() - y.min())
    counts = []
    for inv in invs:
        ix = np.minimum((xn * inv).astype(np.int64), inv - 1)
        lo, hi = np.full(inv, np.inf), np.full(inv, -np.inf)
        np.minimum.at(lo, ix, yn)
        np.maximum.at(hi, ix, yn)
        seen = hi >= lo
        ilo = np.clip(np.floor(lo[seen] * inv).astype(np.int64), 0, inv - 1)
        ihi = np.clip(np.floor(hi[seen] * inv).astype(np.int64), 0, inv - 1)
        counts.append(int(np.sum(ihi - ilo + 1)))
    return counts


def _point_sets(cells=_BOX_BLOCK):
    # each set holds one point more than ``cells``, by default a block of the
    # counting pass
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 1)
    prob = FifProblem(part, ScalingVector.broadcast(0.55, 4), op,
                      make_function("poly:0,1,-1"))
    res = solve_fif(prob, cells=cells)
    t = np.linspace(0.0, 1.0, cells + 1)
    return {
        "grid": (res.grid, res.values),
        "orbit": chaos_game_render(prob, cells + 1, seed=3),
        "sine": (t, np.sin(5 * t)),
    }


@pytest.mark.parametrize(
    "scales", [DEFAULT_SCALES, tuple(2.0**-j for j in range(4, 12))],
    ids=["default", "4..11"],
)
def test_box_counting_pyramid_matches_per_scale_counts(scales):
    invs = [round(1 / s) for s in scales]
    for name, (x, y) in _point_sets().items():
        brute = brute_counts(x, y, invs)
        assert list(box_counting_dimension(x, y, scales).counts) == brute, name


@pytest.mark.parametrize("invs", [(10, 20, 50, 100, 1000), (3, 9, 27, 81, 243, 729)])
def test_box_counting_refuses_non_dyadic_sizes(invs):
    # box sizes 1/10 and 1/3 subdivide the square but are not 2^-j
    t = np.linspace(0.0, 1.0, 10**5 + 1)
    with pytest.raises(InvalidConfig, match="power of two"):
        box_counting_dimension(t, np.sin(5 * t), scales=[1.0 / i for i in invs])


@pytest.mark.parametrize("size", [_BOX_BLOCK - 1, _BOX_BLOCK, _BOX_BLOCK + 1, 10**5 + 1,
                                  _BOX_BLOCK + 3, _BOX_BLOCK + 40, _BOX_BLOCK + 63])
def test_box_counting_blocks_match_whole_array_counts(size):
    # a partial last block, an exact block, one point over, a set of fewer
    # points than a block, and last blocks shorter than the sortedness
    # prefix test (cut from twice as many points): the counts never see
    # the blocks
    invs = [round(1 / s) for s in DEFAULT_SCALES]
    sets = _point_sets(_BOX_BLOCK if size <= _BOX_BLOCK + 1 else 2 * _BOX_BLOCK)
    for name, (x, y) in sets.items():
        x, y = x[:size], y[:size]
        assert list(box_counting_dimension(x, y).counts) == brute_counts(x, y, invs), name


@pytest.mark.parametrize("finest", [12, 18, 20])
def test_box_counting_runs_keep_every_block_end(finest):
    # sorted sets whose every block starts and ends on a spike: one spans
    # the unit interval densely; in the other each block's first and last
    # points sit alone in their columns, with empty columns before, between
    # and after the block's two runs.  Both equal the whole-array counts and
    # those of a shuffled copy, which is scattered point by point.  At 2^18
    # columns only the narrow blocks of the second set have the points per
    # column to be reduced by runs; at 2^20 every sorted block is scattered.
    scales = tuple(2.0**-j for j in range(finest - 12, finest + 1, 3))
    invs = [round(1 / s) for s in scales]
    size = 3 * _BOX_BLOCK + 20001
    ends = [(lo, min(lo + _BOX_BLOCK, size) - 1) for lo in range(0, size, _BOX_BLOCK)]
    blocks = []
    for b, (lo, hi) in enumerate(ends):
        body = b + 0.01 + np.linspace(0.0, 0.01, hi - lo - 1)
        body[body.size // 2 :] += 0.02
        blocks.append(np.r_[b, body, b + 0.05])
    order = np.random.default_rng(11).permutation(size)
    for x in (np.linspace(0.0, 1.0, size), np.concatenate(blocks)):
        assert np.all(np.diff(x) >= 0)
        y = np.sin(40 * x)
        for lo, hi in ends:
            y[lo], y[hi] = 3.0, -3.0
        counts = list(box_counting_dimension(x, y, scales).counts)
        assert counts == brute_counts(x, y, invs)
        assert counts == list(box_counting_dimension(x[order], y[order], scales).counts)


def test_box_counting_ignores_point_order():
    x, y = _point_sets()["grid"]
    order = np.random.default_rng(5).permutation(x.size)
    counts = box_counting_dimension(x, y).counts
    assert box_counting_dimension(x[order], y[order]).counts == counts


def test_box_counting_memory_beyond_its_inputs_is_fixed():
    # normalizing and binning run one block at a time: past the inputs, the
    # peak is the same for 2^17 and 2^19 points
    def peak(size):
        x = np.linspace(0.0, 1.0, size)
        y = np.sin(7 * x) + 0.1 * np.sin(300 * x)
        tracemalloc.start()
        try:
            box_counting_dimension(x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10**5)  # the one-time set-up of a first call
    assert abs(peak(2**19) - peak(2**17)) <= 2**10


def test_box_counting_bins_raw_y():
    # y is binned raw and only the columns' extremes are normalized: far
    # from 0 (where rounding coarsens y) and on a tiny span, the counts are
    # still those of the whole normalized set
    x, y = _point_sets()["grid"]
    tiny = 0.5 + 1e-9 * (y - y.min()) / (y.max() - y.min())
    invs = [round(1 / s) for s in DEFAULT_SCALES]
    for ys in (y + 1e8, tiny):
        assert list(box_counting_dimension(x, ys).counts) == brute_counts(x, ys, invs)
