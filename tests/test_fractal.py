import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fif
from fif.errors import (
    InvalidConfig,
    MatchingConditionError,
    NonConvergence,
)
from fif import cli, fractal
from fif.fractal import (
    ROUNDOFF,
    FifProblem,
    _affine_scan,
    _build_plan,
    _derivative_levels,
    chaos_game_render,
    solve_fif,
)
from fif.kernels import ramp, smooth_bump, smoothstep
from fif.maps import Partition, ScalingVector
from fif.operators import (
    FunctionInput,
    OperatorConfig,
    input_derivative,
    nn_eval,
    nn_eval_derivative,
)
from fif.registry import make_function
from reference import rb_apply


def sine_problem(alpha=0.3, n=32, count=4, a=0.0, b=np.pi):
    part = Partition.uniform(a, b, count)
    sv = ScalingVector.broadcast(alpha, count)
    op = OperatorConfig(ramp(), a, b, n)
    return FifProblem(part, sv, op, make_function("sin"), "alpha")


# ------------------------------------------------------------- basic solves


def test_zero_scaling_returns_the_function_itself():
    prob = sine_problem(alpha=0.0)
    res = solve_fif(prob, cells=4 * 2**8)
    assert np.max(np.abs(res.values - np.sin(res.grid))) <= 1e-12
    # 4^5 cells: the K = 5 fill levels, then the certifying sweep
    assert res.iterations == 5 + 1


def test_result_metadata():
    prob = sine_problem(alpha=0.3)
    res = solve_fif(prob, cells=4 * 2**8, tol=1e-9)
    assert res.grid.size == 4 * 2**8 + 1
    assert res.residual <= 1e-9
    assert res.y_min <= res.values.min() and res.y_max >= res.values.max()
    assert res.diagnostics["variant"] == "alpha"
    assert res.diagnostics["junction_mismatch"] <= 1e-9
    assert res.diagnostics["knots_checked"] == 3


def test_knot_interpolation_alpha_variant():
    prob = sine_problem(alpha=0.4)
    res = solve_fif(prob, cells=4 * 2**10)
    knots = prob.partition.knots
    idx = np.searchsorted(res.grid, knots)
    assert np.max(np.abs(res.values[idx] - np.sin(knots))) <= 1e-9


def test_self_referential_residual_via_reapplication():
    prob = sine_problem(alpha=0.5, n=16)
    res = solve_fif(prob, cells=4 * 2**9, tol=1e-10)
    again = rb_apply(prob, res.values)
    assert np.max(np.abs(again - res.values)) <= 1e-10


def test_two_starting_points_agree():
    # Picard from the default start and from the knot polyline land on the
    # same fixed point
    prob = sine_problem(alpha=0.4, n=32)
    tol = 1e-9
    res = solve_fif(prob, cells=4 * 2**9, tol=tol)
    part = prob.partition
    grid = res.grid
    poly = np.interp(grid, part.knots, np.sin(part.knots))
    phi = poly
    threshold = tol * (1.0 - prob.scaling.sup_norm)
    for _ in range(400):
        nxt = rb_apply(prob, phi)
        change = np.max(np.abs(nxt - phi))
        phi = nxt
        if change <= threshold:
            break
    assert np.max(np.abs(phi - res.values)) <= 2 * tol


def test_contraction_estimate_between_iterates():
    prob = sine_problem(alpha=0.45, n=16)
    part = prob.partition
    grid = np.linspace(part.a, part.b, 4 * 2**8 + 1)
    f_start = np.sin(grid)
    b_start = nn_eval(prob.operator, prob.f, grid)
    b_start[0], b_start[-1] = np.sin(part.a), np.sin(part.b)  # endpoint data pins
    gap0 = np.max(np.abs(f_start - b_start))
    gap1 = np.max(np.abs(rb_apply(prob, f_start) - rb_apply(prob, b_start)))
    slack = 1e-12 + 2 * (grid[1] - grid[0])
    assert gap1 <= prob.scaling.sup_norm * gap0 + slack


def test_linearity_of_the_construction():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.4, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 32)
    lam, mu = 1.7, -0.8
    f = make_function("sin")
    g = make_function("exp")
    combo = FunctionInput.analytic(lambda x: lam * np.sin(x) + mu * np.exp(x))
    tol = 1e-10
    kw = dict(cells=4 * 2**9, tol=tol)
    r_f = solve_fif(FifProblem(part, sv, op, f, "alpha"), **kw)
    r_g = solve_fif(FifProblem(part, sv, op, g, "alpha"), **kw)
    r_c = solve_fif(FifProblem(part, sv, op, combo, "alpha"), **kw)
    gap = np.max(np.abs(r_c.values - lam * r_f.values - mu * r_g.values))
    assert gap <= 5 * tol


def test_variable_scaling_solve():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector(
        [lambda x: 0.2 + 0.2 * np.asarray(x)] * 4, domain=(0.0, 1.0)
    )
    op = OperatorConfig(ramp(), 0.0, 1.0, 32)
    prob = FifProblem(part, sv, op, make_function("sin"), "alpha")
    res = solve_fif(prob, cells=4 * 2**9, tol=1e-9)
    assert res.residual <= 1e-9
    knots = part.knots
    idx = np.searchsorted(res.grid, knots)
    assert np.max(np.abs(res.values[idx] - np.sin(knots))) <= 1e-9


# ------------------------------------------------------------- grid solver


def plain_picard(problem, cells, tol, max_sweeps=10**4):
    """Reference solve: one ``rb_apply`` sweep at a time from the height.

    Returns the first iterate ``m`` that its sweep moved by at most
    ``tol * (1 - contraction)``, and ``m``.
    """
    pieces = problem.pieces()
    part = problem.partition
    phi = pieces.height_eval(np.linspace(part.a, part.b, cells + 1))
    threshold = tol * (1.0 - problem.scaling.sup_norm)
    for m in range(1, max_sweeps + 1):
        nxt = rb_apply(problem, phi)
        change = np.max(np.abs(nxt - phi))
        phi = nxt
        if change <= threshold:
            return phi, m
    raise AssertionError(f"no convergence in {max_sweeps} sweeps")


@pytest.mark.parametrize("count", [3, 5])
def test_doubling_matches_interpolating_picard(count):
    # N = 3 and 5 put cycles into the pre-image index map, so Picard
    # contracts by only alpha per sweep there
    prob = sine_problem(alpha=0.9, count=count, b=1.0)
    tol = 1e-9
    cells = count * 2**8
    ref, sweeps = plain_picard(prob, cells, tol)
    res = solve_fif(prob, cells=cells, tol=tol)
    assert np.max(np.abs(res.values - ref)) <= 2 * tol
    assert res.residual <= tol * (1 - 0.9)
    # passes + K + 1, against hundreds of Picard sweeps
    assert res.iterations < 16 < sweeps


def test_budget_counts_doubling_passes():
    # 0.9^(2^9) is below the roundoff and 0.9^(2^8) is not: nine passes on
    # the 64-cell coarse grid, one fill level, the certifying sweep
    prob = sine_problem(alpha=0.9, count=5, b=1.0)
    tol = 1e-12
    cells = 5 * 2**6
    res = solve_fif(prob, cells=cells, tol=tol)
    assert res.iterations == 9 + 1 + 1
    same = solve_fif(prob, cells=cells, tol=tol, max_sweeps=9)
    assert np.array_equal(same.values, res.values) and same.iterations == 11
    # 0.9^(2^7) = 1.4e-6 leaves the certifying sweep a move above tol / 10
    with pytest.raises(NonConvergence) as info:
        solve_fif(prob, cells=cells, tol=tol, max_sweeps=7)
    assert info.value.iterations == 7 + 1 + 1


def test_slow_contraction_takes_few_steps():
    # Picard contracts by 0.99 per sweep here and needs thousands of sweeps;
    # doubling needs 12 passes, well inside the default budget
    prob = sine_problem(alpha=0.99, count=5, b=1.0)
    res = solve_fif(prob, cells=5 * 2**16)
    assert res.iterations == 12 + 1 + 1
    assert res.residual <= 1e-12


def exact_knots(problem):
    # the nearest fractions with small denominators, which is what the
    # float knots stand for
    return [Fraction(k).limit_denominator(10**6) for k in problem.partition.knots]


def exact_grid(problem, cells):
    """The render grid of ``cells`` cells in exact fractions.

    Uniform partitions: ``cells`` even steps.  Otherwise ``G_K``, built level
    by level from the endpoints through the exact maps.
    """
    knots = exact_knots(problem)
    a, b = knots[0], knots[-1]
    if problem.partition.is_uniform:
        return [a + (b - a) * Fraction(k, cells) for k in range(cells + 1)]
    x = [a, b]
    while len(x) - 1 < cells:
        x = [a] + [
            lo + (hi - lo) * (v - a) / (b - a)
            for lo, hi in zip(knots, knots[1:])
            for v in x[1:]
        ]
    return x


def test_knot_checks_take_one_pass_over_the_knots(monkeypatch):
    # one scaling evaluation for the plan and one for all the junctions,
    # however many subintervals there are
    calls = []
    values_at = ScalingVector.values_at

    def counted(self, i, x):
        calls.append(np.size(i))
        return values_at(self, i, x)

    monkeypatch.setattr(ScalingVector, "values_at", counted)
    prob = sine_problem(alpha=0.3, n=16, count=512, b=1.0)
    res = solve_fif(prob, cells=512 * 16)
    assert res.diagnostics["knots_checked"] == 511
    assert len(calls) <= 2


def orbit_oracle(problem, points, order=0):
    """phi at the exact ``points``, summed along backward orbits.

    Unrolling the equation along ``x_0 = x, x_{d+1} = L_i^-1(x_d)`` gives
    ``phi(x) = sum_d w_d (height(x_d) - alpha_i(x_{d+1}) base(x_{d+1}))``
    with ``w_d`` the product of the scalings met so far, read from the
    scaling entries rather than through ``values_at``.  The orbit runs in
    exact fractions: in floats a map such as ``x -> 5x`` multiplies the
    rounding error by 5 at every step, and a 1-ulp offset from a grid point
    is enough to leave the grid.  Derivative level ``order`` of a smooth
    problem has height ``f^(order)``, base ``(Lf)^(order)`` and each scaling
    divided by its map's slope to the power ``order``.
    """
    pieces = problem.pieces()
    if order:
        cfg, f = problem.operator, problem.f
        pieces = pieces._replace(
            base_eval=lambda xs: nn_eval_derivative(cfg, f, order, xs),
            height_eval=lambda xs: input_derivative(f, order, xs, cfg.h),
        )
    damp = problem.partition.slopes ** -order
    scaling = problem.scaling
    knots = exact_knots(problem)
    a, span = knots[0], knots[-1] - knots[0]
    inner = knots[1:-1]
    maps = [(span / (hi - lo), a - lo * span / (hi - lo)) for lo, hi in zip(knots, knots[1:])]
    depth = math.ceil(math.log(1e-16) / math.log(scaling.sup_norm * np.max(damp)))
    x = list(points)
    xf = np.array([float(v) for v in x])
    total = np.zeros(len(x))
    weight = np.ones(len(x))
    for _ in range(depth):
        # internal knots go left, as in Partition.locate
        i = [sum(v > k for k in inner) for v in x]
        x = [v * maps[j][0] + maps[j][1] for v, j in zip(x, i)]
        pf = np.array([float(v) for v in x])
        entries = [scaling.entries[j] for j in i]
        coeff = np.array([e(v) if callable(e) else e for e, v in zip(entries, pf)]) * damp[i]
        total += weight * (pieces.height_eval(xf) - coeff * pieces.base_eval(pf))
        weight = weight * coeff
        xf = pf
    return total


def orbit_case(knots, alpha, name):
    if isinstance(knots, int):
        part = Partition.uniform(0.0, 1.0, knots)
    else:
        part = Partition(np.asarray(knots, dtype=float))
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    return FifProblem(part, ScalingVector.constant(alpha), op, make_function(name))


@pytest.mark.parametrize(
    "knots, alpha, name, cells, stride",
    [
        (5, [0.9] * 5, "sin", 5 * 2**10, 37),
        (4, [0.3, -0.5, 0.6, 0.2], "exp", 4 * 2**10, 5),
    ],
)
def test_doubling_matches_orbit_oracle(knots, alpha, name, cells, stride):
    prob = orbit_case(knots, alpha, name)
    tol = 1e-9
    res = solve_fif(prob, cells=cells, tol=tol)
    g = np.arange(0, cells + 1, stride)
    exact = exact_grid(prob, cells)
    ref = orbit_oracle(prob, [exact[k] for k in g])
    assert np.max(np.abs(res.values[g] - ref)) <= 2 * tol


NON_UNIFORM_CASES = [
    ([0.0, 0.25, 1.0], [0.3, 0.5], "exp", 256, 256),
    ([0.0, 0.25, 1.0], [0.3, 0.5], "exp", 4096, 4096),
    ([0.0, 0.3, 1.0], [0.6, -0.7], "sin", 256, 256),
    ([0.0, 0.1, 0.45, 1.0], [0.5, 0.8, -0.6], "cos", 384, 729),
]


@pytest.mark.parametrize("knots, alpha, name, cells, rendered", NON_UNIFORM_CASES)
def test_non_uniform_partition_renders_closed_grid(knots, alpha, name, cells, rendered):
    # the render grid is G_K with N^K >= cells: closed under every pre-image
    # map, so the doubling solve applies and nothing is interpolated
    prob = orbit_case(knots, alpha, name)
    tol = 1e-10
    res = solve_fif(prob, cells=cells, tol=tol)
    assert res.residual <= tol
    assert res.diagnostics["cells"] == rendered == res.grid.size - 1
    assert np.all(np.diff(res.grid) > 0)
    count = prob.partition.size
    assert np.array_equal(res.grid[:: rendered // count], prob.partition.knots)
    exact = exact_grid(prob, cells)
    assert np.max(np.abs(res.grid - [float(v) for v in exact])) <= 1e-15


@pytest.mark.parametrize(
    "knots, alpha, name, cells", [case[:4] for case in NON_UNIFORM_CASES]
)
def test_picard_error_is_bounded_through_grid_slack(knots, alpha, name, cells):
    # the true error is at most grid_slack / (1 - contraction) + tol, where
    # grid_slack is the pre-image maps' distance from the render grid.  On
    # G_K that distance is zero, so the error against the exact-orbit
    # oracle is within tol at every grid point
    prob = orbit_case(knots, alpha, name)
    tol = 1e-10
    res = solve_fif(prob, cells=cells, tol=tol)
    ref = orbit_oracle(prob, exact_grid(prob, cells))
    assert np.max(np.abs(res.values - ref)) <= tol


def sine_scaling(count, amp):
    # the CLI's sine:amp family on [0, 1]
    fn = lambda x: amp * (0.55 + 0.45 * np.sin(2 * np.pi * np.asarray(x)))
    return ScalingVector([fn] * count, domain=(0.0, 1.0))


def fill_problem(knots, scaling):
    if isinstance(knots, int):
        part = Partition.uniform(0.0, 1.0, knots)
    else:
        part = Partition(np.asarray(knots, dtype=float))
    count = part.size
    if scaling == "sine":
        sv = sine_scaling(count, 0.7)
    else:
        sv = ScalingVector.constant(np.linspace(0.6, -0.5, count))
    return FifProblem(part, sv, OperatorConfig(ramp(), 0.0, 1.0, 16), make_function("sin"))


# (knots or piece count, cells asked, coarse cells c, fill levels K) with
# rendered cells c N^K.  A uniform grid of N * 2^k cells has c = 1 for N = 2,
# c = 2^k for odd N and c in {1, 2} for N = 4; G_K always has c = 1
FILL_CASES = [
    (2, 2 * 2**7, 1, 8),
    (3, 3 * 2**6, 64, 1),
    (4, 4 * 2**6, 1, 4),
    (4, 4 * 2**5, 2, 3),
    (5, 5 * 2**6, 64, 1),
    (NON_UNIFORM_CASES[3][0], 384, 1, 6),
    ([0.0, 0.1, 0.3, 0.6, 0.8, 1.0], 5 * 16, 1, 3),
]


@pytest.mark.parametrize("scaling", ["constant", "sine"])
@pytest.mark.parametrize("knots, cells, coarse, levels", FILL_CASES)
def test_level_fill_matches_orbit_oracle_and_picard(knots, cells, coarse, levels, scaling):
    prob = fill_problem(knots, scaling)
    tol = 1e-10
    res = solve_fif(prob, cells=cells, tol=tol)
    diag = res.diagnostics
    assert (diag["coarse_cells"], diag["fill_levels"]) == (coarse, levels)
    rendered = coarse * prob.partition.size**levels
    assert diag["cells"] == rendered
    if coarse == 1:
        # the two fixed ends need no doubling pass: the fill is the discrete
        # fixed point, and one sweep certifies it
        assert res.iterations == levels + 1
    g = np.arange(0, rendered + 1, 7)
    exact = exact_grid(prob, rendered)
    ref = orbit_oracle(prob, [exact[i] for i in g])
    assert np.max(np.abs(res.values[g] - ref)) <= 2 * tol
    if prob.partition.is_uniform:
        picard, _ = plain_picard(prob, cells, tol)
        assert np.max(np.abs(res.values - picard)) <= 2 * tol


@pytest.mark.parametrize("count, cells, coarse, levels", [
    (4, 4 * 2**6, 1, 4),
    (4, 4 * 2**5, 2, 3),
    (3, 3 * 2**5, 32, 1),
])
def test_level_fill_solves_both_smooth_derivative_levels(count, cells, coarse, levels):
    part = Partition.uniform(0.0, 1.0, count)
    alpha = 0.7 * part.slopes[0] ** 2  # below slope^r for r = 2
    # few nodes, so that (Lf)^(k) is far enough from f^(k) for a real solve
    op = OperatorConfig(smoothstep(2), 0.0, 1.0, 8, r=2)
    prob = FifProblem(part, ScalingVector.broadcast(alpha, count), op,
                      make_function("sin"), "smooth")
    tol = 1e-10
    res = solve_fif(prob, cells=cells, tol=tol)
    exact = exact_grid(prob, cells)
    g = np.arange(0, cells + 1, 5)
    x = _build_plan(prob, cells)[1]
    plans = _derivative_levels(prob, x)
    for j in (1, 2):
        info = res.diagnostics["derivative_levels"][j]
        assert (info["coarse_cells"], info["fill_levels"]) == (coarse, levels)
        ref = orbit_oracle(prob, [exact[i] for i in g], order=j)
        assert np.max(np.abs(res.derivatives[j][g] - ref)) <= 2 * tol
        # plain Picard on the level's own update, one sweep at a time, from
        # zero: the fixed point does not depend on where it starts
        plan = plans[j][0]
        phi, threshold = np.zeros_like(plan.offset), tol * (1.0 - plan.contraction)
        while True:
            nxt = plan.apply(phi)
            moved = np.max(np.abs(nxt - phi))
            phi = nxt
            if moved <= threshold:
                break
        assert np.max(np.abs(res.derivatives[j] - phi)) <= 2 * tol


@pytest.mark.parametrize("scaling", ["constant", "sine"])
@pytest.mark.parametrize("count", [3, 5])
def test_solve_reaches_the_orbit_oracle_to_rounding(count, scaling):
    # N^K does not close these grids (c = 256), yet doubling runs until no
    # composed coefficient exceeds the roundoff: the result is the discrete
    # fixed point up to rounding even for a tol that one sweep would meet
    part = Partition.uniform(0.0, 1.0, count)
    if scaling == "sine":
        sv = sine_scaling(count, 0.95)
    else:
        sv = ScalingVector.broadcast(0.95, count)
    prob = FifProblem(part, sv, OperatorConfig(ramp(), 0.0, 1.0, 16), make_function("sin"))
    cells = count * 2**8
    res = solve_fif(prob, cells=cells, tol=1e-2)
    assert res.diagnostics["coarse_cells"] == 2**8
    g = np.arange(0, cells + 1, 11)
    exact = exact_grid(prob, cells)
    ref = orbit_oracle(prob, [exact[i] for i in g])
    c = res.diagnostics["contraction"]
    bound = 64 * np.finfo(float).eps * np.max(np.abs(res.values)) / (1 - c)
    assert np.max(np.abs(res.values[g] - ref)) <= bound


def recorded_index_cells(monkeypatch):
    calls = []
    grid_index = fractal._grid_index

    def recorded(n_sub, cells):
        calls.append(cells)
        return grid_index(n_sub, cells)

    monkeypatch.setattr(fractal, "_grid_index", recorded)
    return calls


@pytest.mark.parametrize("shape, cells, coarse", [
    ("dimension", 4**5, 1),
    ("converge", 5 * 2**6, 64),
    ("smooth", 4 * 2**5, 2),
])
def test_solve_indexes_only_the_coarse_grid(monkeypatch, shape, cells, coarse):
    # every sweep and fill level reads one strided view; only pointer jumping
    # on the c + 1 coarse points builds an explicit pre-image index
    if shape == "converge":
        prob = sine_problem(alpha=0.95, n=16, count=5, b=1.0)
    else:
        part = Partition.uniform(0.0, 1.0, 4)
        if shape == "dimension":
            prob = FifProblem(part, ScalingVector.broadcast(0.55, 4),
                              OperatorConfig(ramp(), 0.0, 1.0, 1), make_function("poly:0,1,-1"))
        else:  # r = 2 with alpha below slope^2, as in the level-fill test above
            prob = FifProblem(part, ScalingVector.broadcast(0.7 * part.slopes[0] ** 2, 4),
                              OperatorConfig(smoothstep(2), 0.0, 1.0, 8, r=2),
                              make_function("sin"), "smooth")
    calls = recorded_index_cells(monkeypatch)
    res = solve_fif(prob, cells=cells, tol=1e-10)
    solves = [res.diagnostics, *res.diagnostics.get("derivative_levels", {}).values()]
    assert [d["coarse_cells"] for d in solves] == [coarse] * len(solves)
    assert calls == [coarse] * len(solves)


@pytest.mark.parametrize("count, cells, coarse", [(4, 4**4, 1), (5, 5 * 2**6, 64)])
def test_every_budget_indexes_only_the_coarse_grid(monkeypatch, count, cells, coarse):
    # whatever the budget, doubling runs on the coarse grid alone
    prob = sine_problem(alpha=0.9, n=16, count=count, b=1.0)
    calls = recorded_index_cells(monkeypatch)
    for budget in (1, 2, 5, 6, 1000):
        calls.clear()
        try:
            res = solve_fif(prob, cells=cells, tol=1e-12, max_sweeps=budget)
        except NonConvergence:
            assert coarse > 1
        else:
            assert res.diagnostics["coarse_cells"] == coarse
        assert calls == [coarse]


def test_certifying_sweep_is_the_only_allocating_sweep(monkeypatch):
    # on a c = 1 grid the fill writes in place and one sweep certifies it
    allocating = []
    apply = fractal._GridPlan.apply

    def recorded(self, values, out=None, s=1):
        allocating.append(out is None)
        return apply(self, values, out, s)

    monkeypatch.setattr(fractal._GridPlan, "apply", recorded)
    prob = sine_problem(alpha=0.55, n=1, count=4, b=1.0)
    res = solve_fif(prob, cells=4**5)
    assert res.diagnostics["coarse_cells"] == 1
    assert allocating.count(True) == 1
    assert allocating.count(False) == 5  # one per fill level


def test_certifying_sweep_allocates_nothing_beyond_its_result():
    # 2^20 cells on a c = 1 grid: the filled values and the certified ones
    # are the solve's only full-grid arrays; the residual is read off their
    # difference written over the first
    prob = sine_problem(alpha=0.55, n=1, count=4, b=1.0)
    plan = _build_plan(prob, 2**20)[0]
    tracemalloc.start()
    try:
        values = plan.solve(1e-9, 100)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * values.nbytes + 2**16


def test_build_plan_evaluates_a_shared_scaling_once_per_point():
    sizes = []

    def shared(x):
        sizes.append(np.size(x))
        return 0.3 + 0.2 * np.sin(5.0 * np.asarray(x))

    count, cells = 8, 8 * 2**10
    sv = ScalingVector([shared] * count, domain=(0.0, 1.0))
    prob = FifProblem(Partition.uniform(0.0, 1.0, count), sv,
                      OperatorConfig(ramp(), 0.0, 1.0, 4), make_function("sin"))
    sizes.clear()
    plan, x, _ = _build_plan(prob, cells)
    assert sizes == [cells // count + 1]
    tiled = sv.values_at(np.arange(1, count + 1)[:, None], x[::count])
    assert sv.rows_at(x[::count]).tobytes() == tiled.tobytes()
    # piece i reads alpha_i at the pre-images of points 1..M of its row
    assert plan.rows.tobytes() == tiled[:, 1:].tobytes()


def traced_peak(run, size, small):
    """Peak traced bytes of ``run(size)``, once ``run(small)`` has paid the
    one-time set-up of a first call in a fresh process."""
    run(small)
    tracemalloc.start()
    try:
        run(size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["alpha", "discrete"])
@pytest.mark.parametrize("count", [4, 5])
def test_constant_scaling_solve_is_bitwise_the_per_cell_rows(variant, count):
    # constants stay one coefficient column; the same values as callables
    # fill a coefficient per cell, and the solve must not tell them apart
    # (N = 5 also takes the coarse solve's gather over C = 2^10 cells)
    consts = [0.55, -0.3, 0.2, 0.45, -0.1][:count]
    funcs = [lambda x, c=c: np.full_like(x, c) for c in consts]
    part = Partition.uniform(0.0, 1.0, count)
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)

    def solve(sv):
        prob = FifProblem(part, sv, op, make_function("sin"), variant)
        return solve_fif(prob, cells=count * 2**10, tol=1e-12)

    const = solve(ScalingVector.constant(consts))
    rows = solve(ScalingVector(funcs, domain=(0.0, 1.0)))
    assert const.values.tobytes() == rows.values.tobytes()
    assert np.float64(const.residual).tobytes() == np.float64(rows.residual).tobytes()
    assert const.iterations == rows.iterations


def traced_slope(run, small, big):
    """Traced peak bytes per unit of size between ``run(small)`` and
    ``run(big)``: whatever does not grow with the size, such as the
    operator's fixed-size tiles, drops out.  Allows 4 KiB of Python object
    noise between the two peaks."""
    return (traced_peak(run, big, 64) - traced_peak(run, small, 64) - 2**12) / (big - small)


def solve_slope(sv):
    prob = FifProblem(Partition.uniform(0.0, 1.0, 4), sv, OperatorConfig(ramp(), 0.0, 1.0, 32),
                      make_function("sin"))
    return traced_slope(lambda c: solve_fif(prob, cells=c), 2**16, 2**18)


def test_constant_scaling_solve_holds_no_per_cell_coefficients():
    # grid, height, base and the plan's offset while it is built; then grid,
    # offset, and the filled and the certified values
    assert solve_slope(ScalingVector.broadcast(0.55, 4)) <= 32


def test_callable_scaling_solve_adds_only_its_coefficient_rows():
    # the plan's build also holds the callable's rows of coefficients
    sv = ScalingVector([lambda x: 0.3 + 0.2 * np.sin(5.0 * x)] * 4, domain=(0.0, 1.0))
    assert solve_slope(sv) <= 40


def test_constant_scaling_smooth_solve_holds_no_per_cell_coefficients():
    # level 0 as above, then each derivative level keeps only its offset,
    # built from f^(k) and (Lf)^(k): 64 bytes per cell at r = 2
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smooth_bump(), 0.0, 1.0, 256, r=2)
    prob = FifProblem(part, ScalingVector.broadcast(0.05, 4), op, make_function("sin"),
                      "smooth")
    run = lambda c: solve_fif(prob, cells=c)
    assert traced_slope(run, 2**16, 2**18) <= 64


@pytest.mark.parametrize("count, cells, levels, budget", [
    # a c = 1 grid of K = 4 levels: no doubling pass, so every budget suffices
    (4, 4**4, 4, 1), (4, 4**4, 4, 4), (4, 4**4, 4, 5), (4, 4**4, 4, 6),
    # c = 32, K = 1: 0.9^(2^9) is the first power below the roundoff
    (3, 3 * 2**5, 1, 2), (3, 3 * 2**5, 1, 3), (3, 3 * 2**5, 1, 257), (3, 3 * 2**5, 1, 513),
    # c = 64, K = 1: two passes short of the roundoff, and just enough
    (5, 5 * 2**6, 1, 7), (5, 5 * 2**6, 1, 9),
])
def test_sweep_budget_around_the_fill_levels(count, cells, levels, budget):
    # a budget bounds the doubling passes: the solve converges within it or
    # reports the passes it spent, plus the fill and the certifying sweep
    prob = sine_problem(alpha=0.9, n=16, count=count, b=1.0)
    tol = 1e-12
    passes = 0 if cells == count**levels else 9
    try:
        res = solve_fif(prob, cells=cells, tol=tol, max_sweeps=budget)
    except NonConvergence as err:
        assert budget < passes
        assert err.iterations == budget + levels + 1
        assert err.values.size == cells + 1
        assert err.residual > tol * (1 - 0.9)
    else:
        assert budget >= passes
        assert res.iterations == passes + levels + 1
        assert res.residual <= tol * (1 - 0.9)
        assert res.diagnostics["fill_levels"] == levels
        ref, _ = plain_picard(prob, cells, tol)
        assert np.max(np.abs(res.values - ref)) <= 2 * tol


def test_partition_keeps_its_own_knots():
    # editing the array a partition was made from changes no later solve
    knots = np.array([0.0, 0.3, 1.0])
    prob = orbit_case(knots, [0.6, -0.7], "sin")
    before = solve_fif(prob, cells=256).values
    knots[1] = 0.6
    assert prob.partition.knots[1] == 0.3
    assert np.array_equal(solve_fif(prob, cells=256).values, before)


def test_non_uniform_knots_are_grid_points_and_checked():
    part = Partition(np.array([0.0, 0.3, 1.0]))
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    prob = FifProblem(part, ScalingVector.constant([0.3, 0.5]), op, make_function("exp"))
    res = solve_fif(prob, cells=256)
    assert res.diagnostics["knots_checked"] == 1
    assert res.diagnostics["knot_deviation"] <= 1e-9
    assert res.diagnostics["junction_mismatch"] <= 1e-9


# ------------------------------------------------------------ one-sweep map


def test_apply_with_zero_scaling_returns_height():
    prob = sine_problem(alpha=0.0, n=24)
    grid = np.linspace(0.0, np.pi, 4 * 2**8 + 1)
    poly = np.interp(grid, prob.partition.knots, np.sin(prob.partition.knots))
    out = rb_apply(prob, poly)
    assert np.max(np.abs(out - np.sin(grid))) <= 1e-12


def test_apply_on_a_grid_the_piece_count_does_not_divide():
    # 256 cells at N = 3: the pre-image of grid point g in piece i is grid
    # point 3 g - (i - 1) 256, so the sweep is an exact gather
    prob = sine_problem(alpha=0.6, n=16, count=3, b=1.0)
    part = prob.partition
    x = np.linspace(0.0, 1.0, 257)
    phi = np.sin(x) + x * (1.0 - x) * np.cos(7.0 * x)
    out = rb_apply(prob, phi)
    i = part.locate(x)
    pre = part.inverse(i, x)
    alpha = prob.scaling.values_at(i, pre)
    base = nn_eval(prob.operator, prob.f, pre)
    want = alpha * np.interp(pre, x, phi) + np.sin(x) - alpha * base
    want[0], want[-1] = np.sin(0.0), np.sin(1.0)
    assert np.max(np.abs(out - want)) <= 1e-13


def linear_scaling(count, lo, hi):
    # the CLI's linear:lo,hi family on [0, 1]
    fn = lambda x: lo + (hi - lo) * np.asarray(x)
    return ScalingVector([fn] * count, domain=(0.0, 1.0))


@pytest.mark.parametrize("scaling", ["constant", "sine", "linear"])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 8])
def test_strided_sweep_is_bitwise_the_reference_gather(count, scaling):
    part = Partition.uniform(0.0, 1.0, count)
    sv = {
        "constant": ScalingVector.constant(np.linspace(0.6, -0.5, count)),
        "sine": sine_scaling(count, 0.7),
        "linear": linear_scaling(count, 0.9, 0.1),
    }[scaling]
    prob = FifProblem(part, sv, OperatorConfig(ramp(), 0.0, 1.0, 16), make_function("exp"))
    cells = count**2 * 2**5
    plan, x, _ = _build_plan(prob, cells)
    phi = np.exp(x) + x * (1.0 - x) * np.cos(7.0 * x)
    want = rb_apply(prob, phi)
    assert plan.apply(phi).tobytes() == want.tobytes()
    # a fill level writes the stride-s points in place while reading stride N s
    for s in (count, count * 2):
        filled = phi.copy()
        assert plan.apply(filled, filled, s) is filled
        assert filled[::s].tobytes() == want[::s].tobytes()
        kept = np.arange(cells + 1) % s != 0
        assert filled[kept].tobytes() == phi[kept].tobytes()


# ------------------------------------------------------------- node variant


def exp_table(count):
    knots = np.linspace(0.0, 1.0, count + 1)
    return knots, np.exp(knots)


def test_discrete_zero_scaling_gives_plain_quasi_interpolant():
    knots, vals = exp_table(16)
    part = Partition(knots)
    sv = ScalingVector.broadcast(0.0, 16)
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)
    prob = FifProblem(part, sv, op, FunctionInput.tabulated(vals), "discrete")
    res = solve_fif(prob, cells=16 * 2**6)
    knot_op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    want = nn_eval(knot_op, FunctionInput.tabulated(vals), res.grid)
    want[0], want[-1] = vals[0], vals[-1]
    assert np.max(np.abs(res.values - want)) <= 1e-12


def test_discrete_equal_grids_fixed_point_is_the_quasi_interpolant():
    # when the operator grid equals the knot grid the update's height and
    # base coincide, so the quasi-interpolant itself must come back
    knots, vals = exp_table(16)
    part = Partition(knots)
    sv = ScalingVector.broadcast(0.2, 16)
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    prob = FifProblem(part, sv, op, FunctionInput.tabulated(vals), "discrete")
    res = solve_fif(prob, cells=16 * 2**6)
    want = nn_eval(op, FunctionInput.tabulated(vals), res.grid)
    want[0], want[-1] = vals[0], vals[-1]
    assert np.max(np.abs(res.values - want)) <= 1e-10


def test_discrete_knot_interpolation():
    knots, vals = exp_table(16)
    part = Partition(knots)
    sv = ScalingVector.broadcast(0.3, 16)
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)
    prob = FifProblem(part, sv, op, FunctionInput.tabulated(vals), "discrete")
    res = solve_fif(prob, cells=16 * 2**8, tol=1e-10)
    idx = np.searchsorted(res.grid, knots)
    assert np.max(np.abs(res.values[idx] - vals)) <= 1e-9


def test_discrete_variant_reads_f_only_at_knots_and_nodes():
    # the node-data-only claim, end to end: a recording f sees the knots and
    # the operator nodes, in a grid solve and in a random-orbit render alike
    seen = []

    def recording(x):
        seen.append(np.array(x, dtype=float, copy=True))
        return np.exp(x)

    part = Partition.uniform(0.0, 1.0, 8)
    op = OperatorConfig(ramp(), 0.0, 1.0, 4)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 8), op,
                      FunctionInput.analytic(recording), "discrete")
    solve_fif(prob, cells=8 * 2**6)
    chaos_game_render(prob, 1000, seed=3)
    allowed = np.concatenate([part.knots, op.nodes])
    points = np.concatenate(seen)
    assert points.size > 0
    assert np.all(np.isin(points, allowed))


def test_package_has_no_assert_statements():
    # a check written as ``assert`` vanishes under ``python -O``; every
    # check in the package raises an error class instead
    import ast

    pkg = Path(fif.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_discrete_grid_compatibility_enforced():
    knots, vals = exp_table(16)
    part = Partition(knots)
    sv = ScalingVector.broadcast(0.3, 16)
    op = OperatorConfig(ramp(), 0.0, 1.0, 12)  # 12 does not divide 16
    with pytest.raises(InvalidConfig, match="divide"):
        FifProblem(part, sv, op, FunctionInput.tabulated(vals), "discrete")


def test_discrete_needs_uniform_knots_for_tables():
    part = Partition(np.array([0.0, 0.3, 1.0]))
    sv = ScalingVector.broadcast(0.3, 2)
    op = OperatorConfig(ramp(), 0.0, 1.0, 2)
    with pytest.raises(InvalidConfig, match="uniform"):
        FifProblem(part, sv, op, FunctionInput.tabulated(np.ones(3)), "discrete")


# ------------------------------------------------------- smooth construction


def smooth_problem(alpha=0.2, n=64, count=4):
    part = Partition.uniform(0.0, 1.0, count)
    sv = ScalingVector.broadcast(alpha, count)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, n, r=1)
    return FifProblem(part, sv, op, make_function("sin"), "smooth")


def test_smooth_zero_scaling_collapses_to_operator_data():
    prob = smooth_problem(alpha=0.0)
    res = solve_fif(prob, cells=4 * 2**8)
    assert np.max(np.abs(res.values - np.sin(res.grid))) <= 1e-8
    assert np.max(np.abs(res.derivatives[1] - np.cos(res.grid))) <= 1e-8


def test_smooth_junction_data_equals_derivative_at_knots():
    prob = smooth_problem(alpha=0.2)
    res = solve_fif(prob, cells=4 * 2**10, tol=1e-10)
    levels = res.diagnostics["derivative_levels"][1]
    assert levels["matching_residual"] <= 1e-8
    assert max(levels["endpoint_identity_gap"]) <= 1e-8
    knots = prob.partition.knots
    idx = np.searchsorted(res.grid, knots)
    assert np.max(np.abs(res.derivatives[1][idx] - np.cos(knots))) <= 1e-8


def test_smooth_scaling_power_gate():
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 64, r=1)
    sv = ScalingVector.broadcast(0.25, 4)  # equals slope^r, not below it
    with pytest.raises(InvalidConfig, match="alpha"):
        FifProblem(part, sv, op, make_function("sin"), "smooth")


def test_smooth_matching_check_can_fire(monkeypatch):
    # a scaling within a whisker of the slope power leaves a nonzero
    # junction rounding residue; zero tolerance must flag it
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.constant([0.2499999, 0.2, 0.2, 0.2])
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 64, r=1)
    prob = FifProblem(part, sv, op, make_function("sin"), "smooth")
    solve_fif(prob, cells=4 * 2**8)  # default tolerance is fine
    monkeypatch.setattr(fractal, "MATCHING_TOL", 0.0)
    with pytest.raises(MatchingConditionError, match="subinterval 2, derivative order 1"):
        solve_fif(prob, cells=4 * 2**8)


def test_smooth_junctions_are_checked_before_any_level_is_solved(monkeypatch):
    # one doubling pass cannot finish the 256-cell coarse grid of an N = 5
    # grid, so only a check made before the level-0 solve reports the mismatch
    part = Partition.uniform(0.0, 1.0, 5)
    sv = ScalingVector.constant([0.1999999, 0.15, 0.15, 0.15, 0.15])
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 64, r=1)
    prob = FifProblem(part, sv, op, make_function("sin"), "smooth")
    with pytest.raises(NonConvergence):
        solve_fif(prob, cells=5 * 2**8, max_sweeps=1)
    # the junction data agree exactly (every slope is 1/5), so a negative
    # tolerance makes each junction a mismatch
    monkeypatch.setattr(fractal, "MATCHING_TOL", -1.0)
    with pytest.raises(MatchingConditionError):
        solve_fif(prob, cells=5 * 2**8, max_sweeps=1)


def test_every_level_is_evaluated_once_on_the_render_grid(monkeypatch):
    # level 0 needs the operator, level k f^(k) and (Lf)^(k); the junction
    # and knot checks read those arrays at the knots and the ends
    calls = []

    def counting(name, x_arg):
        fn = getattr(fif.fractal, name)

        def counted(*args):
            calls.append((name, np.size(args[x_arg])))
            return fn(*args)

        monkeypatch.setattr(fif.fractal, name, counted)

    counting("nn_eval", 2)
    counting("nn_eval_four_layer", 2)
    counting("nn_eval_derivative", 3)
    counting("input_derivative", 2)
    cells = 4 * 2**8
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(2), 0.0, 1.0, 32, r=2)
    prob = FifProblem(part, ScalingVector.broadcast(0.05, 4), op, make_function("sin"), "smooth")
    res = solve_fif(prob, cells=cells)
    assert sorted(res.derivatives) == [1, 2]
    assert sorted(name for name, _ in calls) == [
        "input_derivative", "input_derivative",
        "nn_eval_derivative", "nn_eval_derivative", "nn_eval_four_layer",
    ]
    assert all(size == cells + 1 for _, size in calls)
    calls.clear()
    solve_fif(sine_problem(), cells=cells)
    assert calls == [("nn_eval", cells + 1)]


def test_smooth_requires_analytic_input():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.1, 4)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 4, r=1)
    with pytest.raises(InvalidConfig):
        FifProblem(part, sv, op, FunctionInput.tabulated(np.ones(5)), "smooth")


# ----------------------------------------------------------- failure modes


def test_sweep_budget_exhaustion_keeps_best_iterate():
    # two passes on the 256-cell coarse grid of N = 5, one fill level, and
    # the certifying sweep, whose iterate is kept
    prob = sine_problem(alpha=0.95, n=8, count=5)
    with pytest.raises(NonConvergence) as info:
        solve_fif(prob, cells=5 * 2**8, tol=1e-14, max_sweeps=2)
    err = info.value
    assert err.iterations == 2 + 1 + 1
    assert err.residual > 1e-14
    assert err.values is not None and err.values.size == 5 * 2**8 + 1


def test_non_finite_function_values_are_invalid():
    part = Partition.uniform(0.0, 800.0, 4)
    op = OperatorConfig(ramp(), 0.0, 800.0, 32)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 4), op, make_function("exp"))
    with np.errstate(over="ignore"), pytest.raises(InvalidConfig, match="non-finite"):
        solve_fif(prob, cells=4 * 2**8)


def test_non_finite_scaling_values_are_invalid():
    # finite on the sup-norm samples, NaN at the knot 0.25: a render grid of
    # 2^8 cells per piece has the knot as a pre-image, and seed 1's first map
    # (map 2) sends the orbit's start to it
    def alpha(x):
        return 0.4 * np.sin(1.0 / (np.asarray(x) - 0.25))

    part = Partition.uniform(0.0, 1.0, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = ScalingVector([alpha] * 4, domain=(0.0, 1.0))
        prob = FifProblem(part, sv, OperatorConfig(ramp(), 0.0, 1.0, 32),
                          make_function("sin"))
        with pytest.raises(InvalidConfig, match="non-finite"):
            solve_fif(prob, cells=4 * 2**8)
        with pytest.raises(InvalidConfig, match="non-finite"):
            chaos_game_render(prob, 1000, seed=1)


def test_scaling_reaching_one_at_a_solve_point_is_invalid():
    # the sampled sup norm misses the spike, but the solve multiplies by 3 at
    # the knot 0.25: a render grid of 2^8 cells per piece has the knot as a
    # pre-image, and seed 1's first map (map 2) sends the orbit's start to it
    def alpha(x):
        return 3.0 * np.exp(-(((np.asarray(x) - 0.25) / 1e-7) ** 2))

    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector([alpha] * 4, domain=(0.0, 1.0))
    assert sv.sup_norm < 1.0
    prob = FifProblem(part, sv, OperatorConfig(ramp(), 0.0, 1.0, 32), make_function("sin"))
    with pytest.raises(InvalidConfig, match=r"\|alpha\| = 3 "):
        solve_fif(prob, cells=4 * 2**8)
    with pytest.raises(InvalidConfig, match=r"\|alpha\| = 3 "):
        chaos_game_render(prob, 1000, seed=1)


def test_constant_scaling_contraction_is_the_sup_norm():
    prob = sine_problem(alpha=-0.45)
    res = solve_fif(prob, cells=4 * 2**8)
    assert res.diagnostics["contraction"] == prob.scaling.sup_norm


def test_identity_function_keeps_its_own_arrays(tmp_path, monkeypatch):
    # an identity f returns its argument: the orbit's shift is written into
    # the height, so neither the grid nor the x-orbit may be that array
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.3, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)
    ident = FifProblem(part, sv, op, FunctionInput.analytic(lambda x: x))
    res = solve_fif(ident, cells=4 * 2**6)
    assert res.grid.tobytes() == np.linspace(0.0, 1.0, 4 * 2**6 + 1).tobytes()
    xs, _ = chaos_game_render(ident, 1000, seed=1)
    xs_sin, _ = chaos_game_render(FifProblem(part, sv, op, make_function("sin")), 1000, seed=1)
    assert np.array_equal(xs, xs_sin)
    # `build` evaluates the height on the grid after the solve
    monkeypatch.setattr(cli, "make_function",
                        lambda name, **kw: FunctionInput.analytic(lambda x: x))
    assert cli.main(["build", "--function", "ident", "--alpha", "0.3", "--n", "8",
                     "--grid-exp", "6", "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "fif.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1], table[:, 0])


def test_read_only_function_results_are_copied():
    # a user function may hand back a read-only array: the chaos game writes
    # its shift into the height, the smooth solve fixes its derivative levels'
    # ends, and both must leave that array alone
    def frozen(g):
        def call(x):
            out = g(x)
            out.flags.writeable = False
            return out
        return call

    derivs = (np.cos, lambda x: -np.sin(x))
    plain = FunctionInput.analytic(np.sin, derivs)
    locked = FunctionInput.analytic(frozen(np.sin), tuple(frozen(d) for d in derivs))
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.05, 4)
    op = OperatorConfig(smooth_bump(), 0.0, 1.0, 16, r=2)
    chaos = [chaos_game_render(FifProblem(part, sv, op, f), 1000, seed=3)
             for f in (plain, locked)]
    assert [a.tobytes() for a in chaos[0]] == [a.tobytes() for a in chaos[1]]
    smooth = [solve_fif(FifProblem(part, sv, op, f, "smooth"), cells=4 * 2**6)
              for f in (plain, locked)]
    for j in (1, 2):
        assert smooth[0].derivatives[j].tobytes() == smooth[1].derivatives[j].tobytes()


def test_overflow_to_a_finite_limit_solves_without_warnings():
    # exp overflows on [0, 800], and 1 / (1 + exp(x)) is then exactly its
    # limit 0: a finite, correct value that warns nothing
    f = FunctionInput.analytic(lambda x: 1.0 / (1.0 + np.exp(x)))
    part = Partition.uniform(0.0, 800.0, 4)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 4),
                      OperatorConfig(ramp(), 0.0, 800.0, 32), f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_fif(prob, cells=4 * 2**8)
    assert res.values[-1] == 0.0


def test_cells_validation():
    prob = sine_problem()
    with pytest.raises(InvalidConfig, match="power-of-two"):
        solve_fif(prob, cells=4 * 2**8 + 4)
    with pytest.raises(InvalidConfig, match="power-of-two"):
        solve_fif(prob, cells=3 * 2**8)
    with pytest.raises(InvalidConfig, match="power-of-two"):
        solve_fif(prob, cells=4 * 8)  # below 16 cells per piece


def test_variant_validation():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.3, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    f = make_function("sin")
    with pytest.raises(InvalidConfig):
        FifProblem(part, sv, op, f, "magic")


def test_scaling_count_must_match_partition():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.3, 3)
    op = OperatorConfig(ramp(), 0.0, 1.0, 16)
    with pytest.raises(InvalidConfig):
        FifProblem(part, sv, op, make_function("sin"), "alpha")


def test_operator_must_share_the_interval():
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.3, 4)
    op = OperatorConfig(ramp(), 0.0, 2.0, 16)
    with pytest.raises(InvalidConfig):
        FifProblem(part, sv, op, make_function("sin"), "alpha")


# ------------------------------------------------------------- random orbit


def test_orbit_of_zero_scaling_linear_function_stays_on_the_line():
    part = Partition.uniform(0.0, 1.0, 3)
    sv = ScalingVector.broadcast(0.0, 3)
    op = OperatorConfig(ramp(), 0.0, 1.0, 9)
    f = FunctionInput.analytic(lambda x: 2.0 * np.asarray(x) + 1.0)
    prob = FifProblem(part, sv, op, f, "alpha")
    xs, ys = chaos_game_render(prob, 20000, seed=5)
    assert np.max(np.abs(ys - (2.0 * xs + 1.0))) <= 1e-9


def test_orbit_x_values_fill_the_interval():
    part = Partition.uniform(0.0, 1.0, 2)
    sv = ScalingVector.broadcast(0.4, 2)
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)
    f = FunctionInput.analytic(lambda x: np.asarray(x) * (1 - np.asarray(x)))
    prob = FifProblem(part, sv, op, f, "alpha")
    xs, _ = chaos_game_render(prob, 10**5, seed=3)
    counts, _ = np.histogram(xs, bins=100, range=(0.0, 1.0))
    assert np.all(counts >= 1)


def test_orbit_lands_on_the_rendered_graph():
    prob = sine_problem(alpha=0.3, n=32)
    tol = 1e-4
    res = solve_fif(prob, cells=2**14, tol=tol)
    xs, ys = chaos_game_render(prob, 4 * 10**4, seed=11)
    idx = np.clip(np.round((xs - res.grid[0]) / (res.grid[1] - res.grid[0])).astype(int), 0, res.grid.size - 1)
    assert np.max(np.abs(ys - res.values[idx])) <= 10 * tol


def test_orbit_is_deterministic_per_seed():
    prob = sine_problem(alpha=0.3)
    xs1, ys1 = chaos_game_render(prob, 5000, seed=42)
    xs2, ys2 = chaos_game_render(prob, 5000, seed=42)
    xs3, _ = chaos_game_render(prob, 5000, seed=43)
    assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)
    assert not np.array_equal(xs1, xs3)


def _sequential_orbit(problem, point_count, seed, burn_in=100):
    # the chaos game one step at a time: the reference for the scan
    part = problem.partition
    pieces = problem.pieces()
    total = burn_in + int(point_count)
    idx = np.random.default_rng(seed).integers(1, part.size + 1, size=total)
    slopes = [float(s) for s in part.slopes]
    intercepts = [float(c) for c in part.intercepts]
    xs = np.empty(total + 1)
    xs[0] = cur = part.a
    for t in range(total):
        k = idx[t] - 1
        cur = slopes[k] * cur + intercepts[k]
        xs[t + 1] = cur
    np.clip(xs, part.a, part.b, out=xs)
    alpha_t = problem.scaling.values_at(idx, xs[:-1])
    shift = pieces.height_eval(xs[1:]) - alpha_t * pieces.base_eval(xs[:-1])
    ys = np.empty(total + 1)
    ys[0] = y = pieces.height_eval(part.a)
    for t in range(total):
        y = alpha_t[t] * y + shift[t]
        ys[t + 1] = y
    return xs[burn_in + 1 :], ys[burn_in + 1 :]


def _orbit_case(name):
    op = OperatorConfig(ramp(), 0.0, 1.0, 8)
    f = make_function("sin")
    if name == "knots":
        part = Partition(np.array([0.0, 0.25, 1.0]))
        return FifProblem(part, ScalingVector.constant([0.3, 0.5]), op, f)
    if name == "x-dependent":
        fn = lambda x: 0.4 * np.sin(7.0 * np.asarray(x))
        sv = ScalingVector([fn] * 4, domain=(0.0, 1.0))
        return FifProblem(Partition.uniform(0.0, 1.0, 4), sv, op, f)
    count, alpha = {"N4": (4, 0.55), "N5": (5, 0.99), "N3-negative": (3, -0.9)}[name]
    part = Partition.uniform(0.0, 1.0, count)
    return FifProblem(part, ScalingVector.broadcast(alpha, count), op, f)


@pytest.mark.parametrize("name", ["N4", "N5", "N3-negative", "knots", "x-dependent"])
def test_orbit_scan_matches_sequential_loop(name):
    prob = _orbit_case(name)
    xs, ys = chaos_game_render(prob, 2 * 10**5, seed=3)
    ref_x, ref_y = _sequential_orbit(prob, 2 * 10**5, seed=3)
    span = prob.partition.b - prob.partition.a
    assert np.max(np.abs(xs - ref_x)) <= 1e-15 * span
    assert np.max(np.abs(ys - ref_y)) <= 1e-13 * max(1.0, np.max(np.abs(ref_y)))


@pytest.mark.parametrize("c", [0.25, 0.55, -0.55, 0.0, 0.999])
def test_affine_scan_shared_coefficient_is_bitwise_the_array(c):
    # every window of the array scan multiplies equal floats, so squaring
    # the one shared float forms the same products
    n = 10**5 + 1
    offset = np.random.default_rng(1).standard_normal(n)
    shared = offset.copy()
    passes = _affine_scan(np.r_[0.0, np.full(n - 1, c)], offset)
    assert _affine_scan(c, shared) == passes
    assert shared.tobytes() == offset.tobytes()


def test_chaos_constant_scaling_is_bitwise_the_per_step_arrays(monkeypatch):
    # N = 4 on [0, 1]: one slope and one alpha, each scanned as a float;
    # a callable alpha, or no shared value at all, builds per-step arrays
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 1)

    def render(sv):
        prob = FifProblem(part, sv, op, make_function("poly:0,1,-1"))
        xs, ys = chaos_game_render(prob, 10**5, seed=7)
        return xs.tobytes(), ys.tobytes()

    const = render(ScalingVector.broadcast(0.55, 4))
    assert render(ScalingVector([lambda x: np.full_like(x, 0.55)] * 4, domain=(0.0, 1.0))) == const
    monkeypatch.setattr(fractal, "_shared", lambda table: None)
    assert render(ScalingVector.broadcast(0.55, 4)) == const


def test_chaos_constant_scaling_holds_no_per_step_coefficients(monkeypatch):
    # the x-orbit, the y-recurrence, their shift, then the scan's scratch,
    # plus the operator's fixed-size tiles; the x-scan's array is freed
    # before the y-recurrence sets the peak, so the bound alone cannot see
    # a per-step coefficient array, and every scan's coefficient is recorded
    kinds = []
    scan = fractal._affine_scan
    monkeypatch.setattr(fractal, "_affine_scan",
                        lambda coeff, offset: kinds.append(np.ndim(coeff)) or scan(coeff, offset))
    points = 2**18
    prob = sine_problem(alpha=0.55, n=1, count=4, b=1.0)
    render = lambda p: chaos_game_render(prob, p, seed=7)
    assert traced_peak(render, points, 1000) <= 40 * points
    assert kinds == [0] * 4  # x and y of both renders


def test_chaos_uniform_slopes_take_no_per_step_array(monkeypatch):
    # N = 5: every slope is 1/5, so the x-orbit scans one float as the
    # constant alpha does, within the N = 4 render's memory
    kinds = []
    scan = fractal._affine_scan
    monkeypatch.setattr(fractal, "_affine_scan",
                        lambda coeff, offset: kinds.append(np.ndim(coeff)) or scan(coeff, offset))
    points = 2**18
    prob = sine_problem(alpha=0.55, n=1, count=5, b=1.0)
    render = lambda p: chaos_game_render(prob, p, seed=7)
    assert traced_peak(render, points, 1000) <= 40 * points
    assert kinds == [0] * 4  # x and y of both renders


def test_affine_scan_stops_at_roundoff():
    rng = np.random.default_rng(0)
    n = 10**5 + 1
    offset = rng.standard_normal(n)
    coeff = np.full(n, 0.25)
    coeff[0] = 0.0
    ref = offset.copy()
    for t in range(1, n):
        ref[t] += 0.25 * ref[t - 1]
    # windows of 32 maps multiply to 2^-64, below the roundoff; 16 give 2^-32
    assert _affine_scan(coeff, offset) == 5
    assert np.max(np.abs(coeff)) <= ROUNDOFF
    assert np.max(np.abs(offset - ref)) <= 1e-15 * np.max(np.abs(ref))
    # no window falls below the roundoff: the scan runs to ceil(log2 n) passes
    coeff = np.full(n, 0.999999)
    coeff[0] = 0.0
    assert _affine_scan(coeff, np.ones(n)) == 17


def test_orbit_point_budget_checked():
    with pytest.raises(InvalidConfig, match="1000"):
        chaos_game_render(sine_problem(), 10, seed=0)


TILE = fif.operators._TILE


@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 3 * TILE + 7, 10**6 + 101])
@pytest.mark.parametrize("c", [0.25, 0.55, -0.55, 0.0, 0.999, 1e-20])
def test_tiled_shared_scan_is_bitwise_the_array_scan(n, c):
    # the shared float runs its passes tile by tile behind a halo of input
    # offsets; 0.999 needs 2^16 - 1 of them, more than a tile, and 1e-20
    # and 0 need no pass at all
    offset = np.random.default_rng(n).standard_normal(n)
    shared = offset.copy()
    passes = _affine_scan(np.r_[0.0, np.full(n - 1, c)], offset)
    assert _affine_scan(c, shared) == passes
    assert shared.tobytes() == offset.tobytes()


def test_shared_scan_scratch_is_a_tile():
    # the halo-led tile and its scratch, not a second array of the input's size
    n = 2**20
    offset = np.random.default_rng(3).standard_normal(n)
    assert traced_peak(lambda size: _affine_scan(0.55, offset[:size]), n, 1000) <= 2**20


def test_chaos_picks_are_the_one_based_stream_shifted():
    # the orbit draws 0-based picks; the 1-based draw gives the same stream
    for count in (2, 3, 4, 5, 8, 13):
        for seed in (0, 7, 11):
            zero = np.random.default_rng(seed).integers(0, count, size=10**4)
            one = np.random.default_rng(seed).integers(1, count + 1, size=10**4)
            assert zero.tobytes() == (one - 1).tobytes()


def test_smooth_solve_drops_each_plan_once_solved():
    # a plan's offset goes as soon as its level is solved, so the derivative
    # levels no longer keep every offset until the solve returns
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smooth_bump(), 0.0, 1.0, 256, r=2)
    prob = FifProblem(part, ScalingVector.broadcast(0.05, 4), op, make_function("sin"),
                      "smooth")
    assert traced_slope(lambda c: solve_fif(prob, cells=c), 2**16, 2**18) <= 56
