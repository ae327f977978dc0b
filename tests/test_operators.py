import math
import tracemalloc

import numpy as np
import pytest

import fif.operators
from fif.cli import main
from fif.analysis import MAX_SIZE_EXP
from fif.errors import InvalidConfig
from fif.fractal import FifProblem, chaos_game_render, solve_fif
from fif.kernels import kernel_from_name, ramp, smooth_bump, smoothstep, transition, xi_eval
from fif.maps import Partition, ScalingVector
from fif.operators import (
    FunctionInput,
    OperatorConfig,
    nn_eval,
    nn_eval_derivative,
    nn_eval_four_layer,
)
from fif.registry import make_function
from reference import pointwise_operator

FAMILIES = [ramp(), smoothstep(1), smooth_bump()]


def brute_sum(cfg, values, x):
    """Reference evaluation: loop over every node, no support shortcuts."""
    total = 0.0
    for k in range(cfg.n + 1):
        a_k = cfg.a + k * cfg.h
        total += values[k] * xi_eval(cfg.kernel, (2 * cfg.kernel.m / cfg.h) * (x - a_k))
    return total


@pytest.mark.parametrize("kernel", FAMILIES, ids=["ramp", "smoothstep:1", "bump"])
@pytest.mark.parametrize("n", [8, 64])
def test_reproduces_node_values(kernel, n):
    cfg = OperatorConfig(kernel, 0.0, 1.0, n)
    for fn in (np.sin, np.exp, lambda x: np.abs(x - 0.3) ** 0.5):
        f = FunctionInput.analytic(fn)
        got = nn_eval(cfg, f, cfg.nodes)
        assert np.max(np.abs(got - fn(cfg.nodes))) <= 1e-12


def test_constant_against_brute_force():
    cfg = OperatorConfig(smoothstep(1), -1.0, 2.0, 24)
    f = FunctionInput.analytic(lambda x: np.full_like(np.asarray(x, dtype=float), 7.0))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.0, 2.0, 10**3)
    vals = np.full(cfg.n + 1, 7.0)
    got = nn_eval(cfg, f, xs)
    for x, g in zip(xs, got):
        assert abs(brute_sum(cfg, vals, x) - 7.0) <= 1e-12
        assert abs(g - 7.0) <= 1e-12


def test_matches_brute_force_on_arbitrary_data():
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 16)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(cfg.n + 1)
    f = FunctionInput.tabulated(vals)
    xs = rng.uniform(0.0, 1.0, 200)
    got = nn_eval(cfg, f, xs)
    want = np.array([brute_sum(cfg, vals, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_zero_layer_four_layer_is_bitwise_plain():
    cfg = OperatorConfig(smoothstep(2), 0.0, np.pi, 32, r=0)
    f = FunctionInput.analytic(np.sin, (np.cos,))
    x = np.linspace(0.0, np.pi, 1117)
    assert np.array_equal(nn_eval_four_layer(cfg, f, x), nn_eval(cfg, f, x))


def test_four_layer_quadratic_against_double_sum():
    # f(x) = x^2 with its exact derivative ladder, summed longhand
    cfg = OperatorConfig(smoothstep(2), 0.0, 1.0, 16, r=2)
    f = FunctionInput.analytic(
        lambda x: np.asarray(x) ** 2,
        (lambda x: 2.0 * np.asarray(x), lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)),
    )
    derivs = [lambda t: t**2, lambda t: 2 * t, lambda t: 2.0]
    x = 0.3
    two_m = 2 * cfg.kernel.m
    u = (x - cfg.a) / cfg.h
    total = 0.0
    for j in range(cfg.r + 1):
        for k in range(cfg.n + 1):
            a_k = cfg.a + k * cfg.h
            weight = cfg.h**j / (two_m**j * math.factorial(j))
            uu = two_m * (u - k)
            total += weight * derivs[j](a_k) * uu**j * xi_eval(cfg.kernel, uu)
    assert abs(nn_eval_four_layer(cfg, f, x) - total) <= 1e-12


def test_four_layer_reproduces_derivative_data_at_nodes():
    cfg = OperatorConfig(smoothstep(2), 0.0, 1.0, 16, r=2)
    f = FunctionInput.analytic(np.sin, (np.cos, lambda x: -np.sin(x)))
    d1 = nn_eval_derivative(cfg, f, 1, cfg.nodes)
    d2 = nn_eval_derivative(cfg, f, 2, cfg.nodes)
    assert np.max(np.abs(d1 - np.cos(cfg.nodes))) <= 1e-10
    assert np.max(np.abs(d2 + np.sin(cfg.nodes))) <= 1e-10


def test_derivative_against_difference_quotient():
    cfg = OperatorConfig(smoothstep(3), 0.0, 1.0, 16, r=2)
    f = FunctionInput.analytic(np.sin, (np.cos, lambda x: -np.sin(x)))
    rng = np.random.default_rng(11)
    xs = rng.uniform(cfg.h / 10, 1.0 - cfg.h / 10, 100)
    s = 1e-6 * cfg.h
    for order in (1, 2):
        below = nn_eval_four_layer if order == 1 else lambda c, g, x: nn_eval_derivative(c, g, 1, x)
        fd = (below(cfg, f, xs + s) - below(cfg, f, xs - s)) / (2 * s)
        exact = nn_eval_derivative(cfg, f, order, xs)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(fd - exact)) <= 1e-4 * scale


def test_locality_of_node_perturbation():
    cfg = OperatorConfig(smoothstep(1), 0.0, 1.0, 32)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(cfg.n + 1)
    bumped = vals.copy()
    k = 17
    bumped[k] += 1.0
    xs = np.linspace(0.0, 1.0, 2001)
    diff = nn_eval(cfg, FunctionInput.tabulated(bumped), xs) - nn_eval(
        cfg, FunctionInput.tabulated(vals), xs
    )
    a_k = cfg.nodes[k]
    outside = (xs <= a_k - cfg.h) | (xs >= a_k + cfg.h)
    assert np.max(np.abs(diff[outside])) == 0.0
    assert np.max(np.abs(diff[~outside])) > 0.1


def test_error_decreases_with_node_count():
    probe = np.linspace(0.0, np.pi, 10**3)
    truth = np.sin(probe)
    errs = []
    for n in (4, 8, 16, 32, 64):
        cfg = OperatorConfig(ramp(), 0.0, np.pi, n)
        errs.append(np.max(np.abs(nn_eval(cfg, FunctionInput.analytic(np.sin), probe) - truth)))
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))


def test_domain_and_input_validation():
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 8)
    f = FunctionInput.analytic(np.sin)
    with pytest.raises(ValueError, match="outside domain"):
        nn_eval(cfg, f, 1.5)
    with pytest.raises(ValueError, match="non-finite"):
        nn_eval(cfg, f, np.nan)
    with pytest.raises(InvalidConfig):
        OperatorConfig(ramp(), 1.0, 0.0, 8)
    with pytest.raises(InvalidConfig):
        OperatorConfig(ramp(), 0.0, 1.0, 0)
    with pytest.raises(InvalidConfig, match="insufficient kernel smoothness"):
        OperatorConfig(ramp(), 0.0, 1.0, 8, r=2)


def test_operator_config_refuses_nodes_above_the_cap_before_allocating():
    # the library's own cap, as solve_fif and chaos_game_render have theirs:
    # 2^60 nodes would reach np.linspace
    assert OperatorConfig(ramp(), 0.0, 1.0, 2**MAX_SIZE_EXP).n == 2**MAX_SIZE_EXP
    tracemalloc.start()
    try:
        for n in (2**MAX_SIZE_EXP + 1, 2**60):
            with pytest.raises(InvalidConfig, match=f"above 2\\^{MAX_SIZE_EXP} nodes"):
                OperatorConfig(ramp(), 0.0, 1.0, n).nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_derivative_order_bounds():
    cfg = OperatorConfig(smoothstep(2), 0.0, 1.0, 8, r=1)
    f = FunctionInput.analytic(np.sin, (np.cos,))
    with pytest.raises(InvalidConfig, match="exceeds the layer order"):
        nn_eval_derivative(cfg, f, 2, 0.5)
    with pytest.raises(InvalidConfig):
        nn_eval_derivative(cfg, f, 0, 0.5)


def test_tabulated_input_cannot_feed_derivative_layers():
    cfg = OperatorConfig(smoothstep(1), 0.0, 1.0, 8, r=1)
    f = FunctionInput.tabulated(np.linspace(0.0, 1.0, 9))
    with pytest.raises(InvalidConfig, match="derivatives unavailable"):
        nn_eval_four_layer(cfg, f, 0.5)


def test_partial_derivative_ladder_rejected():
    cfg = OperatorConfig(smoothstep(2), 0.0, 1.0, 8, r=2)
    f = FunctionInput.analytic(np.sin, (np.cos,))  # one callable, two needed
    with pytest.raises(InvalidConfig, match="derivatives unavailable"):
        nn_eval_four_layer(cfg, f, 0.5)


def test_input_without_derivative_callables_cannot_feed_derivative_layers():
    cfg = OperatorConfig(smoothstep(1), 0.0, 1.0, 8, r=1)
    f = FunctionInput.analytic(np.sin)  # no derivative callables at all
    for evaluate in (lambda: nn_eval_four_layer(cfg, f, 0.4),
                     lambda: nn_eval_derivative(cfg, f, 1, 0.4)):
        with pytest.raises(InvalidConfig, match="derivatives unavailable"):
            evaluate()


def test_smooth_problem_without_derivative_callables_is_refused_unevaluated():
    def untouchable(x):
        raise AssertionError("the refusal must not evaluate the function")

    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(2), 0.0, 1.0, 8, r=2)
    for derivatives in ((), (untouchable,)):
        f = FunctionInput.analytic(untouchable, derivatives)
        with pytest.raises(InvalidConfig, match="derivatives unavailable"):
            FifProblem(part, ScalingVector.broadcast(0.05, 4), op, f, "smooth")
    # enough callables: the problem is built, and still nothing is evaluated
    f = FunctionInput.analytic(untouchable, (untouchable, untouchable))
    FifProblem(part, ScalingVector.broadcast(0.05, 4), op, f, "smooth")


def test_tabulated_length_checked():
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 8)
    with pytest.raises(InvalidConfig, match="operator needs"):
        nn_eval(cfg, FunctionInput.tabulated(np.zeros(5)), 0.5)


def test_scalar_input_gives_float():
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 8)
    out = nn_eval(cfg, FunctionInput.analytic(np.sin), 0.37)
    assert isinstance(out, float)


def test_operator_reads_the_input_at_every_call():
    # nothing is cached per input: the next call sees the function it holds now
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 4)
    f = FunctionInput.analytic(np.sin)
    assert nn_eval(cfg, f, 0.5) == np.sin(0.5)
    f.func = np.cos
    assert nn_eval(cfg, f, 0.5) == np.cos(0.5)


def test_tabulated_input_is_a_read_only_copy():
    # the input owns its values, so editing the caller's array must change
    # neither the input nor what the operator returns
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 4)
    arr = np.zeros(5)
    f = FunctionInput.tabulated(arr)
    before = nn_eval(cfg, f, 0.3)
    arr[:] = 2.0
    assert not np.shares_memory(f.values, arr)
    assert np.all(f.values == 0.0)
    assert nn_eval(cfg, f, 0.3) == before == 0.0
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    assert nn_eval(cfg, FunctionInput.tabulated(arr), 0.3) == pytest.approx(2.0)


EPS = np.finfo(float).eps
RENDER_GRIDS = [
    (0.0, 1.0, 2**12), (0.0, 1.0, 5 * 2**12), (0.0, 1.0, 3 * 2**12),
    (0.0, math.pi, 2**12), (0.0, math.pi, 15 * 2**10),
]


def _operator_and_derivatives(cfg, f):
    """Evaluators of the four-layer operator and its derivatives up to r; each
    passes its keywords (``grid``, ``stride``, ``out``) on."""
    return [lambda x, **at: nn_eval_four_layer(cfg, f, x, **at)] + [
        lambda x, q=q, **at: nn_eval_derivative(cfg, f, q, x, **at) for q in range(1, cfg.r + 1)
    ]


@pytest.mark.parametrize("name", ["ramp", "smoothstep:2", "bump"])
@pytest.mark.parametrize("n", [1, 3, 32, 256])
@pytest.mark.parametrize(
    "a, b, cells", RENDER_GRIDS,
    ids=["2^12", "5*2^12", "3*2^12", "pi-2^12", "pi-15*2^10"],
)
def test_render_grid_path_matches_the_pointwise_path(name, n, a, b, cells):
    """A 1-d ``linspace(a, b, n M + 1)`` declared with ``grid=True`` takes the
    grid path, which uses the exact offsets ``j / M``; undeclared, it is
    bracketed point by point, as is a 2-d view of it,
    which rounds each offset from ``x``.  Where that rounding is exact
    (power-of-two cells on [0, 1]: ``h`` and every ``x`` are dyadic) the two
    agree bit for bit.  Elsewhere the shifted offset redraws the rounding of
    the Leibniz sum, whose terms reach ``C(q, i) max|P^(i)| h^-i |T^(q-i)|``
    and cancel to the result: the paths differ by at most 32 roundings of
    that term size, times ``b - a`` for the shift that rounding ``x`` adds.
    ``n`` not dividing ``cells`` keeps the pointwise path on both sides."""
    kernel = kernel_from_name(name)
    x = np.linspace(a, b, cells + 1)
    exact = (a, b) == (0.0, 1.0) and cells & (cells - 1) == 0
    f = FunctionInput.analytic(np.sin, (np.cos, lambda t: -np.sin(t)))
    profile = np.linspace(0.0, 1.0, 4097)
    for r in range(min(2, kernel.smoothness) + 1):
        cfg = OperatorConfig(kernel, a, b, n, r)
        p_max = [np.max(np.abs(transition(kernel, i, profile))) for i in range(r + 1)]
        # every derivative of sin is at most 1, so |T_k^(j)| <= sum_l h^l / l!
        t_max = [sum(cfg.h**l / math.factorial(l) for l in range(r + 1 - j)) for j in range(r + 1)]
        for q, evaluate in enumerate(_operator_and_derivatives(cfg, f)):
            grid, pointwise = evaluate(x, grid=True), evaluate(x[None, :])[0]
            assert evaluate(x).tobytes() == pointwise.tobytes(), (r, q)
            if exact or cells % n:
                assert np.array_equal(grid, pointwise), (r, q)
                continue
            terms = sum(math.comb(q, i) * p_max[i] / cfg.h**i * t_max[q - i] for i in range(q + 1))
            gap = np.max(np.abs(grid - pointwise))
            assert gap <= 32 * EPS * max(1.0, b - a) * terms, (r, q, gap)


@pytest.mark.parametrize(
    "kernel, n, r, cells",
    [(smooth_bump(), 256, 2, 4 * 2**15), (ramp(), 1, 0, 2**20)],
    ids=["smooth-bump", "dimension"],
)
def test_benchmark_shapes_take_the_grid_path_bit_for_bit(kernel, n, r, cells):
    cfg = OperatorConfig(kernel, 0.0, 1.0, n, r)
    f = FunctionInput.analytic(np.exp, (np.exp, np.exp))
    x = np.linspace(0.0, 1.0, cells + 1)
    for evaluate in _operator_and_derivatives(cfg, f):
        assert np.array_equal(evaluate(x, grid=True), evaluate(x))


@pytest.mark.parametrize("name", ["ramp", "smoothstep:2", "bump"])
@pytest.mark.parametrize("stride", [2, 3, 4, 5, 8])
def test_strided_evaluation_is_bitwise_the_grid_path_sliced(name, stride):
    """``stride=N`` evaluates at ``x[::N]`` alone, bitwise the same call without
    a stride sliced ``[::N]``, on the render grid of ``N 2^7`` cells: ``n = 16``
    divides ``cells / N`` (the grid path on the stride's offsets), ``n = N``
    and ``n = cells`` divide ``cells`` alone (the grid path on every point,
    sliced; ``n = N`` divides ``cells / N`` too at even ``N``), ``n = 7``
    does not divide ``cells`` (the pointwise path on ``x[::N]``).  Off a grid
    the pointwise path runs on ``x[::N]`` as well.  Every order up to ``r``,
    and a tabulated input at order 0; ``out`` is written and returned."""
    kernel = kernel_from_name(name)
    f = FunctionInput.analytic(np.sin, (np.cos, lambda t: -np.sin(t)))
    cells = stride * 2**7
    x = np.linspace(0.0, math.pi, cells + 1)
    orbit = np.random.default_rng(4).uniform(0.0, math.pi, cells + 1)
    for n in (16, stride, cells, 7):
        table = FunctionInput.tabulated(np.random.default_rng(n).standard_normal(n + 1))
        for r in range(min(2, kernel.smoothness) + 1):
            cfg = OperatorConfig(kernel, 0.0, math.pi, n, r)
            evaluators = [lambda x, **at: nn_eval(cfg, table, x, **at)]
            evaluators += _operator_and_derivatives(cfg, f)
            for q, evaluate in enumerate(evaluators):
                for points, grid in ((x, True), (orbit, False)):
                    whole = evaluate(points, grid=grid)
                    strided = evaluate(points, grid=grid, stride=stride)
                    assert strided.tobytes() == whole[::stride].tobytes(), (n, r, q, grid)
                out = np.empty(cells // stride + 1)
                assert evaluate(x, grid=True, stride=stride, out=out) is out
                assert out.tobytes() == evaluate(x, grid=True)[::stride].tobytes()


def _record_profile_sizes(monkeypatch):
    import fif.operators

    sizes, real = [], fif.operators.transition
    monkeypatch.setattr(
        fif.operators, "transition", lambda k, d, t: sizes.append(np.size(t)) or real(k, d, t)
    )
    return sizes


def test_render_grid_runs_the_profile_once_per_node_cell(tmp_path, monkeypatch):
    # 4 * 2^15 cells over n = 256 node cells: the profile never sees more than
    # the M = 512 offsets of one node cell plus the end point
    sizes = _record_profile_sizes(monkeypatch)
    argv = ["smooth", "--function", "sin", "--kernel", "bump", "--n", "256", "--r", "2",
            "--alpha", "0.05", "--grid-exp", "15", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sizes and max(sizes) <= 4 * 2**15 // 256 + 1


def _pointwise_expression(cfg, values, x):
    """The order-0 blend with each offset rounded from ``x``, as bracketing does."""
    u = (np.clip(x, cfg.a, cfg.b) - cfg.a) / cfg.h
    near = np.round(u)
    u = np.where(np.abs(u - near) <= 1e-12 * max(1.0, cfg.n), near, u)
    u = np.clip(u, 0.0, float(cfg.n))
    klo = np.minimum(np.floor(u).astype(np.int64), cfg.n - 1)
    p = transition(cfg.kernel, 0, u - klo)
    return values[klo] * (1.0 - p) + values[klo + 1] * p


def test_off_grid_points_keep_the_pointwise_path(monkeypatch):
    # only a declared grid whose ends are the operator's and whose cells n
    # divides takes the grid path; nothing is inferred from the values
    cfg = OperatorConfig(smooth_bump(), 0.0, 1.0, 32)
    alpha = ScalingVector.constant([0.3, 0.3])
    base = FunctionInput.analytic(np.sin)
    uniform = FifProblem(Partition.uniform(0.0, 1.0, 2), alpha, cfg, base)
    skewed = FifProblem(Partition(np.array([0.0, 0.3, 1.0])), alpha, cfg, base)
    orbit, _ = chaos_game_render(uniform, 2000, seed=5)
    closed = solve_fif(skewed, cells=2 * 2**10).grid  # G_K: 2^11 cells, not uniform
    coarse = np.linspace(0.0, 1.0, 1001)  # 32 does not divide 1000 cells
    bare = np.linspace(0.0, 1.0, 32 * 8 + 1)  # a render grid, but not declared one
    other = np.linspace(0.0, 0.5, 32 * 8 + 1)  # declared, but not on [a, b]
    values = np.random.default_rng(2).standard_normal(cfg.n + 1)
    f = FunctionInput.tabulated(values)
    for x, grid in ((orbit, False), (closed, False), (coarse, True), (bare, False),
                    (other, True)):
        sizes = _record_profile_sizes(monkeypatch)
        got = nn_eval(cfg, f, x, grid=grid)
        assert np.array_equal(got, _pointwise_expression(cfg, values, x))
        assert sizes == [x.size]


TILE = fif.operators._TILE


def _tiling_inputs():
    """Pointwise inputs around the tile size, a scalar, a 2-d array across
    tile seams, and render grids with ``M`` above and below the tile."""
    rng = np.random.default_rng(11)
    pointwise = [rng.uniform(0.0, 1.0, size) for size in (TILE - 1, TILE, TILE + 1, 3 * TILE + 7)]
    pointwise[1][[0, -1]] = 0.0, 1.0
    grids = [(1, 2 * TILE), (3, TILE + 5), (256, 256)]
    return (
        [(1, x, False) for x in pointwise]
        + [(3, 0.3, False), (3, rng.uniform(0.0, 1.0, (3, TILE + 1)), False)]
        + [(n, np.linspace(0.0, 1.0, n * m + 1), True) for n, m in grids]
    )


@pytest.mark.parametrize("name", ["ramp", "smoothstep:2", "bump"])
def test_tiled_evaluation_is_bitwise_one_tile(monkeypatch, name):
    kernel = kernel_from_name(name)
    f = FunctionInput.analytic(np.sin, (np.cos, lambda t: -np.sin(t)))
    for r in range(min(2, kernel.smoothness) + 1):
        for n, x, grid in _tiling_inputs():
            cfg = OperatorConfig(kernel, 0.0, 1.0, n, r)
            for q, evaluate in enumerate(_operator_and_derivatives(cfg, f)):
                monkeypatch.setattr(fif.operators, "_TILE", TILE)
                tiled = evaluate(x, grid=grid)
                monkeypatch.setattr(fif.operators, "_TILE", 2 * np.size(x))
                whole = evaluate(x, grid=grid)
                assert np.shape(tiled) == np.shape(x)
                assert np.asarray(tiled).tobytes() == np.asarray(whole).tobytes(), (r, q, n)


@pytest.mark.parametrize("name", ["ramp", "smoothstep:2", "bump"])
def test_pointwise_path_is_bitwise_the_reference(name):
    # random points over a ragged last tile, plus both ends, every node,
    # points just inside and just outside the snap to a node, and points
    # past the ends within the domain's slack; then one point and a 0-d array
    kernel = kernel_from_name(name)
    f = FunctionInput.analytic(np.sin, (np.cos, lambda t: -np.sin(t)))
    rng = np.random.default_rng(9)
    for n in (1, 7, 64):
        for r in range(min(2, kernel.smoothness) + 1):
            cfg = OperatorConfig(kernel, -0.5, 2.0, n, r)
            nodes = cfg.nodes
            snap = 1e-12 * n * cfg.h  # in node units, the snap's 1e-12 n
            x = np.concatenate([
                rng.uniform(cfg.a, cfg.b, 2 * TILE - 3 * nodes.size - 7),
                nodes, nodes + 0.5 * snap, nodes - 2.0 * snap,
                [cfg.a, cfg.b, cfg.a - 1e-12, cfg.b + 1e-12, np.nextafter(cfg.b, 0.0)],
            ])
            rng.shuffle(x)
            ladder = [(0, 0, lambda x: nn_eval(cfg, f, x))] + [
                (r, q, evaluate) for q, evaluate in enumerate(_operator_and_derivatives(cfg, f))]
            for upto, order, evaluate in ladder:
                for points in (x, x[-1:], np.array(x[-1])):
                    got = np.asarray(evaluate(points)).reshape(-1)
                    want = pointwise_operator(cfg, f, upto, order, points)
                    assert got.tobytes() == want.tobytes(), (n, r, order, np.size(points))
                assert isinstance(evaluate(float(x[0])), float)


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("kind", ["orbit", "grid"])
def test_operator_temporaries_are_bounded_by_the_tile(kind):
    # the dimension workload's base: ramp, n = 1, on its 10^6-point chaos
    # orbit and on its 2^20-cell render grid; blended in one piece, the
    # temporaries take 65-85 MiB above the 8 MiB output
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 1)
    f = make_function("poly:0,1,-1")
    if kind == "orbit":
        x = np.random.default_rng(3).uniform(0.0, 1.0, 10**6)
    else:
        x = np.linspace(0.0, 1.0, 2**20 + 1)
    assert _traced_peak(lambda: nn_eval(cfg, f, x, grid=kind == "grid")) <= 4 * 2**20


def test_target_function_sees_tiles_and_gives_one_call_bits():
    # a 1-d input of more than a tile reaches f one tile at a time; smaller
    # or other shapes get one call; every value is bitwise the one call's
    sizes = []

    def recording(x):
        sizes.append(np.size(x))
        return np.sin(3.0 * x) + x * x

    f = FunctionInput.analytic(recording, (recording,))
    x = np.random.default_rng(4).uniform(0.0, 1.0, 3 * TILE + 7)
    want = np.sin(3.0 * x) + x * x
    for got in (f(x), fif.operators.input_derivative(f, 0, x),
                fif.operators.input_derivative(f, 1, x)):
        assert got.tobytes() == want.tobytes()
    assert sizes == [TILE, TILE, TILE, 7] * 3
    sizes.clear()
    assert f(x[:TILE]).tobytes() == want[:TILE].tobytes()
    block = x[: 2 * TILE].reshape(2, TILE)
    assert f(block).tobytes() == want[: 2 * TILE].tobytes()
    assert sizes == [TILE, 2 * TILE]


def test_tiled_target_function_keeps_the_value_checks():
    x = np.linspace(0.0, 1.0, 2 * TILE + 3)
    scalar = FunctionInput.analytic(lambda t: 2.5)
    assert scalar(x).tobytes() == np.full(x.size, 2.5).tobytes()
    late_nan = FunctionInput.analytic(lambda t: np.where(t > 1.0 - 1e-6, np.nan, t))
    with pytest.raises(InvalidConfig, match="non-finite"):
        late_nan(x)
    # the caller's points never come back as the result, even by the tile
    same = FunctionInput.analytic(lambda t: t)
    out = same(x)
    assert out.tobytes() == x.tobytes() and not np.may_share_memory(out, x)


def test_negative_zero_node_values_blend_to_positive_zero():
    # the node-value blend adds the 0.0 the Leibniz sum starts from, on the
    # render grid and pointwise alike, and so does the four-layer operator
    cfg = OperatorConfig(ramp(), 0.0, 1.0, 4)
    f = FunctionInput.tabulated([-0.0] * 5)
    grid = np.linspace(0.0, 1.0, 4 * 64 + 1)
    points = np.random.default_rng(6).uniform(0.0, 1.0, 1000)
    for x in (grid, points):
        out = nn_eval(cfg, f, x, grid=x is grid)
        assert np.all(out == 0.0) and not np.any(np.signbit(out))
    negative_zero = lambda t: np.full_like(t, -0.0)
    smooth = FunctionInput.analytic(negative_zero, (negative_zero,))
    cfg = OperatorConfig(smoothstep(1), 0.0, 1.0, 4, r=1)
    for x in (grid, points):
        assert not np.any(np.signbit(nn_eval_four_layer(cfg, smooth, x, grid=x is grid)))


@pytest.mark.parametrize("kernel", FAMILIES, ids=["ramp", "smoothstep:1", "bump"])
def test_transition_inside_the_band_is_bitwise_the_masked_path(kernel):
    # every t inside the band skips the mask; one t on the band's edge
    # forces the masked path over the same points
    lo = 2e-3 if kernel.family == "bump" else 1e-9
    t = np.random.default_rng(8).uniform(lo, 1.0 - lo, 5000)
    for d in range(min(kernel.smoothness, 3) + 1):
        inside = transition(kernel, d, t)
        masked = transition(kernel, d, np.r_[t, 0.0])
        assert inside.tobytes() == masked[:-1].tobytes()
