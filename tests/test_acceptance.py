"""End-to-end checks of the package's headline guarantees.

One test per guarantee, numbered so ``pytest -v`` lists them in order.
Each prints a single timed summary line (visible with ``pytest -s``).
The numeric tolerances are the contract; the wall-clock budgets are
generous ceilings for a plain laptop, enforced all the same.
"""

import math
import time

import numpy as np

from fif.analysis import (
    box_counting_dimension,
    error_bound_alpha,
    error_bound_discrete,
    holder_seminorm,
    modulus_of_continuity,
    theoretical_box_dimension,
)
from fif.cli import main
from fif.fractal import (
    FifProblem,
    chaos_game_render,
    solve_fif,
)
from fif.kernels import ramp, smooth_bump, smoothstep, xi_eval
from fif.maps import Partition, ScalingVector
from fif.operators import FunctionInput, OperatorConfig, nn_eval
from fif.registry import make_function
from reference import rb_apply

CORPUS = ("sin", "exp", "abspow:0.3,0.5")
FAMILIES = (ramp(), smoothstep(1), smoothstep(3), smooth_bump())


def _finish(label, t0, budget=None, detail=""):
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        print(f"{label:<40s} FAIL {dt:6.2f}s  over {budget:.0f}s budget")
        raise AssertionError(f"{label} over budget: {dt:.2f}s > {budget:.0f}s")
    print(f"{label:<40s} PASS {dt:6.2f}s  {detail}")


def test_01_kernel_window_laws():
    t0 = time.perf_counter()
    for kernel in FAMILIES:
        m = kernel.m
        up = xi_eval(kernel, np.linspace(-2 * m, 0.0, 10**4))
        down = xi_eval(kernel, np.linspace(0.0, 2 * m, 10**4))
        assert np.all(np.diff(up) >= -1e-12)
        assert np.all(np.diff(down) <= 1e-12)
        outside = np.array([-50.0, -2 * m - 1e-9, 2 * m + 1e-9, 50.0])
        assert np.max(np.abs(xi_eval(kernel, outside))) <= 1e-12
        x = np.linspace(0.0, 2 * m, 10**4)
        total = xi_eval(kernel, x) + xi_eval(kernel, x - 2 * m)
        assert np.max(np.abs(total - 1.0)) <= 1e-12
    _finish("[01] kernel window laws", t0, 1.0, f"{len(FAMILIES)} kernels")


def test_02_operator_interpolates_nodes():
    t0 = time.perf_counter()
    worst = 0.0
    for kernel in FAMILIES:
        for name in CORPUS:
            f = make_function(name)
            for n in (8, 64):
                cfg = OperatorConfig(kernel, 0.0, 1.0, n)
                nodes = np.linspace(0.0, 1.0, n + 1)
                gap = np.max(np.abs(nn_eval(cfg, f, nodes) - f(nodes)))
                worst = max(worst, float(gap))
    assert worst <= 1e-12
    _finish("[02] operator node interpolation", t0, 1.0, f"worst {worst:.1e}")


def test_03_operator_error_within_modulus():
    t0 = time.perf_counter()
    probe = np.linspace(0.0, 1.0, 10**4)
    for name in CORPUS:
        f = make_function(name)
        dense = f(np.linspace(0.0, 1.0, 2**17 + 1))
        truth = f(probe)
        for n in (8, 64):
            omega = modulus_of_continuity(dense, 1.0, 1.0 / n)
            for kernel in FAMILIES:
                cfg = OperatorConfig(kernel, 0.0, 1.0, n)
                gap = float(np.max(np.abs(truth - nn_eval(cfg, f, probe))))
                assert gap <= omega + 1e-10
    _finish("[03] operator error vs modulus", t0, 5.0)


def test_04_zero_scaling_identity():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, np.pi, 4)
    op = OperatorConfig(ramp(), 0.0, np.pi, 32)
    prob = FifProblem(part, ScalingVector.broadcast(0.0, 4), op,
                      make_function("sin"), "alpha")
    res = solve_fif(prob, cells=4 * 2**8, tol=1e-10)
    gap = float(np.max(np.abs(res.values - np.sin(res.grid))))
    assert gap <= 1e-12
    _finish("[04] zero scaling returns the seed", t0, 1.0, f"gap {gap:.1e}")


def test_05_self_referential_residual():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, np.pi, 4)
    op = OperatorConfig(ramp(), 0.0, np.pi, 32)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 4), op,
                      make_function("sin"), "alpha")
    res = solve_fif(prob, cells=2**14, tol=1e-10)
    resid = float(np.max(np.abs(rb_apply(prob, res.values) - res.values)))
    assert resid <= 1e-10
    assert res.iterations <= 25
    _finish("[05] self-referential residual", t0, 10.0,
            f"{resid:.1e} in {res.iterations} sweeps")


def test_06_knot_interpolation_all_variants():
    t0 = time.perf_counter()
    worst = {}

    part = Partition.uniform(0.0, np.pi, 4)
    op = OperatorConfig(ramp(), 0.0, np.pi, 32)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 4), op,
                      make_function("sin"), "alpha")
    res = solve_fif(prob, cells=4 * 2**10, tol=1e-10)
    idx = np.arange(5) * 2**10
    worst["seed"] = float(np.max(np.abs(res.values[idx] - np.sin(part.knots))))

    knots = np.linspace(0.0, 1.0, 9)
    vals = np.exp(knots)
    prob = FifProblem(Partition(knots), ScalingVector.broadcast(0.4, 8),
                      OperatorConfig(ramp(), 0.0, 1.0, 4),
                      FunctionInput.tabulated(vals), "discrete")
    res = solve_fif(prob, cells=8 * 2**8, tol=1e-10)
    idx = np.arange(9) * 2**8
    worst["table"] = float(np.max(np.abs(res.values[idx] - vals)))

    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 64, r=1)
    prob = FifProblem(part, ScalingVector.broadcast(0.2, 4), op,
                      make_function("sin"), "smooth")
    res = solve_fif(prob, cells=4 * 2**10, tol=1e-10)
    idx = np.arange(5) * 2**10
    worst["deriv"] = float(np.max(np.abs(res.values[idx] - np.sin(part.knots))))

    assert max(worst.values()) <= 1e-9
    _finish("[06] knot interpolation, 3 variants", t0, 10.0,
            " ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_07_sup_error_bound():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, 1.0, 4)
    count = 0
    for name in CORPUS:
        f = make_function(name)
        for alpha in (0.2, 0.5, 0.8):
            sv = ScalingVector.broadcast(alpha, 4)
            for n in (16, 64):
                op = OperatorConfig(ramp(), 0.0, 1.0, n)
                res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                                cells=4 * 2**10, tol=1e-10)
                truth = f(res.grid)
                err = float(np.max(np.abs(res.values - truth)))
                gap = float(np.max(np.abs(truth - nn_eval(op, f, res.grid))))
                bound = error_bound_alpha(alpha, gap)
                assert err <= bound + 1e-12, (name, alpha, n, err, bound)
                count += 1
    _finish("[07] scaled-gap sup error bound", t0, 60.0, f"{count} solves")


def test_08_convergence_ladders():
    t0 = time.perf_counter()
    f = make_function("sin")
    dense = f(np.linspace(0.0, 1.0, 2**17 + 1))
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.5, 4)

    errs = []
    for n in (8, 16, 32, 64, 128):
        op = OperatorConfig(ramp(), 0.0, 1.0, n)
        res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                        cells=4 * 2**10, tol=1e-10)
        err = float(np.max(np.abs(res.values - f(res.grid))))
        bound = error_bound_alpha(0.5, modulus_of_continuity(dense, 1.0, 1.0 / n))
        assert err <= bound + 1e-12
        errs.append(err)
    assert all(b < a for a, b in zip(errs, errs[1:]))

    errs2 = []
    for m in (8, 16, 32, 64):
        knots = np.linspace(0.0, 1.0, m + 1)
        prob = FifProblem(Partition(knots), ScalingVector.broadcast(0.5, m),
                          OperatorConfig(ramp(), 0.0, 1.0, m),
                          FunctionInput.tabulated(np.sin(knots)), "discrete")
        res = solve_fif(prob, cells=m * 2**8, tol=1e-10)
        err = float(np.max(np.abs(res.values - f(res.grid))))
        om = modulus_of_continuity(dense, 1.0, 1.0 / m)
        assert err <= error_bound_discrete(0.5, om, om) + 1e-12
        errs2.append(err)
    assert all(b < a for a, b in zip(errs2, errs2[1:]))
    _finish("[08] convergence ladders", t0, 120.0,
            f"seed {errs[0]:.1e}->{errs[-1]:.1e} table {errs2[0]:.1e}->{errs2[-1]:.1e}")


def test_09_linearity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    pool = [make_function(s)
            for s in ("sin", "exp", "abspow:0.3,0.5", "poly:0.2,1.5,-0.8")]
    part = Partition.uniform(0.0, 1.0, 4)
    sv = ScalingVector.broadcast(0.4, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 32)
    tol = 1e-10
    kw = dict(cells=4 * 2**10, tol=tol)
    worst = 0.0
    for _ in range(20):
        lam, mu = rng.uniform(-2.0, 2.0, size=2)
        f, g = (pool[int(i)] for i in rng.integers(0, len(pool), size=2))
        combo = FunctionInput.analytic(
            lambda x, f=f, g=g, lam=lam, mu=mu: lam * f(x) + mu * g(x))
        r_f = solve_fif(FifProblem(part, sv, op, f, "alpha"), **kw)
        r_g = solve_fif(FifProblem(part, sv, op, g, "alpha"), **kw)
        r_c = solve_fif(FifProblem(part, sv, op, combo, "alpha"), **kw)
        gap = np.max(np.abs(r_c.values - lam * r_f.values - mu * r_g.values))
        worst = max(worst, float(gap))
    assert worst <= 5 * tol
    _finish("[09] linearity in the seed", t0, 60.0, f"20 draws, worst {worst:.1e}")


def test_10_box_dimension():
    t0 = time.perf_counter()
    # coarse operator (n = 1) keeps the seed-to-base gap O(1) so the
    # roughness cascade is visible at the counted scales
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(ramp(), 0.0, 1.0, 1)
    f = make_function("poly:0,1,-1")
    details = []
    for alpha, target, slack in ((0.5, 1.5, 0.1), (0.2, 1.0, 0.07)):
        sv = ScalingVector.broadcast(alpha, 4)
        res = solve_fif(FifProblem(part, sv, op, f, "alpha"),
                        cells=2**18, tol=1e-9)
        rep = box_counting_dimension(res.grid, res.values)
        assert abs(theoretical_box_dimension(sv) - target) <= 1e-12
        assert abs(rep.estimated_dimension - target) <= slack, rep
        assert rep.r_squared >= 0.99
        details.append(f"a={alpha}: {rep.estimated_dimension:.3f}")
    _finish("[10] box-counting dimension", t0, 120.0, "  ".join(details))


def test_11_roughness_gate_and_convergence():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, 1.0, 4)
    mu = 0.5
    good = ScalingVector.broadcast(0.4, 4)
    bad = ScalingVector.broadcast(0.6, 4)
    # gate arithmetic must be exact float comparisons, not approximate
    assert good.holder_contraction(part, mu) == 0.4 / 0.25**0.5
    assert bad.holder_contraction(part, mu) == 0.6 / 0.25**0.5
    assert good.holder_contraction(part, mu) < 1.0
    assert not bad.holder_contraction(part, mu) < 1.0

    f = make_function("abspow:0,0.5")
    tol = 1e-9
    predicted = math.ceil(math.log(tol) / math.log(0.4))
    norms = []
    for n in (16, 32, 64):
        op = OperatorConfig(ramp(), 0.0, 1.0, n)
        res = solve_fif(FifProblem(part, good, op, f, "alpha"),
                        cells=4 * 2**12, tol=tol)
        assert res.iterations <= predicted + 5
        diff = res.values - f(res.grid)
        sup = float(np.max(np.abs(diff)))
        norms.append(max(sup, holder_seminorm(diff, 1.0, mu)))
    assert norms[0] > norms[1] > norms[2]
    _finish("[11] roughness gate and convergence", t0, 120.0,
            " > ".join(f"{v:.3f}" for v in norms))


def test_12_derivative_level_consistency():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, 1.0, 4)
    op = OperatorConfig(smoothstep(1), 0.0, 1.0, 1024, r=1)
    prob = FifProblem(part, ScalingVector.broadcast(0.2, 4), op,
                      make_function("sin"), "smooth")
    res = solve_fif(prob, cells=4 * 2**12, tol=1e-10)
    level = res.diagnostics["derivative_levels"][1]
    assert level["matching_residual"] <= 1e-8
    assert max(level["endpoint_identity_gap"]) <= 1e-8
    step = res.grid[1] - res.grid[0]
    fd = (res.values[2:] - res.values[:-2]) / (2 * step)
    gap = float(np.max(np.abs(fd - res.derivatives[1][1:-1])))
    assert gap <= 1e-3
    _finish("[12] derivative-level consistency", t0, 60.0,
            f"fd gap {gap:.1e}, matching {level['matching_residual']:.1e}")


def test_13_orbit_matches_render():
    t0 = time.perf_counter()
    part = Partition.uniform(0.0, np.pi, 4)
    op = OperatorConfig(ramp(), 0.0, np.pi, 32)
    prob = FifProblem(part, ScalingVector.broadcast(0.3, 4), op,
                      make_function("sin"), "alpha")
    res = solve_fif(prob, cells=2**14, tol=1e-10)
    xs, ys = chaos_game_render(prob, 100000, seed=2026)
    idx = np.clip(np.rint(xs / (np.pi / 2**14)).astype(np.int64), 0, 2**14)
    dev = float(np.max(np.abs(ys - res.values[idx])))
    assert dev <= 1e-3
    _finish("[13] orbit vs deterministic render", t0, 30.0, f"max dev {dev:.1e}")


def test_14_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        assert main([
            "build", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--n", "32", "--alpha", "0.3", "--grid-exp", "10",
            "--out", str(out),
        ]) == 0
        assert main([
            "dimension", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--n", "32", "--alpha", "0.2", "--chaos",
            "--points", "120000", "--seed", "11", "--scales", "4..11",
            "--out", str(out),
        ]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    _finish("[14] byte-identical reruns", t0, detail=" ".join(names))
