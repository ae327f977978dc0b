"""Command line front end.

Commands: build, converge, dimension, smooth, holder, bounds.  All file
output is deterministic for a fixed config and seed: JSON is sorted, nothing
timestamps itself, and every table cell reads exactly as ``"%.17g"`` prints
it, 17 significant digits that round-trip the float64.  One writer,
``fif.g17.write_rows``, emits every table (the CSV files and the
``bounds`` table) in blocks of fixed memory.
Exit codes: 0 success, 2 invalid configuration, 3 solver non-convergence,
4 failed cross-check.  A command returns nothing or raises; ``main`` alone
turns the error into its code and one ``error:`` line.  Exit 2 or 3 leaves
no output file; a failed check of a command's own results raises
``CrossCheckError`` after all of its files are written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    MAX_SIZE_EXP,
    box_counting_dimension,
    error_bound_alpha,
    error_bound_discrete,
    holder_seminorm,
    knot_data_collinear,
    modulus_of_continuity,
    theoretical_box_dimension,
)
from .errors import (
    CrossCheckError,
    InvalidConfig,
    MatchingConditionError,
    NonConvergence,
)
from .fractal import FifProblem, chaos_game_render, render, solve_fif
from .g17 import write_rows
from .kernels import kernel_from_name
from .maps import Partition, ScalingVector
from .operators import FunctionInput, OperatorConfig, nn_eval
from .registry import make_function

# not called here: the benchmark's tracer (bench/spans.py) looks these two up
# by name as attributes of this module
solve_fif_discrete = solve_fif_smooth = solve_fif

# samples of the curve `converge` and `bounds` read every modulus from; with
# 16 samples per node spacing, a ladder may reach MODULUS_SAMPLES / 16 nodes
MODULUS_SAMPLES = 2**17


@dataclass
class RunConfig:
    function: str = "sin"
    interval: tuple = (0.0, 1.0)
    subintervals: int = 4
    nodes: int = 32
    order: int = 1
    alpha: str = "0.3"
    kernel: str = "ramp"
    grid_exp: int = 10
    tol: float = 1e-9
    max_iters: int = 1000
    seed: int = 0
    mu: float = 0.5
    n_ladder: str = "8,16,32,64,128"
    discrete: bool = False
    chaos: bool = False
    points: int = 100000
    scales: str = "4..12"

    def cells(self) -> int:
        return self.subintervals * 2**self.grid_exp


def _config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidConfig(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InvalidConfig("config file must hold a JSON object")
        if isinstance(loaded.get("config"), dict):
            loaded = loaded["config"]
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        base.update(loaded)
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            base[f.name] = val
    cfg = RunConfig(**base)
    # a config file can carry any JSON value; each field takes its default's type
    for f in dataclasses.fields(RunConfig):
        kinds = (int, float) if f.type == "float" else (type(f.default),)
        if f.name != "interval" and type(getattr(cfg, f.name)) not in kinds:
            raise InvalidConfig(f"config value {f.name!r} must be of type {f.type}")
    try:
        lo, hi = (float(v) for v in cfg.interval)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig("interval must be two numbers") from exc
    cfg.interval = (lo, hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidConfig("interval ends must be finite")
    if not cfg.interval[1] > cfg.interval[0]:
        raise InvalidConfig("interval must satisfy a < b")
    if not math.isfinite(hi - lo):
        raise InvalidConfig("interval length b - a overflows")
    if cfg.grid_exp < 4:
        raise InvalidConfig("grid exponent must be at least 4")
    if cfg.subintervals < 2:
        raise InvalidConfig("need at least 2 subintervals")
    # checked before any array exists; the exponent first, so that no huge
    # integer is formed either.  Not left to solve_fif's own cap: N also
    # sizes the partition and the scalings, built before any solve
    if cfg.grid_exp > MAX_SIZE_EXP or cfg.cells() > 2**MAX_SIZE_EXP:
        raise InvalidConfig(f"render grid above 2^{MAX_SIZE_EXP} cells")
    if cfg.seed < 0:
        raise InvalidConfig("seed must be non-negative")
    if cfg.nodes > 2**MAX_SIZE_EXP:
        raise InvalidConfig(f"operator above 2^{MAX_SIZE_EXP} nodes")
    return cfg


def _parse_alpha(cfg: RunConfig):
    spec = cfg.alpha.strip()
    a, b = cfg.interval
    count = cfg.subintervals
    if spec.startswith("linear:"):
        try:
            lo, hi = (float(v) for v in spec[len("linear:"):].split(","))
        except ValueError as exc:
            raise InvalidConfig(f"want linear:lo,hi, got {spec!r}") from exc
        fn = lambda x: lo + (hi - lo) * (np.asarray(x) - a) / (b - a)
        return ScalingVector([fn] * count, domain=(a, b))
    if spec.startswith("sine:"):
        try:
            amp = float(spec[len("sine:"):])
        except ValueError as exc:
            raise InvalidConfig(f"want sine:amp, got {spec!r}") from exc
        fn = lambda x: amp * (
            0.55 + 0.45 * np.sin(2 * np.pi * (np.asarray(x) - a) / (b - a))
        )
        return ScalingVector([fn] * count, domain=(a, b))
    try:
        vals = [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse alpha spec {spec!r}") from exc
    if len(vals) == 1:
        vals = vals * count
    if len(vals) != count:
        raise InvalidConfig("alpha list length must equal the subinterval count")
    return ScalingVector.constant(vals)


def _parse_scales(spec: str):
    lo, _, hi = spec.partition("..")
    try:
        j0, j1 = int(lo), int(hi)
    except ValueError as exc:
        raise InvalidConfig(f"bad scales spec {spec!r}, want e.g. 4..12") from exc
    if j1 < j0:
        raise InvalidConfig("scales range is empty")
    if j1 > MAX_SIZE_EXP:
        raise InvalidConfig(f"box sizes below 2^-{MAX_SIZE_EXP}")
    return tuple(2.0**-j for j in range(j0, j1 + 1))


def _load_table(path: str, partition: Partition) -> FunctionInput:
    # a leading header row (as our own CSV outputs carry) is tolerated
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise InvalidConfig(f"cannot read table file: {exc}") from exc
    except ValueError:
        try:
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2,
                              skiprows=1)
        except (OSError, ValueError) as exc:
            raise InvalidConfig(
                f"table file must be numeric two-column CSV: {exc}"
            ) from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise InvalidConfig("table file must have two columns: x, f(x)")
    xs, vals = data[:, 0], data[:, 1]
    knots = partition.knots
    span = partition.b - partition.a
    if xs.size != knots.size:
        raise InvalidConfig(
            f"table has {xs.size} rows, the knot grid has {knots.size}"
        )
    if float(np.max(np.abs(xs - knots))) > 1e-9 * span:
        raise InvalidConfig("table x values must match the uniform knot grid")
    return FunctionInput.tabulated(vals)


def _build_problem(cfg: RunConfig, smooth=False):
    a, b = cfg.interval
    kernel = kernel_from_name(cfg.kernel)
    partition = Partition.uniform(a, b, cfg.subintervals)
    scaling = _parse_alpha(cfg)
    order = cfg.order if smooth else 0
    operator = OperatorConfig(kernel, a, b, cfg.nodes, order)
    if cfg.function.startswith("table:"):
        f = _load_table(cfg.function[len("table:"):], partition)
        variant = "discrete"
    else:
        f = make_function(cfg.function, max_derivative=max(order, 4))
        variant = "discrete" if cfg.discrete else ("smooth" if smooth else "alpha")
    if smooth and variant != "smooth":
        raise InvalidConfig("smooth runs need an analytic (non-table) function")
    return FifProblem(partition, scaling, operator, f, variant)


@contextlib.contextmanager
def _output(path: Path):
    # an unwritable output is a configuration error, as an unusable --out is
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, header, columns):
    with _output(path) as fh:
        write_rows(fh, header, columns)


def _write_json(path: Path, obj):
    # numpy arrays and scalars are written as the lists and numbers they hold
    with _output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda v: v.tolist())
        fh.write("\n")


def _meta(cfg: RunConfig, results: dict, diagnostics: dict | None = None) -> dict:
    cfg_dict = dataclasses.asdict(cfg)
    cfg_dict["interval"] = list(cfg.interval)
    return {
        "config": cfg_dict,
        "results": results,
        "diagnostics": diagnostics if diagnostics is not None else {},
    }


def cmd_build(cfg: RunConfig, out: Path) -> None:
    problem = _build_problem(cfg)
    # the discrete bound reads moduli off the render grid, 16 cells per spacing
    if problem.variant == "discrete" and 16 * cfg.nodes > cfg.cells():
        raise InvalidConfig(
            f"discrete bound on {cfg.cells()} cells needs --n <= {cfg.cells() // 16}"
        )
    res = solve_fif(problem, cfg.cells(), cfg.tol, cfg.max_iters)
    pieces = problem.pieces()
    height, base = pieces.height_eval(res.grid), pieces.base_eval(res.grid)
    base_gap = float(np.max(np.abs(height - base)))
    sup = problem.scaling.sup_norm
    results = {
        "residual": res.residual,
        "iterations": res.iterations,
        "y_min": res.y_min,
        "y_max": res.y_max,
        "base_gap": base_gap,
        "bound_alpha": error_bound_alpha(sup, base_gap),
        "scaling_sup": sup,
    }
    if problem.variant == "discrete":
        span = cfg.interval[1] - cfg.interval[0]
        deltas = [span / cfg.nodes, span / cfg.subintervals]
        om_nodes, om_knots = modulus_of_continuity(height, span, deltas)
        results["bound_discrete"] = error_bound_discrete(sup, om_nodes, om_knots)
    _write_csv(out / "fif.csv", ["x", "f", "base", "fif"],
               [res.grid, height, base, res.values])
    _write_json(out / "meta.json", _meta(cfg, results, res.diagnostics))
    print(
        f"build: {res.iterations} passes, residual {res.residual:.3e}, "
        f"wrote {out / 'fif.csv'} and {out / 'meta.json'}"
    )


def cmd_converge(cfg: RunConfig, out: Path) -> None:
    if cfg.function.startswith("table:"):
        raise InvalidConfig("converge needs an analytic function to compare against")
    ladder = _parse_ladder(cfg.n_ladder)
    a, b = cfg.interval
    sup_alpha = _parse_alpha(cfg).sup_norm
    f = make_function(cfg.function)
    moduli = _ladder_moduli(f, a, b, ladder, cfg.discrete)
    rows_n, rows_sub, errs, bounds = [], [], [], []
    for n, (om, om_knots), (res, truth) in zip(ladder, moduli, _converge_solves(cfg, ladder, f)):
        err = float(np.max(np.abs(res.values - truth)))
        if cfg.discrete:
            bound = error_bound_discrete(sup_alpha, om, om_knots)
        else:
            bound = error_bound_alpha(sup_alpha, om)
        rows_n.append(n)
        rows_sub.append(max(n, 2) if cfg.discrete else cfg.subintervals)
        errs.append(err)
        bounds.append(bound)
        print(f"n={n:5d}  sup_error={err:.6e}  bound={bound:.6e}")
    ratios = [e / b if b > 0 else 0.0 for e, b in zip(errs, bounds)]
    header = ["n", "sup_error", "bound", "ratio"]
    columns = [rows_n, errs, bounds, ratios]
    if cfg.discrete:
        header.insert(1, "N")
        columns.insert(1, rows_sub)
    _write_csv(out / "converge.csv", header, columns)
    _write_json(
        out / "meta.json",
        _meta(cfg, {"n": rows_n, "N": rows_sub, "sup_error": errs, "bound": bounds}),
    )
    decreasing = all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    bounded = all(e <= b * (1 + 1e-9) + 1e-12 for e, b in zip(errs, bounds))
    if not (decreasing and bounded):
        raise CrossCheckError("converge: monotone decrease or bound check failed")


def cmd_dimension(cfg: RunConfig, out: Path) -> None:
    problem = _build_problem(cfg)
    if cfg.chaos:
        xs, ys = chaos_game_render(problem, cfg.points, cfg.seed)
    else:
        res = solve_fif(problem, cfg.cells(), cfg.tol, cfg.max_iters)
        xs, ys = res.grid, res.values
    report = box_counting_dimension(xs, ys, _parse_scales(cfg.scales))
    f = problem.f
    knot_y = f.values if f.mode == "tabulated" else f(problem.partition.knots)
    collinear = knot_data_collinear(problem.partition.knots, knot_y)
    theory = kappa = None
    if collinear:
        notes = ["knot data collinear: closed-form dimension not applicable"]
    elif problem.scaling.is_constant and problem.partition.is_uniform:
        theory, kappa, notes = theoretical_box_dimension(problem.scaling), problem.scaling.kappa, []
    else:
        notes = ["closed-form dimension needs constant scalings on uniform knots"]
    results = dataclasses.asdict(report) | {
        "theoretical_dimension": theory, "kappa": kappa,
        "collinear_data": collinear, "notes": notes,
    }
    _write_json(out / "dimension.json", _meta(cfg, results, {"chaos": cfg.chaos}))
    print(
        f"dimension: estimate {report.estimated_dimension:.4f}, "
        f"r^2 {report.r_squared:.5f}, theory {theory if theory is not None else 'n/a'}"
    )
    if theory is not None and abs(report.estimated_dimension - theory) > 0.15:
        raise CrossCheckError("dimension: estimate disagrees with closed form")


def cmd_smooth(cfg: RunConfig, out: Path) -> None:
    if cfg.order < 1:
        raise InvalidConfig("smooth runs need order >= 1")
    problem = _build_problem(cfg, smooth=True)
    res = solve_fif(problem, cfg.cells(), cfg.tol, cfg.max_iters)
    step = float(res.grid[1] - res.grid[0])
    header = ["x", "fif"]
    columns = [res.grid, res.values]
    prev = res.values
    for k in range(1, cfg.order + 1):
        header.append(f"fif_d{k}")
        columns.append(res.derivatives[k])
        header.append(f"fd_check_d{k}")
        columns.append(np.gradient(prev, step))
        prev = res.derivatives[k]
    _write_csv(out / "smooth.csv", header, columns)
    levels = res.diagnostics.get("derivative_levels", {})
    results = {
        "residual": res.residual,
        "iterations": res.iterations,
        "matching_residuals": {k: v["matching_residual"] for k, v in levels.items()},
    }
    _write_json(out / "meta.json", _meta(cfg, results, res.diagnostics))
    print(
        f"smooth: order {cfg.order}, {res.iterations} passes, "
        f"residual {res.residual:.3e}"
    )


def cmd_holder(cfg: RunConfig, out: Path) -> None:
    ladder = _parse_ladder(cfg.n_ladder)
    part = Partition.uniform(*cfg.interval, cfg.subintervals)
    scaling = _parse_alpha(cfg)
    gate = scaling.holder_contraction(part, cfg.mu)
    if gate >= 1.0:
        worst = int(np.argmax(scaling.sup_norms / part.slopes**cfg.mu))
        raise InvalidConfig(
            f"variable-scaling contraction gate failed at subinterval "
            f"{worst + 1}: {gate:.6f} >= 1"
        )
    f = make_function(cfg.function)
    rows, sups, semis, norms = [], [], [], []
    for n, (res, truth) in zip(ladder, _ladder_solves(cfg, ladder, f)):
        diff = res.values - truth
        semi = holder_seminorm(diff, part.b - part.a, cfg.mu)
        sup = float(np.max(np.abs(diff)))
        rows.append(n)
        sups.append(sup)
        semis.append(semi)
        norms.append(max(sup, semi))
        print(f"n={n:5d}  sup={sup:.6e}  seminorm={semi:.6e}")
    _write_csv(
        out / "holder.csv",
        ["n", "sup_error", "holder_seminorm_error", "combined_0mu_error"],
        [rows, sups, semis, norms],
    )
    _write_json(
        out / "meta.json",
        _meta(
            cfg,
            {"n": rows, "sup": sups, "seminorm": semis, "combined": norms},
            {"gate_worst_term": gate, "cells": cfg.cells()},
        ),
    )


def cmd_bounds(cfg: RunConfig, out: Path) -> None:
    if cfg.function.startswith("table:"):
        raise InvalidConfig("bounds needs an analytic function")
    ladder = _parse_ladder(cfg.n_ladder)
    a, b = cfg.interval
    scaling = _parse_alpha(cfg)
    sup = scaling.sup_norm
    kernel = kernel_from_name(cfg.kernel)
    f = make_function(cfg.function)
    moduli = _ladder_moduli(f, a, b, ladder, cfg.discrete)
    probe = np.linspace(a, b, 10**4 + 1)
    truth = f(probe)
    header = ["n", "base_gap", "modulus", "bound_gap", "bound_modulus"]
    if cfg.discrete:
        header.append("bound_discrete")
    rows = []
    for n, (om, om_knots) in zip(ladder, moduli):
        op = OperatorConfig(kernel, a, b, n)
        gap = float(np.max(np.abs(truth - nn_eval(op, f, probe))))
        row = [n, gap, om, error_bound_alpha(sup, gap), error_bound_alpha(sup, om)]
        if cfg.discrete:
            row.append(error_bound_discrete(sup, om, om_knots))
        rows.append(row)
    write_rows(sys.stdout, header, list(zip(*rows)), delimiter="  ")


def _parse_ladder(spec: str):
    try:
        ladder = [int(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad ladder spec {spec!r}") from exc
    if not ladder or any(n < 1 for n in ladder):
        raise InvalidConfig("ladder must list positive node counts")
    # a repeated rung repeats its error, so converge's strict decrease fails
    if len(set(ladder)) < len(ladder):
        raise InvalidConfig("ladder must not repeat a node count")
    if max(ladder) > 2**MAX_SIZE_EXP:
        raise InvalidConfig(f"ladder entry above 2^{MAX_SIZE_EXP} nodes")
    return ladder


def _ladder_solves(cfg: RunConfig, ladder, f):
    """``(result, truth)`` per rung ``n`` of ``ladder``: the rungs' problems
    differ only in their operator's node count, so they share one render of
    ``cfg.cells()`` cells, and ``truth`` is ``f`` on its grid.  That is the
    render's height itself unless the height is the discrete one; then it is
    made after the first rung's solve, so that solve does not hold it.  The
    last rung hands the render over, so its solve drops a discrete height
    before the plan solves."""
    problem = _build_problem(dataclasses.replace(cfg, nodes=ladder[0]))
    shared = [render(problem, cfg.cells())]
    truth = shared[0].height if problem.variant == "alpha" else None
    for k, n in enumerate(ladder):
        rung = FifProblem(problem.partition, problem.scaling,
                          dataclasses.replace(problem.operator, n=n), problem.f,
                          problem.variant)
        res = solve_fif(rung, cfg.cells(), cfg.tol, cfg.max_iters,
                        rendered=shared[0] if k + 1 < len(ladder) else shared.pop())
        truth = f(res.grid) if truth is None else truth
        yield res, truth


def _converge_solves(cfg: RunConfig, ladder, f):
    """``_ladder_solves``, but a ``--discrete`` rung sets ``N = max(n, 2)``,
    which changes the render grid, so each rung is a ladder of its own."""
    if not cfg.discrete:
        yield from _ladder_solves(cfg, ladder, f)
        return
    for n in ladder:
        yield from _ladder_solves(dataclasses.replace(cfg, subintervals=max(n, 2)), [n], f)


def _ladder_moduli(f, a, b, ladder, knots):
    """Per rung ``n``, the moduli of ``f`` at the node spacing ``(b - a) / n``
    and at the knot spacing ``(b - a) / max(n, 2)``, from one curve of
    ``MODULUS_SAMPLES`` samples and one ``modulus_of_continuity`` call.

    Only with ``knots`` does an ``n = 1`` rung add its knot spacing to the
    call; otherwise the knot modulus is the node modulus.  Called before the
    first solve, so the curve and its table are gone by then.
    """
    # every rung is checked before the first one is computed
    if 16 * max(ladder) > MODULUS_SAMPLES:
        raise InvalidConfig(f"ladder entry above {MODULUS_SAMPLES // 16} nodes")
    dense = f(np.linspace(a, b, MODULUS_SAMPLES + 1))
    two_knots = [knots and n < 2 for n in ladder]
    deltas = []
    for n, extra in zip(ladder, two_knots):
        deltas += [(b - a) / n, (b - a) / 2] if extra else [(b - a) / n]
    moduli = iter(modulus_of_continuity(dense, b - a, deltas))
    pairs = []
    for extra in two_knots:
        om = next(moduli)
        pairs.append((om, next(moduli) if extra else om))
    return pairs


_COMMANDS = {
    "build": cmd_build,
    "converge": cmd_converge,
    "dimension": cmd_dimension,
    "smooth": cmd_smooth,
    "holder": cmd_holder,
    "bounds": cmd_bounds,
}


@functools.cache  # one parser per process: building it takes about a millisecond
def _make_parser() -> argparse.ArgumentParser:
    # the options every subcommand shares, built once and taken by each
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (flags override it)")
    shared.add_argument("--function", help="registry name or table:<csv path>")
    shared.add_argument(
        "--interval", nargs=2, type=float, metavar=("A", "B"),
        help="domain endpoints",
    )
    shared.add_argument("--N", dest="subintervals", type=int, help="subinterval count")
    shared.add_argument("--n", dest="nodes", type=int, help="operator node count")
    shared.add_argument("--r", dest="order", type=int, help="derivative layers")
    shared.add_argument(
        "--alpha",
        help="constant, comma list, or linear:lo,hi / sine:amp families",
    )
    shared.add_argument("--kernel", help="ramp | smoothstep:<k> | bump")
    shared.add_argument(
        "--grid-exp", dest="grid_exp", type=int,
        help="render cells = N * 2^this",
    )
    shared.add_argument("--tol", type=float,
                        help="bound on the distance to the fixed point")
    shared.add_argument("--max-iters", dest="max_iters", type=int,
                        help="doubling passes per solve (N^K cells need none)")
    shared.add_argument("--seed", type=int, help="random-orbit seed")
    shared.add_argument("--mu", type=float, help="roughness exponent")
    shared.add_argument("--n-ladder", dest="n_ladder", help="e.g. 8,16,32,64")
    shared.add_argument(
        "--discrete", action="store_const", const=True, default=None,
        help="use the node-data-only construction",
    )
    shared.add_argument(
        "--chaos", action="store_const", const=True, default=None,
        help="dimension: sample via the random orbit",
    )
    shared.add_argument("--points", type=int, help="random-orbit point count")
    shared.add_argument("--scales", help="dyadic box sizes, e.g. 4..12")
    shared.add_argument("--out", default=".", help="output directory")
    parser = argparse.ArgumentParser(
        prog="fif",
        description="Build and analyze fractal interpolants with "
        "sigmoidal quasi-interpolation heights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse (3.11) takes an argument for a negative number only when it
    # matches ^-\d+$|^-\d*\.\d+$, so "--interval -1e3 1e3" would read -1e3 as
    # an option name; this pattern adds the exponent form
    negative = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")
    for name, help_text in [
        ("build", "render one interpolant to fif.csv + meta.json"),
        ("converge", "node-count ladder with error bounds to converge.csv"),
        ("dimension", "box-counting dimension to dimension.json"),
        ("smooth", "differentiable construction with derivative levels"),
        ("holder", "variable-scaling ladder with roughness norms"),
        ("bounds", "print error-bound tables without solving"),
    ]:
        command = sub.add_parser(name, help=help_text, parents=[shared])
        command._negative_number_matcher = negative
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out = Path(args.out)
        if args.command != "bounds":  # bounds writes to stdout only
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InvalidConfig(f"cannot use --out {out}: {exc.strerror}") from exc
        _COMMANDS[args.command](cfg, out)
    except (InvalidConfig, NonConvergence, CrossCheckError, MatchingConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidConfig) else 3 if isinstance(exc, NonConvergence) else 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
