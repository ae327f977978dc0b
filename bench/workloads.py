"""The benchmark's workloads: the `fif` commands of one operation, and the
checks every operation's outputs must pass.

One operation is one CLI command, or for ``dimension`` one pair of commands.
A round is the list of operations a run repeats; its composition is fixed, so
a new seed changes the inputs but never the total work of a round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NUMPY_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
FUNCTIONS = tuple(NUMPY_FUNCTIONS)

# fd_check_d1 is a central difference of the fif column; at 2^15 cells per
# subinterval it agrees with fif_d1 to about 3e-8 of the derivative's scale.
D1_REL_TOL = 1e-6
KNOT_REL_TOL = 1e-9
DIMENSION_TOL = 0.15


class CheckFailed(Exception):
    """An operation's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Op:
    """One operation: CLI argvs (without ``--out``) run in order, one fresh
    output directory each, and the check its output directories must pass."""

    key: str
    commands: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    round: Callable  # seed -> list of Op, the repeated unit of a run
    setup: Callable  # seed -> Op of minimum size, exit status checked only


def function_order(seed: int) -> list:
    """The seed's order of the fixed function set."""
    return random.Random(seed).sample(FUNCTIONS, len(FUNCTIONS))


def _load_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise CheckFailed(f"{path.name}: header {first!r}, want {header!r}")
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{path.name}: {exc}") from exc


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def check_converge(dirs) -> None:
    """Ladder rows match the config; errors fall and stay under the bounds."""
    out = Path(dirs[0])
    meta = _load_json(out / "meta.json")
    ladder = [int(v) for v in meta["config"]["n_ladder"].split(",")]
    rows = _load_csv(out / "converge.csv", "n,sup_error,bound,ratio")
    if rows.shape != (len(ladder), 4) or rows[:, 0].tolist() != ladder:
        raise CheckFailed(f"converge.csv rows {rows[:, 0].tolist()}, want {ladder}")
    err, bound = rows[:, 1], rows[:, 2]
    if not np.all(np.diff(err) < 0):
        raise CheckFailed("sup_error does not decrease along the ladder")
    if not np.all(err <= bound * (1 + 1e-9) + 1e-12):
        raise CheckFailed("sup_error exceeds its bound")
    if err.tolist() != meta["results"]["sup_error"]:
        raise CheckFailed("converge.csv and meta.json disagree on sup_error")


def check_dimension(dirs) -> None:
    """Each estimate lies within DIMENSION_TOL of the closed form."""
    for out in dirs:
        res = _load_json(Path(out) / "dimension.json")["results"]
        theory = res.get("theoretical_dimension")
        if theory is None:
            raise CheckFailed("dimension.json has no theoretical_dimension")
        if abs(res["estimated_dimension"] - theory) > DIMENSION_TOL:
            raise CheckFailed(
                f"estimate {res['estimated_dimension']:.4f} vs theory {theory:.4f}"
            )


def check_smooth(dirs) -> None:
    """Residual within tol, knots reproduce f, fif_d1 matches its difference."""
    out = Path(dirs[0])
    meta = _load_json(out / "meta.json")
    cfg = meta["config"]
    if not meta["results"]["residual"] <= cfg["tol"]:
        raise CheckFailed(f"residual {meta['results']['residual']:.3e} > tol")
    header = ["x", "fif"]
    for k in range(1, cfg["order"] + 1):
        header += [f"fif_d{k}", f"fd_check_d{k}"]
    data = _load_csv(out / "smooth.csv", ",".join(header))
    per_piece = 2 ** cfg["grid_exp"]
    cells = cfg["subintervals"] * per_piece
    if data.shape != (cells + 1, len(header)):
        raise CheckFailed(f"smooth.csv shape {data.shape}, want {cells + 1} rows")
    x, fif = data[:, 0], data[:, 1]
    knots = slice(0, cells + 1, per_piece)
    f_knots = NUMPY_FUNCTIONS[cfg["function"]](x[knots])
    scale = max(1.0, float(np.max(np.abs(fif))))
    knot_gap = float(np.max(np.abs(fif[knots] - f_knots)))
    if knot_gap > KNOT_REL_TOL * scale:
        raise CheckFailed(f"fif misses f at the knots by {knot_gap:.3e}")
    d1, fd1 = data[1:-1, 2], data[1:-1, 3]
    d1_scale = max(1.0, float(np.max(np.abs(d1))))
    d1_gap = float(np.max(np.abs(d1 - fd1)))
    if d1_gap > D1_REL_TOL * d1_scale:
        raise CheckFailed(f"fif_d1 differs from fd_check_d1 by {d1_gap:.3e}")


def _no_check(dirs) -> None:
    pass


CONVERGE_ARGS = ("--N", "5", "--alpha", "0.95", "--n-ladder", "8,16,32,64,128",
                 "--grid-exp", "14")
DIMENSION_ARGS = ("--function", "poly:0,1,-1", "--N", "4", "--n", "1",
                  "--alpha", "0.55")
SMOOTH_ARGS = ("--r", "2", "--kernel", "bump", "--n", "256", "--alpha", "0.05",
               "--grid-exp", "15")


def _converge_round(seed):
    return [
        Op(f, (("converge", "--function", f, *CONVERGE_ARGS),), check_converge)
        for f in function_order(seed)
    ]


def _converge_setup(seed):
    f = function_order(seed)[0]
    argv = ("converge", "--function", f, "--N", "5", "--alpha", "0.95",
            "--n-ladder", "8", "--grid-exp", "4")
    return Op(f, (argv,), _no_check)


def _dimension_pair(grid_exp, points, seed):
    plain = ("dimension", *DIMENSION_ARGS, "--grid-exp", str(grid_exp))
    return (plain, (*plain, "--chaos", "--points", str(points), "--seed", str(seed)))


def _dimension_round(seed):
    return [Op("pair", _dimension_pair(18, 1000000, seed), check_dimension)]


def _dimension_setup(seed):
    # box counting refuses fewer than 1e5 points, so this is the minimum size
    return Op("pair", _dimension_pair(15, 100000, seed), _no_check)


def _smooth_round(seed):
    return [
        Op(f, (("smooth", "--function", f, *SMOOTH_ARGS),), check_smooth)
        for f in function_order(seed)
    ]


def _smooth_setup(seed):
    f = function_order(seed)[0]
    argv = ("smooth", "--function", f, "--r", "2", "--kernel", "bump",
            "--n", "8", "--alpha", "0.05", "--grid-exp", "4")
    return Op(f, (argv,), _no_check)


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {
    "converge-rough": Workload(_converge_round, _converge_setup),
    "dimension": Workload(_dimension_round, _dimension_setup),
    "smooth-bump": Workload(_smooth_round, _smooth_setup),
}
