import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fif
from fif.analysis import error_bound_alpha, error_bound_discrete, modulus_of_continuity
from fif import cli
from fif.cli import _write_csv, main
from fif.g17 import BLOCK_ROWS, write_rows
from fif.maps import ScalingVector
from fif.operators import FunctionInput
from fif.registry import make_function


def run(args):
    return main(args)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return header, cols


def test_build_writes_curve_and_meta(tmp_path):
    code = run(
        [
            "build", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--n", "32", "--alpha", "0.3", "--kernel", "ramp",
            "--grid-exp", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, cols = read_csv(tmp_path / "fif.csv")
    assert header == ["x", "f", "base", "fif"]
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert set(meta) == {"config", "results", "diagnostics"}
    assert meta["results"]["residual"] <= meta["config"]["tol"]
    assert meta["results"]["iterations"] >= 1
    # knots are grid points, the curve must pass through the data there
    knots = np.linspace(0.0, 3.14159265, 5)
    idx = np.searchsorted(cols["x"], knots)
    assert np.max(np.abs(cols["fif"][idx] - cols["f"][idx])) <= 1e-9


def test_build_zero_scaling_copies_the_function(tmp_path):
    code = run(
        [
            "build", "--function", "exp", "--interval", "0", "1", "--N", "4",
            "--n", "16", "--alpha", "0", "--grid-exp", "7", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    _, cols = read_csv(tmp_path / "fif.csv")
    assert np.max(np.abs(cols["fif"] - cols["f"])) <= 1e-12


def test_build_rejects_expansive_scaling(tmp_path, capsys):
    code = run(
        [
            "build", "--function", "sin", "--alpha", "1.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "< 1" in capsys.readouterr().err


def test_cli_import_does_not_load_sympy():
    # sympy is a test-only dependency: the closed-form kernels never need it;
    # scipy is no dependency at all
    src = str(Path(fif.__file__).resolve().parents[1])
    for name in ("sympy", "scipy"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, fif.cli; print({name!r} in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", name


def test_invalid_flags_exit_2(tmp_path):
    base = ["build", "--out", str(tmp_path)]
    assert run(base + ["--interval", "1", "0"]) == 2
    assert run(base + ["--grid-exp", "2"]) == 2
    assert run(base + ["--N", "1"]) == 2
    assert run(base + ["--alpha", "what"]) == 2
    assert run(base + ["--function", "nope"]) == 2
    assert run(base + ["--kernel", "gaussian"]) == 2
    assert run(base + ["--kernel", "smoothstep:x"]) == 2
    assert run(base + ["--alpha", "linear:0.1"]) == 2
    assert run(base + ["--alpha", "sine:big"]) == 2
    assert run(["dimension", "--chaos", "--seed", "-1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command",
    ["build", "build --discrete", "smooth", "converge", "bounds", "holder", "dimension"],
)
def test_non_finite_function_values_exit_2(tmp_path, capsys, command):
    # exp overflows on [0, 800]; a NaN residual must not pass as converged
    argv = command.split() + [
        "--function", "exp", "--interval", "0", "800", "--alpha", "0.1",
        "--kernel", "smoothstep:1", "--out", str(tmp_path),
    ]
    with np.errstate(over="ignore"):
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error: function returned non-finite values" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags", [["--n", "512"], ["--n", "8", "--N", "4", "--grid-exp", "4"]],
    ids=["default-grid", "coarse-grid"],
)
def test_discrete_build_checks_the_bound_grid_before_solving(tmp_path, capsys, flags):
    # the discrete bound needs 16 render cells per node spacing
    assert run(["build", "--discrete", *flags, "--out", str(tmp_path)]) == 2
    assert "--n <=" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [
        ["build", "--grid-exp", "60"],
        ["build", "--N", str(2**21), "--grid-exp", "4"],
        ["dimension", "--chaos", "--points", "1000000000000000"],
        ["dimension", "--grid-exp", "4", "--scales", "4..60"],
        ["build", "--n", "1000000000000000", "--grid-exp", "4"],
        ["converge", "--n-ladder", "8,1000000000000000"],
        ["converge", "--function", "sin", "--alpha", "0.5", "--n-ladder", "8,16384"],
        ["bounds", "--function", "sin", "--alpha", "0.5", "--n-ladder", "8,16384"],
        # one step above each cap: 2^25 cells, 3 * 2^23 cells, 2^24 + 1 points and nodes
        ["build", "--grid-exp", "25"],
        ["build", "--N", "3", "--grid-exp", "23"],
        ["dimension", "--chaos", "--points", str(2**24 + 1)],
        ["build", "--n", str(2**24 + 1)],
    ],
    ids=["grid-exp", "cells", "points", "scales", "nodes", "ladder",
         "converge-rung", "bounds-rung", "grid-exp-25", "cells-3x2^23",
         "points-2^24+1", "nodes-2^24+1"],
)
def test_size_caps_exit_2_before_allocating(tmp_path, flags):
    tracemalloc.start()
    try:
        code = run(flags + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20


@pytest.mark.parametrize(
    "command", ["converge --n-ladder 8", "bounds --n-ladder 8", "holder --n-ladder 8",
                "build --discrete"],
)
def test_subnormal_interval_exits_2(tmp_path, capsys, command):
    # 0..1e-320 is a valid interval, but its sample step rounds to 0
    argv = command.split() + ["--function", "sin", "--interval", "0", "1e-320"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: sample step underflows to 0: interval too short"]
    # build reads the bound's moduli off its curve before it writes it
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["converge", "bounds", "holder", "build --discrete"])
def test_subnormal_sample_step_exits_2(tmp_path, capsys, command):
    # the step of 1e-318 over 2^17 samples is subnormal, not 0: it rounds from
    # 7.6e-324 to 1e-323, which would place the modulus windows 12,650
    # samples apart instead of 16,384; the knots' subnormal spacings round
    # apart too, yet the partition stays uniform
    build = command.startswith("build")
    argv = command.split() + ([] if build else ["--n-ladder", "8"])
    argv += ["--function", "sin", "--interval", "0", "1e-318"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: sample step underflows to 0: interval too short"]
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    assert cli._make_parser() is cli._make_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "build", lambda cfg, out: seen.append(cfg.discrete))
    assert run(["build", "--discrete", "--out", str(tmp_path)]) == 0
    assert run(["build", "--out", str(tmp_path)]) == 0
    assert seen == [True, False]
    capsys.readouterr()
    errors = []
    for parser in (cli._make_parser(), cli._make_parser.__wrapped__()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["build", "--N", "x"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith("fif build: error: argument --N: invalid int value: 'x'\n")
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--help"])
    assert exc.value.code == 0
    assert "--n-ladder" in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["build", "dimension", "dimension --chaos"]),
    grid_exp=st.sampled_from(["-1", "3", "4", "5", "60"]),
    points=st.sampled_from(["0", "999", "1000", str(10**15)]),
    alpha=st.sampled_from(["0.3", "1.5", "linear:0.1", "x"]),
    count=st.sampled_from(["0", "1", "2", "4"]),
    nodes=st.sampled_from(["0", "1", "32", str(2**24 + 1), str(10**15)]),
)
def test_any_argv_exits_with_a_documented_code(command, grid_exp, points, alpha, count, nodes):
    argv = command.split() + [
        "--grid-exp", grid_exp, "--points", points, "--alpha", alpha, "--N", count,
        "--n", nodes,
    ]
    with tempfile.TemporaryDirectory() as out:
        assert run(argv + ["--out", out]) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "config",
    [{"interval": [0]}, {"interval": "ab"}, {"grid_exp": "x"}, [1, 2]],
    ids=["short-interval", "text-interval", "text-grid-exp", "not-an-object"],
)
def test_malformed_config_exits_2(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["build", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_build_reports_the_solve_split(tmp_path, capsys):
    # 5 * 2^6 cells: a coarse grid of 64 cells and one fill level; 0.9^(2^9)
    # is the first composed coefficient below the roundoff
    code = run(
        [
            "build", "--function", "sin", "--N", "5", "--alpha", "0.9",
            "--grid-exp", "6", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    diag = meta["diagnostics"]
    assert (diag["coarse_cells"], diag["fill_levels"]) == (64, 1)
    assert meta["results"]["iterations"] == 9 + 1 + 1
    assert "predicted_sweeps" not in diag and "solve_method" not in diag
    assert capsys.readouterr().out.startswith("build: 11 passes, residual ")


def test_nonconvergence_exit_3(tmp_path):
    # one doubling pass cannot finish the 64-cell coarse grid of N = 5
    code = run(
        [
            "build", "--function", "sin", "--alpha", "0.9", "--N", "5",
            "--n", "16", "--grid-exp", "6",
            "--max-iters", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 3


def test_slow_contraction_converges_in_the_default_budget(tmp_path):
    # Picard would contract by 0.999 per sweep on this 16384-cell coarse grid
    argv = ["build", "--function", "sin", "--N", "5", "--alpha", "0.999", "--grid-exp", "14"]
    assert run(argv + ["--out", str(tmp_path)]) == 0


def test_converge_ladder(tmp_path):
    code = run(
        [
            "converge", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--alpha", "0.5", "--n-ladder", "8,16,32,64",
            "--grid-exp", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    _, cols = read_csv(tmp_path / "converge.csv")
    errs = cols["sup_error"]
    assert np.all(np.diff(errs) < 0)
    assert np.all(errs <= cols["bound"] + 1e-12)


def test_converge_unsorted_ladder_fails_cross_check(tmp_path):
    code = run(
        [
            "converge", "--function", "sin", "--N", "4", "--alpha", "0.5",
            "--n-ladder", "64,8", "--grid-exp", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 4


def test_failed_converge_check_raises_after_writing_both_files(tmp_path, capsys):
    # a decreasing ladder: every rung is solved and written, then the
    # monotone check fails
    argv = ["converge", "--function", "sin", "--n-ladder", "16,8", "--grid-exp", "6"]
    assert run(argv + ["--out", str(tmp_path)]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["converge.csv", "meta.json"]
    err = capsys.readouterr().err
    assert err == "error: converge: monotone decrease or bound check failed\n"
    assert read_csv(tmp_path / "converge.csv")[1]["n"].tolist() == [16, 8]


@pytest.mark.parametrize("argv, code", [
    ("build --N 5 --max-iters 1", 3),
    ("converge --N 5 --max-iters 1", 3),
    ("dimension --N 5 --max-iters 1", 3),
    ("smooth --kernel bump --alpha 0.01 --N 5 --max-iters 1", 3),
    ("holder --N 5 --max-iters 1", 3),
    ("build --discrete --function sin --interval 0 1e-320", 2),
], ids=["build", "converge", "dimension", "smooth", "holder", "build-subnormal"])
def test_exit_2_or_3_leaves_out_empty(tmp_path, capsys, argv, code):
    assert run(argv.split() + ["--out", str(tmp_path)]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


_SMALL_RUNS = {
    "build": "--grid-exp 6",
    "converge": "--n-ladder 8,16 --grid-exp 6",
    "dimension": "--alpha 0.2 --grid-exp 15 --scales 4..11",
    "smooth": "--kernel smoothstep:1 --alpha 0.2 --grid-exp 6",
    "holder": "--n-ladder 8,16 --grid-exp 6",
    "bounds": "--n-ladder 8",
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_returns_none_on_success(tmp_path, capsys, command):
    # main alone turns an outcome into an exit code
    argv = [command, *_SMALL_RUNS[command].split(), "--out", str(tmp_path)]
    args = cli._make_parser().parse_args(argv)
    assert cli._COMMANDS[command](cli._config_from_args(args), tmp_path) is None


@pytest.mark.parametrize("command", ["converge", "bounds", "holder"])
@pytest.mark.parametrize("ladder", ["8,8", "8,16,8"])
def test_repeated_ladder_rung_exits_2_before_any_work(tmp_path, capsys, command, ladder):
    code = run([command, "--function", "sin", "--n-ladder", ladder, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: ladder must not repeat a node count\n"
    assert list(tmp_path.iterdir()) == []


def test_converge_discrete_pairs(tmp_path):
    code = run(
        [
            "converge", "--function", "exp", "--N", "8", "--alpha", "0.3",
            "--discrete", "--n-ladder", "8,16,32", "--grid-exp", "8",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, cols = read_csv(tmp_path / "converge.csv")
    assert header[:2] == ["n", "N"]
    assert np.array_equal(cols["n"], cols["N"])
    assert np.all(cols["sup_error"] <= cols["bound"] + 1e-12)


def test_dimension_smooth_case(tmp_path):
    code = run(
        [
            "dimension", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--n", "32", "--alpha", "0.2", "--grid-exp", "15",
            "--scales", "4..11", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "dimension.json").read_text())
    assert report["results"]["theoretical_dimension"] == 1.0
    assert abs(report["results"]["estimated_dimension"] - 1.0) <= 0.15
    # the fit's four fields, then what the command adds
    assert sorted(report["results"]) == sorted([
        "estimated_dimension", "scales", "counts", "r_squared",
        "theoretical_dimension", "kappa", "collinear_data", "notes"])


def test_dimension_collinear_data(tmp_path):
    code = run(
        [
            "dimension", "--function", "poly:0,1", "--N", "4", "--n", "16",
            "--alpha", "0.2", "--grid-exp", "15", "--scales", "4..11",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "dimension.json").read_text())
    assert report["results"]["collinear_data"] is True
    assert report["results"]["theoretical_dimension"] is None
    assert any("not applicable" in note for note in report["results"]["notes"])


def test_dimension_chaos_orbit(tmp_path):
    code = run(
        [
            "dimension", "--function", "sin", "--interval", "0", "3.14159265",
            "--N", "4", "--n", "32", "--alpha", "0.2", "--chaos",
            "--points", "120000", "--seed", "7", "--scales", "4..11",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "dimension.json").read_text())
    assert abs(report["results"]["estimated_dimension"] - 1.0) <= 0.15


def test_dimension_disagreement_exits_4_after_writing_the_report(tmp_path, capsys):
    # n = 64 resolves the backbone, so the estimate stays near 1.0 while the
    # closed form says 1.569
    code = run(
        [
            "dimension", "--function", "sin", "--N", "4", "--n", "64",
            "--alpha", "0.55", "--grid-exp", "16", "--out", str(tmp_path),
        ]
    )
    assert code == 4
    assert capsys.readouterr().err == "error: dimension: estimate disagrees with closed form\n"
    report = json.loads((tmp_path / "dimension.json").read_text())
    assert abs(report["results"]["theoretical_dimension"] - 1.5687517618749676) <= 1e-12
    assert report["results"]["estimated_dimension"] < 1.1


@pytest.mark.parametrize("flags", ["--function exp --interval 0 30",
                                   "--function weier --interval 0 1e-7"],
                         ids=["exp-wide", "weier-narrow"])
def test_junction_check_passes_large_derivative_data(tmp_path, flags):
    # exp' reaches 1.1e13 on [0, 30] and weier's f'' 3e11 on [0, 1e-7]: their
    # junction data round to gaps above 1e-8, yet match to 1e-8 of their size
    argv = ["smooth", "--r", "2", "--kernel", "bump", "--n", "64", "--alpha", "0.01"]
    assert run(argv + flags.split() + ["--out", str(tmp_path)]) == 0
    if "weier" in flags:
        # 4,096 cells on [0, 1e-7] resolve every term of weier: each level
        # away from the one-sided end rows matches its central difference
        _, cols = read_csv(tmp_path / "smooth.csv")
        for k, tol in ((1, 1e-6), (2, 1e-3)):
            level = cols[f"fif_d{k}"]
            gap = np.abs(level - cols[f"fd_check_d{k}"])[1:-1]
            assert gap.max() <= tol * np.abs(level).max()


def test_smooth_run(tmp_path):
    code = run(
        [
            "smooth", "--function", "sin", "--N", "4", "--n", "64",
            "--alpha", "0.2", "--kernel", "smoothstep:1", "--r", "1",
            "--grid-exp", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, cols = read_csv(tmp_path / "smooth.csv")
    assert header == ["x", "fif", "fif_d1", "fd_check_d1"]
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["results"]["matching_residuals"]["1"] <= 1e-8
    # derivative column should track the difference quotient of the first
    inner = slice(10, -10)
    assert np.max(np.abs(cols["fif_d1"][inner] - cols["fd_check_d1"][inner])) <= 0.2
    # the check column is the central difference, one-sided at both ends
    v, step = cols["fif"], cols["x"][1] - cols["x"][0]
    want = np.concatenate(
        [[(v[1] - v[0]) / step], (v[2:] - v[:-2]) / (2.0 * step), [(v[-1] - v[-2]) / step]]
    )
    assert cols["fd_check_d1"].tobytes() == want.tobytes()


def test_smooth_rejects_scaling_at_the_power_bound(tmp_path):
    code = run(
        [
            "smooth", "--function", "sin", "--N", "4", "--n", "64",
            "--alpha", "0.25", "--kernel", "smoothstep:1", "--r", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_smooth_rejects_rough_kernel(tmp_path, capsys):
    code = run(
        [
            "smooth", "--function", "sin", "--N", "4", "--n", "64",
            "--alpha", "0.2", "--kernel", "ramp", "--r", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "insufficient kernel smoothness" in capsys.readouterr().err


def test_holder_ladder(tmp_path):
    code = run(
        [
            "holder", "--function", "abspow:0,0.5", "--N", "4", "--n", "16",
            "--alpha", "0.4", "--mu", "0.5", "--n-ladder", "16,32",
            "--grid-exp", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, _ = read_csv(tmp_path / "holder.csv")
    assert header == ["n", "sup_error", "holder_seminorm_error", "combined_0mu_error"]
    # the seminorm belongs to the render grid, N * 2^grid_exp cells
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["diagnostics"]["cells"] == 4 * 2**8


def test_holder_gate_quotes_failing_piece(tmp_path, capsys):
    code = run(
        [
            "holder", "--function", "abspow:0,0.5", "--N", "4",
            "--alpha", "0.6", "--mu", "0.5", "--n-ladder", "16,32",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "subinterval" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["5", "1.5", "0", "-1"])
def test_holder_bad_exponent_exits_2_naming_it(tmp_path, capsys, mu):
    code = run(["holder", "--function", "abspow:0,0.5", "--mu", mu, "--out", str(tmp_path)])
    assert code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    assert "exponent mu" in errors[0]


README_HOLDER = [
    "holder", "--function", "abspow:0,0.5", "--mu", "0.5", "--alpha", "0.4",
    "--n-ladder", "16,32,64",
]


def test_holder_seminorm_reads_the_whole_render_grid(tmp_path):
    semis = []
    for exp in ("10", "12"):
        assert run(README_HOLDER + ["--grid-exp", exp, "--out", str(tmp_path / exp)]) == 0
        _, cols = read_csv(tmp_path / exp / "holder.csv")
        semis.append(cols["holder_seminorm_error"])
    assert np.all(semis[0] != semis[1])


def test_holder_sup_error_is_the_build_sup_over_the_render_grid(tmp_path):
    assert run(README_HOLDER + ["--out", str(tmp_path / "holder")]) == 0
    build = ["build", "--function", "abspow:0,0.5", "--alpha", "0.4", "--n", "16"]
    assert run(build + ["--out", str(tmp_path / "build")]) == 0
    _, holder = read_csv(tmp_path / "holder" / "holder.csv")
    _, curve = read_csv(tmp_path / "build" / "fif.csv")
    assert holder["n"][0] == 16
    assert holder["sup_error"][0] == np.max(np.abs(curve["fif"] - curve["f"]))


@pytest.mark.parametrize("argv", [
    ["converge", "--function", "sin", "--alpha", "0.5", "--n-ladder", "8,16,32,64,128"],
    README_HOLDER,
], ids=["converge", "holder"])
def test_ladder_evaluates_f_once_on_the_render_grid(tmp_path, monkeypatch, argv):
    # every rung's height and the truth the errors are measured against
    sizes = []
    real = cli.make_function

    def counting(name, *args, **kwargs):
        fi = real(name, *args, **kwargs)

        def func(x):
            sizes.append(np.size(x))
            return fi.func(x)

        return FunctionInput.analytic(func, fi.derivatives)

    monkeypatch.setattr(cli, "make_function", counting)
    assert run(argv + ["--grid-exp", "10", "--out", str(tmp_path)]) == 0
    assert sizes.count(4 * 2**10 + 1) == 1


def test_bounds_prints_table(tmp_path, capsys):
    code = run(
        [
            "bounds", "--function", "sin", "--interval", "0", "3.14159265",
            "--alpha", "0.5", "--n-ladder", "8,16", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bound_modulus" in out
    assert len(out.strip().splitlines()) == 3


def test_bounds_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "never"
    assert run(["bounds", "--function", "sin", "--n-ladder", "8", "--out", str(out)]) == 0
    assert not out.exists()
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["bounds", "--function", "sin", "--n-ladder", "8", "--out", str(blocker)]) == 0


@pytest.mark.parametrize("command", ["build", "converge", "dimension", "smooth", "holder"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run([command, "--out", str(blocker / below)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot use --out")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, name", [
    ("build", "fif.csv"), ("build", "meta.json"),
    ("converge", "converge.csv"), ("converge", "meta.json"),
])
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, command, name):
    # a directory where the output file goes: open() raises IsADirectoryError
    (tmp_path / name).mkdir()
    argv = [command, "--function", "sin", "--n-ladder", "8,16", "--grid-exp", "6"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path / name}: ")


@pytest.mark.parametrize("command", ["converge", "bounds"])
def test_discrete_ladder_scans_each_modulus_once(tmp_path, monkeypatch, command):
    # one call per ladder, so one table climb: for n >= 2 the knot modulus is
    # the operator modulus, and only n = 1, where the knot count is 2, adds
    # its knot spacing
    import fif.cli

    calls = []
    modulus = fif.cli.modulus_of_continuity

    def counted(values, span, delta):
        calls.append(list(delta))
        return modulus(values, span, delta)

    monkeypatch.setattr(fif.cli, "modulus_of_continuity", counted)
    code = run(
        [
            command, "--function", "exp", "--alpha", "0.3", "--discrete",
            "--n-ladder", "1,8,16", "--grid-exp", "6", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert calls == [[1.0, 0.5, 1.0 / 8, 1.0 / 16]]


def _rung_moduli(function, ladder):
    # the ladder's moduli one rung at a time, each from a fresh scalar call
    from fif.cli import MODULUS_SAMPLES

    dense = make_function(function)(np.linspace(0.0, 1.0, MODULUS_SAMPLES + 1))
    return [modulus_of_continuity(dense, 1.0, 1.0 / n) for n in ladder], dense


@pytest.mark.parametrize("ladder, code", [([8, 16, 32], 0), ([32, 8], 4)])
def test_converge_bounds_match_rung_by_rung_moduli(tmp_path, ladder, code):
    spec = ",".join(map(str, ladder))
    argv = ["converge", "--function", "sin", "--alpha", "0.3", "--n-ladder", spec,
            "--grid-exp", "6", "--out", str(tmp_path)]
    assert run(argv) == code
    _, cols = read_csv(tmp_path / "converge.csv")
    assert cols["n"].tolist() == ladder
    moduli, _ = _rung_moduli("sin", ladder)
    sup = ScalingVector.constant([0.3] * 4).sup_norm
    assert cols["bound"].tolist() == [error_bound_alpha(sup, om) for om in moduli]


def test_discrete_bounds_match_rung_by_rung_moduli(capsys):
    argv = ["bounds", "--function", "exp", "--alpha", "0.3", "--discrete",
            "--n-ladder", "1,8,16"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split("  ")
    rows = np.array([[float(v) for v in line.split("  ")] for line in lines[1:]])
    cols = dict(zip(header, rows.T))
    moduli, dense = _rung_moduli("exp", [1, 8, 16])
    knots = [modulus_of_continuity(dense, 1.0, 0.5), moduli[1], moduli[2]]
    sup = ScalingVector.constant([0.3] * 4).sup_norm
    assert cols["modulus"].tolist() == moduli
    assert cols["bound_modulus"].tolist() == [error_bound_alpha(sup, om) for om in moduli]
    assert cols["bound_discrete"].tolist() == [
        error_bound_discrete(sup, om, om_k) for om, om_k in zip(moduli, knots)
    ]


def test_subcommands_share_one_option_set():
    from fif.cli import RunConfig, _make_parser

    sub = next(a for a in _make_parser()._actions if a.dest == "command")
    options = {
        name: sorted((tuple(a.option_strings), a.dest) for a in p._actions)
        for name, p in sub.choices.items()
    }
    assert sorted(options) == sorted(
        ["build", "converge", "dimension", "smooth", "holder", "bounds"]
    )
    first = options["build"]
    assert all(opts == first for opts in options.values())
    dests = {dest for _, dest in first}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests == fields | {"config", "out", "help"}


def test_table_input_round_trip(tmp_path):
    knots = np.linspace(0.0, 1.0, 9)
    table = tmp_path / "data.csv"
    np.savetxt(table, np.column_stack([knots, np.exp(knots)]), delimiter=",")
    code = run(
        [
            "build", "--function", f"table:{table}", "--interval", "0", "1",
            "--N", "8", "--n", "4", "--alpha", "0.2", "--grid-exp", "6",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["diagnostics"]["variant"] == "discrete"
    assert "bound_discrete" in meta["results"]


def test_table_with_header_row_accepted(tmp_path):
    # our own CSV outputs carry a header, so table input must tolerate one
    knots = np.linspace(0.0, 1.0, 9)
    table = tmp_path / "data.csv"
    np.savetxt(table, np.column_stack([knots, np.exp(knots)]),
               delimiter=",", header="x,y", comments="")
    code = run(
        [
            "build", "--function", f"table:{table}", "--interval", "0", "1",
            "--N", "8", "--n", "4", "--alpha", "0.2", "--grid-exp", "6",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0


def test_table_with_text_rows_rejected(tmp_path):
    table = tmp_path / "data.csv"
    table.write_text("x,y\njunk,more\nstill,bad\n")
    code = run(
        [
            "build", "--function", f"table:{table}", "--interval", "0", "1",
            "--N", "2", "--n", "2", "--alpha", "0.2", "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_table_with_wrong_grid_rejected(tmp_path):
    xs = np.linspace(0.0, 1.0, 9) + 0.01
    table = tmp_path / "data.csv"
    np.savetxt(table, np.column_stack([xs, np.exp(xs)]), delimiter=",")
    code = run(
        [
            "build", "--function", f"table:{table}", "--interval", "0", "1",
            "--N", "8", "--n", "4", "--alpha", "0.2", "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_config_file_round_trip(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    flags = [
        "build", "--function", "sin", "--interval", "0", "3.14159265",
        "--N", "4", "--n", "32", "--alpha", "0.3", "--grid-exp", "7",
    ]
    assert run(flags + ["--out", str(first)]) == 0
    assert run(["build", "--config", str(first / "meta.json"), "--out", str(second)]) == 0
    assert (first / "fif.csv").read_bytes() == (second / "fif.csv").read_bytes()
    assert (first / "meta.json").read_bytes() == (second / "meta.json").read_bytes()


def test_half_width_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # the operator does not depend on the kernel half-width m
    with pytest.raises(SystemExit) as exc:
        main(["build", "--m", "0.25", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"function": "sin", "m": 0.5}))
    assert run(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config keys: ['m']" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"function": "sin", "frobnicate": 3}))
    assert run(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [
        [
            "converge", "--function", "sin", "--N", "4", "--alpha", "0.5",
            "--n-ladder", "8,16,32", "--grid-exp", "7",
        ],
        [
            "smooth", "--function", "sin", "--N", "4", "--n", "64", "--alpha", "0.2",
            "--kernel", "smoothstep:1", "--r", "1", "--grid-exp", "6",
        ],
    ],
    ids=["converge", "smooth"],
)
def test_repeat_runs_are_byte_identical(tmp_path, args):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names == sorted([f"{args[0]}.csv", "meta.json"])
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# exact ties at the 17th significant digit: odd k * 2^-17 in [1, 2) has 18
# significant digits, the last a 5; its copies scaled by 2^-30 and 2^40 print
# in scientific notation
TIES = [k * 2.0**-17 for k in range(2**17 + 1, 2**18, 2)]
EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-06, 1e-05,
    1e16, 1e17, 2.0**53 + 2, -1.7976931348623157e308,
    # the fixed/scientific switches, subnormals, both ends of the writer's
    # fast range, and the non-finite values
    1e-4, 1e-5, 1e16 - 2, 1e17 - 16, -5e-324, 2.225073858507201e-308,
    1e-290, -1e290, 1e290, math.inf, -math.inf, math.nan,
    # rounding fractions within 1e-6 of a tie, printed in scientific notation
    7.070528957083127e-125, -6.436522292965329e27, 6.579002416510493e-09,
    *TIES, *(t * 2.0**-30 for t in TIES), *(t * 2.0**40 for t in TIES),
    # every power of ten from 1e-300 to 1e300 and the doubles beside it
    *(
        v for k in range(-300, 301)
        for p in [float(f"1e{k}")]
        for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))
    ),
]


def test_table_writer_matches_per_cell_formatting(tmp_path):
    path = tmp_path / "edge.csv"
    _write_csv(path, ["v", "w"], [EDGE_DOUBLES, EDGE_DOUBLES[::-1]])
    want = "v,w\n" + "".join(
        f"{v:.17g},{w:.17g}\n" for v, w in zip(EDGE_DOUBLES, EDGE_DOUBLES[::-1])
    )
    assert path.read_bytes() == want.encode()


def test_table_writer_matches_per_cell_formatting_on_random_doubles(tmp_path):
    # random bit patterns: every exponent, both signs, subnormals and NaNs
    bits = np.random.default_rng(11).integers(0, 2**64, 2 * 10**5, dtype=np.uint64)
    cells = bits.view(np.float64).reshape(-1, 4)
    path = tmp_path / "random.csv"
    _write_csv(path, ["a", "b", "c", "d"], list(cells.T))
    want = "a,b,c,d\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in cells.tolist()
    )
    assert path.read_bytes() == want.encode()


def test_table_writer_matches_per_cell_formatting_on_short_significands(tmp_path):
    # random bit patterns almost always print 17 digits, so they reach few of
    # the writer's layouts.  m * 2^-j and m * 10^k print short, and the
    # double nearest an s-digit decimal 1d...d * 10^e often prints as those s
    # digits: together every format and count of digits, 1 to 17, is reached
    m = np.arange(1.0, 1000.0)
    rng = np.random.default_rng(7)
    decimals = [
        float(f"{n}e{e - s + 1}")
        for e in [*range(-4, 17), -300, -100, -20, -5, 17, 20, 100, 300]
        for s in range(1, 18)
        for n in rng.integers(10 ** (s - 1), 2 * 10 ** (s - 1), 20).tolist()
    ]
    values = np.concatenate([np.ldexp(m, -j) for j in range(61)]
                            + [m * 10.0**k for k in range(-3, 21)] + [decimals])
    cells = np.concatenate([values, -values]).reshape(-1, 2)
    path = tmp_path / "short.csv"
    _write_csv(path, ["a", "b"], list(cells.T))
    want = "a,b\n" + "".join(f"{v:.17g},{w:.17g}\n" for v, w in cells.tolist())
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("delimiter", ["    ", "abc", "\u00e9"])
def test_table_writer_refuses_a_longer_delimiter_before_writing(delimiter):
    # a cell leaves two ASCII bytes for its delimiter
    fh = io.StringIO()
    with pytest.raises(ValueError, match="delimiter"):
        write_rows(fh, ["a", "b"], [[1.0], [2.0]], delimiter)
    assert fh.getvalue() == ""
    write_rows(fh, ["a", "b"], [[1.0], [2.0]], "; ")
    assert fh.getvalue() == "a; b\n1; 2\n"


def savetxt_table(header, columns, delimiter=","):
    # the writer the CLI used before, kept as the reference
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), fmt="%.17g", delimiter=delimiter,
               header=delimiter.join(header), comments="")
    return buf.getvalue()


def parse_table(text, delimiter=","):
    # 17 significant digits read back to the very doubles that were written
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(delimiter)] for line in lines[1:]]
    return lines[0].split(delimiter), list(np.array(rows).T)


@pytest.mark.parametrize(
    "argv, name",
    [
        # 4,097 and 2,049 rows: whole blocks of rows and a one-row remainder
        (["build", "--function", "sin", "--n", "16", "--grid-exp", "10"], "fif.csv"),
        (
            ["smooth", "--function", "cos", "--r", "2", "--kernel", "bump", "--n", "32",
             "--alpha", "0.05", "--grid-exp", "9"],
            "smooth.csv",
        ),
        (["bounds", "--function", "sin", "--alpha", "0.5", "--discrete"], None),
    ],
    ids=["build", "smooth", "bounds"],
)
def test_tables_match_the_savetxt_writer(tmp_path, capsys, argv, name):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    if name is None:
        text, delimiter = capsys.readouterr().out, "  "
    else:
        text, delimiter = (tmp_path / name).read_text(), ","
    assert text == savetxt_table(*parse_table(text, delimiter), delimiter=delimiter)


def test_table_writer_matches_savetxt_across_block_seams(tmp_path):
    rows = 2 * BLOCK_ROWS + 5
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 20, rows) for _ in range(3)]
    seams = [BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1,
             2 * BLOCK_ROWS, rows - 1]
    for col, special in zip(columns, [0.0, math.nan, 1 + 2.0**-17]):
        col[seams] = special
    path = tmp_path / "seams.csv"
    _write_csv(path, ["a", "b", "c"], columns)
    assert path.read_text() == savetxt_table(["a", "b", "c"], columns)


@pytest.mark.parametrize("delimiter", [",", "  "])
def test_table_writer_skips_only_the_passes_no_cell_of_a_block_needs(delimiter):
    # cells of 1e-3 to 10 in size need neither the point shifted into d1..d16
    # nor an exponent; a block that holds one cell that does must still give
    # it its passes.  Below 1e-4 and 1e17 the log10 estimate is one too high:
    # only the fixed-up exponent says that nextafter(1e-4, 0) is scientific
    # and that nextafter(1e17, 0) has 17 integer digits
    rows = 6 * BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = [rng.uniform(1e-3, 9.99, rows) * rng.choice([-1.0, 1.0], rows)
               for _ in range(3)]
    planted = {
        (BLOCK_ROWS + 17, 1): 12.345,  # shift
        (2 * BLOCK_ROWS + 5, 2): -98765.4321,  # shift
        (3 * BLOCK_ROWS + 9, 1): math.nextafter(1e-4, 0.0),  # scientific
        (4 * BLOCK_ROWS + 40, 0): math.nextafter(1e17, 0.0),
        (5 * BLOCK_ROWS - 1, 2): 2.5e-7,  # the seam: scientific,
        (5 * BLOCK_ROWS, 0): -31.25,  # then shift
        (6 * BLOCK_ROWS + 2, 1): 6.02e23,  # the last, short block
    }
    for (row, col), v in planted.items():
        columns[col][row] = v
    fh = io.StringIO()
    write_rows(fh, ["a", "b", "c"], columns, delimiter)
    want = delimiter.join("abc") + "\n" + "".join(
        delimiter.join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns)
    )
    assert fh.getvalue() == want


def test_table_writer_memory_is_bounded(tmp_path):
    # 2^18 rows x 6 columns, 12.6 MB of input: formatted in one piece the
    # cell buffers take about 360 MB, in blocks of BLOCK_ROWS rows 3 MB
    rng = np.random.default_rng(5)
    columns = [rng.random(2**18) * 10.0**j for j in range(-3, 3)]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", list("abcdef"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("ends", [("0", "inf"), ("nan", "1")], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "command", ["build", "converge", "dimension", "smooth", "holder", "bounds"]
)
def test_non_finite_interval_end_prints_only_the_error(tmp_path, capsys, command, ends):
    # rejected with the config, before numpy could warn about the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--interval", *ends, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: interval ends must be finite\n"


@pytest.mark.parametrize(
    "command", ["build", "converge", "dimension", "smooth", "holder", "bounds"]
)
def test_overflowing_interval_length_prints_only_the_error(tmp_path, capsys, command):
    # both ends are finite, but b - a is not: rejected with the config, before
    # numpy could warn about the grid or a later check misname the fault
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"interval": [-1e308, 1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: interval length b - a overflows\n"


@pytest.mark.parametrize(
    "ends", [("-1e3", "1e3"), ("-2.5e-1", "0.5"), ("-1", "-.5")],
    ids=["exponent", "negative-exponent", "both-negative"],
)
def test_negative_interval_ends_may_carry_an_exponent(tmp_path, ends):
    argv = ["build", "--function", "sin", "--interval", *ends, "--grid-exp", "4"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config"]["interval"] == [float(v) for v in ends]


def test_narrow_interval_far_from_zero_is_uniform(tmp_path):
    # the knots of [1000, 1000.001] round apart by an ulp of 1000, above
    # 1e-12 of the span: the partition is still uniform, so the discrete
    # variant runs and the alpha variant renders the uniform grid
    argv = ["--function", "sin", "--interval", "1000", "1000.001"]
    assert run(["build", "--discrete", *argv, "--out", str(tmp_path / "discrete")]) == 0
    assert run(["build", *argv, "--out", str(tmp_path / "alpha")]) == 0
    _, cols = read_csv(tmp_path / "alpha" / "fif.csv")
    assert cols["x"].tobytes() == np.linspace(1000, 1000.001, 4097).tobytes()


def test_csv_cells_carry_full_precision(tmp_path):
    assert run(
        [
            "build", "--function", "sin", "--N", "4", "--n", "16",
            "--alpha", "0.337", "--grid-exp", "6", "--out", str(tmp_path),
        ]
    ) == 0
    with open(tmp_path / "fif.csv") as fh:
        fh.readline()
        row = fh.readline().strip().split(",")
    # 17 significant digits survive a float round trip exactly
    assert float(row[0]) == 0.0
    third = (tmp_path / "fif.csv").read_text().splitlines()[3].split(",")
    for cell in third:
        assert f"{float(cell):.17g}" == cell


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def fresh(argv, cwd):
    # the console script in a new interpreter, as a user starts it
    src = str(Path(fif.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "fif.cli", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )


def test_overflowing_function_prints_only_the_error(tmp_path):
    # the finite check is the contract: no numpy overflow warning before it
    proc = fresh(["build", "--function", "exp", "--interval", "0", "800"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: function returned non-finite values\n"


def test_nonconvergence_names_the_sweep_that_failed(tmp_path, capsys):
    # three passes leave 0.99^8 on the coarse grid of N = 5, so the message
    # quotes the certifying sweep's move and the threshold it missed
    argv = ["build", "--function", "weier", "--alpha", "0.99", "--N", "5", "--max-iters", "3"]
    assert run(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: no convergence in 3 of 3 doubling passes: the certifying sweep "
        "moved 3.449e-01, above tol * (1 - contraction) = 1.000e-11\n"
    )


def test_function_scaling_contraction_is_its_grid_maximum(tmp_path):
    # sine:0.3 peaks at 0.3 on a render grid point; the dense sup-norm
    # samples read 0.2999999983341711
    assert run(["build", "--alpha", "sine:0.3", "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "meta.json").read_text())["diagnostics"]
    assert diag["contraction"] == 0.3


def test_linear_scaling_family_builds(tmp_path):
    # linear:0.2,0.7 rises from 0.2 at a to 0.7 at b, a pre-image of the grid
    assert run(["build", "--alpha", "linear:0.2,0.7", "--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "meta.json").read_text())["diagnostics"]
    assert diag["contraction"] == 0.7


def test_contraction_counts_both_end_coefficients(tmp_path):
    # linear:0.9,0.1 reaches 0.9 only at point 0, its own pre-image under
    # L_1, whose coefficient the solve zeroes after reading the contraction
    argv = ["build", "--alpha", "linear:0.9,0.1", "--N", "3", "--grid-exp", "8"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "meta.json").read_text())["diagnostics"]
    assert diag["contraction"] == 0.9


@pytest.mark.parametrize("error", [fif.MatchingConditionError, fif.CrossCheckError])
def test_failed_solver_cross_check_exits_4_with_one_error_line(
    tmp_path, capsys, monkeypatch, error
):
    # no valid input makes the solver raise these, so a stub stands in for it
    def failing(*args):
        raise error("stub check failed")

    monkeypatch.setattr(fif.cli, "solve_fif", failing)
    assert run(["build", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "error: stub check failed\n"


def test_smooth_runs_read_derivatives_off_the_callables(tmp_path, capsys):
    # weier carries closed-form derivative callables: no warning; abspow
    # carries none, so its smooth problem is refused before any array is made
    argv = ["smooth", "--function", "weier", "--r", "3", "--kernel", "bump",
            "--n", "32", "--alpha", "0.001", "--grid-exp", "6", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    capsys.readouterr()
    assert run(["smooth", "--function", "abspow:0.3,0.5", "--kernel", "bump",
                "--alpha", "0.05", "--out", str(tmp_path / "abspow")]) == 2
    assert capsys.readouterr().err == "error: derivatives unavailable\n"
    assert not any((tmp_path / "abspow").iterdir())


def test_end_rows_carry_the_function_values_exactly(tmp_path):
    # numpy's scalar and array pow differ by an ulp at the right end here;
    # the solve's end values come from the rendered height, so the fif
    # column's end rows are the f column's
    argv = [
        "build", "--function", "abspow:0.3,0.5",
        "--interval", "-3.1140853807534956", "9.898346963218355",
    ]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fif.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in (lines[1], lines[-1]):
        row = dict(zip(header, line.split(",")))
        assert row["fif"] == row["f"]


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("fif ")]


def test_readme_shows_every_subcommand_once():
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(
        ["build", "converge", "dimension", "smooth", "holder", "bounds"]
    )


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs_cleanly(tmp_path, argv):
    proc = fresh(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
