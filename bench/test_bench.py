"""Tests of the benchmark harness: failures are counted and never timed, the
output checks catch corrupted files, and the trace adds up."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import worker
from workloads import CONVERGE_ARGS, WORKLOADS, Op, check_converge, check_smooth

cli = worker.import_fif()
worker.WORK.mkdir(exist_ok=True)

SMALL_CONVERGE = ("converge", "--function", "sin", "--N", "5", "--alpha", "0.95",
                  "--n-ladder", "8,16", "--grid-exp", "6")
# fine enough that fd_check_d1 resolves fif_d1 within the check's tolerance
SMALL_SMOOTH = ("smooth", "--function", "cos", "--r", "2", "--kernel", "bump",
                "--n", "64", "--alpha", "0.05", "--grid-exp", "14")


def corrupting(filename, edit):
    """cli.main, then ``edit`` applied to one output file's text."""

    def main(argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1]) / filename
        path.write_text(edit(path.read_text()))
        return code

    return main


def change_row(row):
    # rewrite the first data cell of one row: still numeric, now wrong
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[row].split(",")
        cells[1] = repr(float(cells[1]) + 0.25)
        lines[row] = ",".join(cells)
        return "".join(lines)

    return edit


def test_known_bad_cases_are_failed_not_timed():
    bad = [
        # converge-rough exhausting its sweep budget: exit 3
        (Op("exit3", (("converge", "--function", "sin", *CONVERGE_ARGS,
                       "--max-iters", "5"),), check_converge), cli.main),
        # a ladder whose error rises fails the CLI's own check: exit 4
        (Op("exit4", (("converge", "--function", "sin", "--N", "5", "--alpha",
                       "0.95", "--n-ladder", "16,8", "--grid-exp", "6"),),
            check_converge), cli.main),
        # exit 0, but converge.csv no longer agrees with meta.json
        (Op("corrupt", (SMALL_CONVERGE,), check_converge),
         corrupting("converge.csv", change_row(1))),
    ]
    for op, main in bad:
        res = worker.run_op(op, main)
        assert res.error is not None, op.key
    phase = worker.Phase().run([op for op, _ in bad[:2]], cli.main, budget=0)
    assert len(phase.results) == 2
    assert phase.ok_seconds == [] and phase.ops_per_s() == 0
    assert [r.error.split(":")[0] for r in phase.results] == ["exit 3", "exit 4"]


def test_good_small_ops_pass_their_checks():
    for argv, check in ((SMALL_CONVERGE, check_converge),
                        (SMALL_SMOOTH, check_smooth)):
        res = worker.run_op(Op("ok", (argv,), check), cli.main)
        assert res.error is None, res.error
        assert res.bytes_out > 0 and res.seconds > 0


@pytest.mark.parametrize("edit", [
    change_row(1 + 4 * 2**14 // 2),  # the middle knot row
    lambda text: text[: len(text) // 2],  # truncated file
])
def test_corrupted_smooth_csv_is_caught(edit):
    op = Op("corrupt", (SMALL_SMOOTH,), check_smooth)
    res = worker.run_op(op, corrupting("smooth.csv", edit))
    assert res.error is not None and res.error.startswith("check:")


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(110))) == (99, pytest.approx(100 * 100 / 110))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        tracer.call("kernels.xi_eval", leaf, (), {})
        time.sleep(0.01)

    def root():
        tracer.call("operators.nn_eval", middle, (), {})
        tracer.call("maps.locate", leaf, (), {})

    tracer.call("cli.main", root, (), {})
    own = spans.self_times(tracer.spans)
    root_span = tracer.spans[0]
    assert sum(own) == pytest.approx(root_span.end - root_span.start)
    assert all(t >= 0 for t in own)
    layers = spans.layer_metrics(tracer.spans, ops=1)
    assert layers["self_sum_s"] == pytest.approx(sum(own))
    assert layers["operators.s"] == pytest.approx(own[1] + own[2])


def test_traced_counts_come_from_results_and_repeat():
    from fif import cli as cli_module

    original = cli_module.solve_fif_smooth
    tracer = spans.Tracer()
    counts = []
    with spans.installed(tracer):
        for op_id in range(2):
            tracer.op = op_id
            out = worker.WORK / f"test-trace-{op_id}"
            argv = [*SMALL_SMOOTH[:-1], "6", "--out", str(out)]
            assert tracer.call("cli.main", cli.main, (argv,), {}) == 0
            meta = json.loads((out / "meta.json").read_text())
            shutil.rmtree(out)
            levels = meta["diagnostics"]["derivative_levels"].values()
            counts.append(meta["results"]["iterations"]
                          + sum(v["iterations"] for v in levels))
    assert cli_module.solve_fif_smooth is original
    work = spans.work_by_op(tracer.spans)
    assert work[0] == work[1]
    assert work[0]["fractal.solve.sweeps"] == counts[0] == counts[1]
    assert work[0]["fractal.solve.cells"] == 4 * 2**6


def test_every_workload_has_a_round_and_a_setup():
    for w in WORKLOADS.values():
        assert w.round(1) and w.setup(1).commands
        # the seed reorders the round but keeps its composition
        assert sorted(op.key for op in w.round(1)) == sorted(op.key for op in w.round(2))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dimension", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
