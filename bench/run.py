"""Benchmark of the `fif` CLI: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload converge-rough --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, untraced

Each workload runs in fresh processes: a few set-up probes (a fresh
interpreter imports `fif` and completes one minimum-size operation) and one
worker that calls ``fif.cli.main`` in a closed loop.  The report goes to
standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# a single-workload run must end within this many seconds
DEADLINE_S = 170.0
# fresh interpreters timed per run; setup_s is their median
SETUPS = 3


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    # one client on one thread: no box-counting pool, single-threaded BLAS
    env = dict(os.environ)
    env.pop("FIF_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def run_child(args, deadline) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {args[:2]} printed no result") from exc


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it falls back
    to the maximum, labelled percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    walls, probes = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        probes.append(run_child(["setup", name, str(seed)], deadline))
        walls.append(time.perf_counter() - t0)
    loop = run_child(
        ["loop", name, str(seed), repr(seconds), "1" if trace else "0"], deadline
    )
    setup_errors = [p["error"] for p in probes if p["error"]]
    attempted = loop["attempted"] + SETUPS
    failed = loop["failed"] + len(setup_errors)
    samples = loop["samples"]
    if not samples or (trace and not loop["traced_samples"]):
        raise BenchError(f"{name}: no operation succeeded: {loop['errors'] + setup_errors}")
    report = {
        "name": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": loop["env"], "errors": loop["errors"] + setup_errors,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and loop["counts_repeat"],
        "counts_repeat": loop["counts_repeat"],
    }
    if trace:
        layers = dict(loop["layers"])
        traced = loop["traced_samples"]
        report["self_sum_frac"] = layers.pop("self_sum_s") / statistics.mean(traced)
        layers["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layers["setup.first_op_s"] = statistics.median(p["first_op_s"] for p in probes)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(samples) - 1.0
        )
        report["metrics"] = {k: (v, PER_LAYER_UNITS[k]) for k, v in sorted(layers.items())}
        report["lines"] = [(k, v, u, "") for k, (v, u) in report["metrics"].items()]
        report["traced_samples"] = len(traced)
        return report
    value, pct = tail(samples)
    n = len(samples)
    report["lines"] = [
        ("ops_per_s", loop["ops_per_s"], "1/s", f"{n} ops, output checks excluded"),
        ("op_s_p50", statistics.median(samples), "s",
         f"median of {n} ops after 1 warm-up op"),
        ("op_s_tail", value, "s",
         f"p{pct:.0f} of {n} samples" + (", the maximum" if n <= 10 else "")),
        ("setup_s", statistics.median(walls), "s",
         f"median of {SETUPS} fresh interpreters"),
        ("peak_rss_mb", loop["rss_mb"], "MB", "worker process"),
        ("failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted} ops failed"),
    ]
    # failed_frac is 0 on a good run and op_s_tail rests on the few samples a
    # run holds, so neither is a gated metric of the JSON result (README.md)
    report["metrics"] = {
        k: (v, u) for k, v, u, _ in report["lines"] if k in END_TO_END
    }
    return report


END_TO_END = ("ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "fractal.solve.s": "s", "fractal.solve.self_s": "s",
    "fractal.solve.calls": "count", "fractal.solve.cells": "count",
    "fractal.solve.sweeps": "count", "fractal.solve.ns_per_cell_sweep": "ns",
    "fractal.chaos.self_s": "s", "fractal.chaos.points": "count",
    "operators.s": "s", "operators.self_s": "s", "operators.points": "count",
    "operators.ns_per_point": "ns", "operators.nn_eval.s": "s",
    "operators.four_layer.s": "s", "operators.derivative.s": "s",
    "kernels.s": "s", "kernels.points": "count", "maps.s": "s",
    "analysis.box_count.s": "s", "analysis.box_count.points": "count",
    "analysis.modulus.s": "s", "setup.import_s": "s", "setup.first_op_s": "s",
    "trace.overhead_frac": "ratio",
}


def print_report(r) -> None:
    env = " ".join(f"{k}={v}" for k, v in r["env"].items())
    print(f"== {r['name']}  seed {r['seed']}  seconds {r['seconds']}  trace {int(r['trace'])}")
    print(f"env: {env}")
    for key, value, unit, note in r["lines"]:
        print(f"  {key:34s} {value:14.6g} {unit:6s} {note}")
    if r["trace"]:
        print(f"  layer self times / traced op time = {r['self_sum_frac']:.4f} "
              f"over {r['traced_samples']} traced ops")
    print(f"  counts repeat exactly: {r['counts_repeat']}")
    for err in r["errors"]:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fif" / "cli.py").is_file():
        print(f"error: no fif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
    prefix = len(reports) > 1
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": u}
            for r in reports for k, (v, u) in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
