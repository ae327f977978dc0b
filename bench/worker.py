"""One benchmark process: a set-up probe or a closed loop of operations.

    python3 bench/worker.py setup <workload> <seed>
    python3 bench/worker.py loop <workload> <seed> <seconds> <trace 0|1>

It imports `fif` from the checkout's ``src``, calls ``fif.cli.main`` in
process with one client on one thread, and prints one JSON object.  The
loop mode runs one warm-up operation, then whole rounds of the workload
until the next round would overrun ``seconds``; with tracing on it spends
half the time untraced and half traced, so the two can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()  # before numpy: set-up import time includes it

import spans
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


def import_fif():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fif.cli

    if Path(fif.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"fif imported from {fif.cli.__file__}, not {src}")
    return fif.cli


@dataclass
class OpResult:
    key: str
    seconds: float
    error: str | None
    bytes_out: int
    check_seconds: float


def run_op(op, main, tracer=None) -> OpResult:
    """Run the op's commands, each into a fresh directory, then check them.

    Only the commands are timed.  A nonzero exit, an exception or a failed
    check makes the op a failure.
    """
    dirs = [tempfile.mkdtemp(dir=WORK) for _ in op.commands]
    error = None
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, out in zip(op.commands, dirs):
                full = [*argv, "--out", out]
                if tracer is None:
                    code = main(full)
                else:
                    code = tracer.call("cli.main", main, (full,), {})
                if code != 0:
                    error = f"exit {code}: {sink.getvalue().strip()[-200:]}"
                    break
    except SystemExit as exc:
        error = f"exit {exc.code}: {sink.getvalue().strip()[-200:]}"
    except Exception:  # any escape from the CLI is a failed operation
        error = traceback.format_exc(limit=3).strip()[-400:]
    seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    if error is None:
        try:
            op.check(dirs)
        except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            error = f"check: {exc}"
    bytes_out = sum(p.stat().st_size for d in dirs for p in Path(d).rglob("*"))
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return OpResult(op.key, seconds, error, bytes_out, time.perf_counter() - t1)


class Phase:
    """Whole rounds of operations in a closed loop for about ``budget`` s."""

    def __init__(self):
        self.results: list[OpResult] = []
        self.wall = 0.0

    def run(self, ops, main, budget, tracer=None):
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.op = len(self.results)
                self.results.append(run_op(op, main, tracer))
            now = time.perf_counter()
            if now - start + (now - round_start) > budget:
                break
        self.wall = time.perf_counter() - start
        return self

    @property
    def ok_seconds(self):
        return [r.seconds for r in self.results if r.error is None]

    def ops_per_s(self):
        # the output checks are the benchmark's own work: keep them out
        busy = self.wall - sum(r.check_seconds for r in self.results)
        return len(self.ok_seconds) / busy


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        **{k: os.environ.get(k, "unset")
           for k in ("FIF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def setup(name, seed) -> dict:
    cli = import_fif()
    import_s = time.perf_counter() - START
    res = run_op(WORKLOADS[name].setup(seed), cli.main)
    return {"import_s": import_s, "first_op_s": res.seconds, "error": res.error}


def loop(name, seed, seconds, trace) -> dict:
    cli = import_fif()
    ops = WORKLOADS[name].round(seed)
    warm = run_op(ops[0], cli.main)
    plain = Phase().run(ops, cli.main, seconds / 2 if trace else seconds)
    phases = [plain]
    out = {"env": environment()}
    if trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = Phase().run(ops, cli.main, seconds / 2, tracer)
        phases.append(traced)
        ok_ops = {i for i, r in enumerate(traced.results) if r.error is None}
        ok_spans = [s for s in tracer.spans if s.op in ok_ops]
        layers = spans.layer_metrics(ok_spans, max(1, len(ok_ops)))
        layers["cli.bytes_out"] = (
            sum(traced.results[i].bytes_out for i in ok_ops) / max(1, len(ok_ops))
        )
        out["layers"] = layers
        out["traced_samples"] = traced.ok_seconds
        work = spans.work_by_op(ok_spans)
        counts = [(traced.results[i].key, work.get(i, {})) for i in sorted(ok_ops)]
        with open(WORK / f"spans-{name}.json", "w") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    else:
        counts = []
    for phase in phases:
        counts += [(r.key, {"bytes_out": r.bytes_out})
                   for r in phase.results if r.error is None]
    # operations with the same key and counters must report the same values
    first = {}
    repeat = all(first.setdefault((k, tuple(c)), c) == c for k, c in counts)
    results = [warm] + [r for p in phases for r in p.results]
    out.update(
        samples=plain.ok_seconds,
        ops_per_s=plain.ops_per_s(),
        attempted=len(results),
        failed=sum(r.error is not None for r in results),
        errors=[r.error for r in results if r.error][:5],
        counts_repeat=repeat,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


def main(argv) -> int:
    WORK.mkdir(exist_ok=True)
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup(name, seed)
    else:
        out = loop(name, seed, float(argv[3]), argv[4] == "1")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
