"""Time this tree against a git revision with the committed benchmark.

    python tools/ab_bench.py REV [--pairs P] [--seconds S] [--workload W]
                             [--control] [--claim W:METRIC] [--change TEXT]
                             [--out BENCH_<n>.json]

Extracts REV's ``src/`` with ``git archive`` (local git only), as
``tools/same_outputs.py`` does, and copies this tree's ``src/``; each goes
into its own directory beside a copy of this tree's ``bench/``, so both
sides run the same harness.  Pair i runs ``bench/run.py --workload W --seed
i --seconds S --trace 0`` on both trees back to back: odd pairs the parent
(REV) first, even pairs the change first.  ``--control`` runs REV on both
sides, an A/A run whose spread is what a claimed gain must beat.

Writes one JSON file in the schema of the repository's ``BENCH_*.json``:
``change``, ``command``, ``machine``, ``method``, ``claimed``, then per
workload ``pairs``, ``seeds``, ``pair_order``, ``failed_ops``,
``attempted_ops``, ``all_correct`` and, for each end-to-end metric of
``BENCHMARK.json``, the medians and quartiles (inclusive method) of both
sides, ``change_wins`` (pairs where the change reads better; ties count for
neither) and every run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload W --seed N --seconds {seconds:g} --trace 0"


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision of the parent, e.g. HEAD")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (seeds 1..P)")
    ap.add_argument("--seconds", type=float, default=10.0, help="--seconds of each run")
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="a workload to run (repeatable; default all)")
    ap.add_argument("--control", action="store_true", help="run REV against itself")
    ap.add_argument("--claim", metavar="W:METRIC",
                    help="the workload and end-to-end metric a gain is claimed on")
    ap.add_argument("--change", default="", help="what the change does, in one line")
    ap.add_argument("--out", type=Path, help="default: the next free BENCH_<n>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")
    args.workload = args.workload or workloads
    args.better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim:
        w, _, m = args.claim.partition(":")
        if w not in workloads or m not in metrics:
            ap.error(f"--claim {args.claim!r}: want one of {workloads} ':' one of {metrics}")
        args.claim = {"workload": w, "metric": m}
    if args.out is None:
        taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
                 if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
        args.out = ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    return args


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(trees, args, runner=run_bench) -> dict:
    """Every run, per workload: ``{"parent": [...], "change": [...]}`` in
    seed order, each a ``bench/run.py`` result."""
    runs = {}
    for w in args.workload:
        runs[w] = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[w][side].append(runner(trees[side], w, seed, args.seconds))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{side} op_s_p50 {runs[w][side][-1]['metrics']['op_s_p50']['value']:.4g}"
                for side in ("parent", "change")), flush=True)
    return runs


def summarize(runs, better) -> dict:
    """One workload's section of the report from its runs."""
    pairs = len(runs["parent"])
    section = {
        "pairs": pairs,
        "seeds": list(range(1, pairs + 1)),
        "pair_order": "odd seeds parent first, even seeds change first",
        "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "all_correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
        "metrics": {},
    }
    for name, direction in better.items():
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        section["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": direction,
            **{f"{s}_median": statistics.median(values[s]) for s in runs},
            **{f"{s}_quartiles": _quartiles(values[s]) for s in runs},
            "change_wins": f"{wins} of {pairs}",
            **{f"{s}_runs": values[s] for s in runs},
        }
    return section


def _quartiles(xs):
    if len(xs) == 1:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def report(args, sections) -> dict:
    method = (
        f"{args.pairs} pairs per workload (seeds 1-{args.pairs}). Pair i runs parent and "
        "change on seed i back to back, each in its own copy of the repository (git "
        "archive of the parent's src/, and this tree's src/, each beside this tree's "
        "bench/); odd pairs run the parent first, even pairs the change first; medians "
        "and quartiles (inclusive method) over the pairs; change_wins counts the pairs "
        "where the change reads better, ties for neither"
    )
    if args.control:
        method += ". A/A control: both sides are the parent"
    return {
        "change": args.change,
        "command": COMMAND.format(seconds=args.seconds),
        "machine": (f"{os.cpu_count()}-core {platform.machine()}, Python "
                    f"{platform.python_version()}, numpy {version('numpy')}; "
                    "untraced runs, one at a time"),
        "method": method,
        "claimed": args.claim,
        "workloads": sections,
    }


def _make_trees(rev: str, control: bool, tmp: Path) -> dict:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    trees = {}
    for side in ("parent", "change"):
        tree = tmp / side
        if side == "parent" or control:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tree)
        else:
            shutil.copytree(ROOT / "src", tree / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "bench", tree / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
        trees[side] = tree
    return trees


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        runs = run_pairs(_make_trees(args.rev, args.control, Path(tmp)), args)
    sections = {w: summarize(r, args.better) for w, r in runs.items()}
    args.out.write_text(json.dumps(report(args, sections), indent=1) + "\n")
    for w, section in sections.items():
        m = section["metrics"]
        print(f"{w}: " + "; ".join(
            f"{k} {v['parent_median']:.4g} -> {v['change_median']:.4g} "
            f"(change wins {v['change_wins']})" for k, v in m.items()))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
