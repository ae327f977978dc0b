import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def test_arguments_default_to_every_workload_and_the_next_free_file():
    args = ab_bench.parse_args(["HEAD"])
    assert (args.rev, args.pairs, args.seconds, args.control) == ("HEAD", 10, 10.0, False)
    assert args.workload == WORKLOADS and args.claim is None
    assert list(args.better) == METRICS
    taken = [int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json")]
    assert args.out == ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    args = ab_bench.parse_args(["abc123", "--pairs", "3", "--seconds", "2.5", "--control",
                                "--workload", "dimension", "--claim", "dimension:op_s_p50",
                                "--out", "x.json"])
    assert (args.pairs, args.seconds, args.control, args.workload) == (3, 2.5, True, ["dimension"])
    assert args.claim == {"workload": "dimension", "metric": "op_s_p50"}
    assert args.out == Path("x.json")


@pytest.mark.parametrize("argv", [
    [], ["HEAD", "--pairs", "0"], ["HEAD", "--seconds", "0"], ["HEAD", "--workload", "nope"],
    ["HEAD", "--claim", "dimension:nope"], ["HEAD", "--claim", "nope:op_s_p50"],
])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        ab_bench.parse_args(argv)
    assert exc.value.code == 2


def test_pairs_alternate_and_the_report_keeps_the_schema():
    # a stubbed runner: no timing, the parent's op_s_p50 is 1.0 and the
    # change's 0.9 but on seed 3, where they tie
    calls = []

    def runner(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        change = tree == "change-tree"
        p50 = 1.0 if not change or seed == 3 else 0.9
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "ops_per_s": {"value": 1 / p50, "unit": "1/s"},
            "op_s_p50": {"value": p50, "unit": "s"},
            "setup_s": {"value": 0.2 + seed / 100, "unit": "s"},
            "peak_rss_mb": {"value": 60.0, "unit": "MB"},
        }}

    args = ab_bench.parse_args(["HEAD", "--pairs", "4", "--seconds", "1",
                                "--workload", "smooth-bump", "--claim", "smooth-bump:op_s_p50",
                                "--change", "a faster writer"])
    trees = {"parent": "parent-tree", "change": "change-tree"}
    runs = ab_bench.run_pairs(trees, args, runner)
    assert [(c[0], c[2]) for c in calls] == [
        ("parent-tree", 1), ("change-tree", 1), ("change-tree", 2), ("parent-tree", 2),
        ("parent-tree", 3), ("change-tree", 3), ("change-tree", 4), ("parent-tree", 4),
    ]
    assert all(c[1] == "smooth-bump" and c[3] == 1.0 for c in calls)
    sections = {w: ab_bench.summarize(r, args.better) for w, r in runs.items()}
    doc = json.loads(json.dumps(ab_bench.report(args, sections)))
    assert list(doc) == ["change", "command", "machine", "method", "claimed", "workloads"]
    assert doc["claimed"] == {"workload": "smooth-bump", "metric": "op_s_p50"}
    assert doc["change"] == "a faster writer"
    section = doc["workloads"]["smooth-bump"]
    assert section["pairs"] == 4 and section["seeds"] == [1, 2, 3, 4]
    assert section["failed_ops"] == {"parent": 0, "change": 0}
    assert section["attempted_ops"] == {"parent": 40, "change": 40}
    assert section["all_correct"] == {"parent": True, "change": True}
    assert list(section["metrics"]) == METRICS
    p50 = section["metrics"]["op_s_p50"]
    assert list(p50) == ["unit", "better", "parent_median", "change_median",
                         "parent_quartiles", "change_quartiles", "change_wins",
                         "parent_runs", "change_runs"]
    assert (p50["unit"], p50["better"]) == ("s", "lower")
    assert p50["parent_median"] == 1.0 and p50["change_median"] == 0.9
    assert p50["change_quartiles"] == [0.9, 0.925]
    assert p50["change_wins"] == "3 of 4"
    assert p50["change_runs"] == [0.9, 0.9, 1.0, 0.9]
    assert section["metrics"]["ops_per_s"]["change_wins"] == "3 of 4"
    assert section["metrics"]["setup_s"]["change_wins"] == "0 of 4"
