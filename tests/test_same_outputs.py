import importlib.util
from pathlib import Path

import pytest

from fif.cli import _make_parser

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_corpus_ids_are_unique_and_every_argv_parses():
    corpus = same_outputs.read_corpus()
    ids = [ident for ident, _ in corpus]
    assert len(corpus) >= 50 and len(set(ids)) == len(ids)
    parser = _make_parser()
    for ident, argv in corpus:
        try:
            args = parser.parse_args(argv + ["--out", "unused"])
        except SystemExit:
            pytest.fail(f"corpus argv {ident} does not parse")
        if args.function and args.function.startswith("table:"):
            assert (ROOT / args.function[len("table:"):]).is_file(), ident


def test_compare_reports_the_first_difference():
    run = (0, b"a\n", b"", {"fif.csv": b"x\n1\n2\n", "meta.json": b"{}\n"})
    assert same_outputs.compare(run, run) is None
    assert same_outputs.compare(run, (2,) + run[1:]) == "exit 0 -> 2"
    assert same_outputs.compare(run, run[:2] + (b"warn\n",) + run[3:]) == "stderr: 0 -> 1 lines"
    assert same_outputs.compare(run, (0, b"a\r\n") + run[2:]).endswith("other line endings")
    edited = dict(run[3], **{"fif.csv": b"x\n1\n3\n"})
    assert same_outputs.compare(run, run[:3] + (edited,)) == "fif.csv line 3: b'2' -> b'3'"
    assert same_outputs.compare(run, run[:3] + ({"fif.csv": b"x\n1\n2\n"},)).startswith("files ")
