"""Compare the ``fif`` CLI's outputs at a git revision with this tree's.

    python tools/same_outputs.py REV [--expect-diff ID ...]

Extracts REV's ``src/`` with ``git archive`` (local git only) into a
temporary directory.  Each argv of the corpus ``tools/same_outputs.txt``
(one line each: an id, then the argv without ``--out``) runs in a fresh
``python -m fif.cli`` process against REV's tree and this working tree,
each with an empty ``--out`` directory and the repository root as working
directory.  The two runs must agree on the exit code, stdout, stderr and
every file written, byte for byte.  Only the streams are masked: the
``--out`` directory, the tree's path and the line number of a warning.

Prints one line per argv, "same" or the first difference, and exits 1 if
any argv differs that is not named by ``--expect-diff``.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tools" / "same_outputs.txt"


def read_corpus() -> list[tuple[str, list[str]]]:
    """``(id, argv)`` per non-blank line of the corpus that is not a ``#`` comment."""
    entries = []
    for line in CORPUS.read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            ident, *argv = shlex.split(line)
            entries.append((ident, argv))
    return entries


def _run(src: Path, argv, out: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "fif.cli", *argv, "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, timeout=600,
    )

    def mask(stream: bytes) -> bytes:
        text = stream.decode(errors="replace")
        text = text.replace(str(out), "<out>").replace(str(src), "<tree>")
        # a warning reads "<path>:<line>: <category>: <message>"
        return re.sub(r"(<tree>\S*\.py):\d+:", r"\1:<line>:", text).encode()

    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, mask(proc.stdout), mask(proc.stderr), files


def _first_line_diff(name, a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"{name} line {i}: {x[:80]!r} -> {y[:80]!r}"
    if len(la) != len(lb):
        return f"{name}: {len(la)} -> {len(lb)} lines"
    return f"{name}: the same lines, other line endings"


def compare(old, new) -> str | None:
    """The first difference between two ``_run`` results, or ``None``."""
    (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = old, new
    if code_a != code_b:
        return f"exit {code_a} -> {code_b}"
    for name, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if a != b:
            return _first_line_diff(name, a, b)
    if sorted(files_a) != sorted(files_b):
        return f"files {sorted(files_a)} -> {sorted(files_b)}"
    for name in sorted(files_a):
        if files_a[name] != files_b[name]:
            return _first_line_diff(name, files_a[name], files_b[name])
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--expect-diff", action="append", default=[], metavar="ID",
                    help="a corpus id whose outputs may differ (repeatable)")
    args = ap.parse_args(argv)
    corpus = read_corpus()
    unknown = set(args.expect_diff) - {ident for ident, _ in corpus}
    if unknown:
        ap.error(f"--expect-diff names no corpus id: {sorted(unknown)}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            ap.error(f"git archive {args.rev}: {archive.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev")
        trees = (tmp / "rev" / "src", ROOT / "src")
        for ident, cmd in corpus:
            runs = []
            for k, src in enumerate(trees):
                out = tmp / f"out{k}"
                out.mkdir()
                runs.append(_run(src, cmd, out))
            diff = compare(*runs)
            expected = ident in args.expect_diff
            if diff is None:
                verdict = "same" + (" (a difference was expected)" if expected else "")
            else:
                verdict = ("expected diff: " if expected else "DIFF: ") + diff
                failed += not expected
            print(f"{ident}: {verdict}", flush=True)
            for k in range(2):
                shutil.rmtree(tmp / f"out{k}")
    print(f"{len(corpus)} argv, {failed} unexpected difference(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
