import ast
from pathlib import Path

import fif

SRC = Path(fif.__file__).resolve().parent


def test_every_export_resolves_on_import():
    assert [name for name in fif.__all__ if not hasattr(fif, name)] == []
    assert len(set(fif.__all__)) == len(fif.__all__)


def test_no_guard_is_an_assert():
    # `python -O` strips assert statements, and every guard must survive it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and found == []
