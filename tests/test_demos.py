import os
import subprocess
import sys
from pathlib import Path

import pytest

import fif

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    # from a scratch directory, so any figure a demo saves lands there
    src = str(Path(fif.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
