"""Smoke test: every demo runs to completion and leaves its temp dir empty."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo, tmp_path):
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=work,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert list(tmp.iterdir()) == [], "the demo left files in the temp dir"
