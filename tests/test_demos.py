"""Every script in ``demos/`` runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _stat(path: Path):
    return path.stat().st_mtime_ns if path.exists() else None


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    """The demo exits 0 when run from an empty directory with this
    checkout's ``src`` on the path; what it writes lands there."""
    written = tmp_path / "robots_synthesized.tubes"
    in_checkout = ROOT / written.name
    before = _stat(in_checkout)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    if demo.name == "02_robot_tube_synthesis.py":
        assert written.is_file()
    assert _stat(in_checkout) == before
