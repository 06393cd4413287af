"""Smoke runs of the experiment scripts: each exits 0 and prints its header."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("reproduce_scenarios.py", ["--seeds", "1"], "=== scenario1 (1 seeds) ==="),
    ("compare_policies.py", ["--runs", "2"], "metric"),
    ("estimation_sweep.py", ["--grid", "1"], "true  estimate"),
])
def test_script_runs(script, args, header):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert header in done.stdout
