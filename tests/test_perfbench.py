"""The benchmark harness's own self-test, run as part of the suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_sweep_child_runs_the_exhaustive_worker():
    # the sweep child calls cli._exhaustive_worker and cli.poly_ints directly
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "perfbench/child.py", "sweep"], cwd=ROOT, env=env,
                            input=json.dumps(["12,23,34,45,15", "12,23,13,14"]),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["problems"] == {}
    assert doc["uniform_hstar"] == {"12,23,34,45,15": [1, 5, 5]}
