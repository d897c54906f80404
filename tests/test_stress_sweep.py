"""Smoke run of scripts/stress_sweep.py, the counted sweep driver."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "stress_sweep.py"


def test_small_sweep_reports_no_violations():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--count", "20", "--atoms", "3",
         "--seed", "0"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0].strip() for line in lines] == [
        "preorder preservation", "graph/model commutation",
        "plan/goal connection"]
    assert all(line.endswith(", 0 violations") for line in lines)
