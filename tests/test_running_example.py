"""Smoke run of scripts/running_example.py from outside the checkout's src."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "running_example.py"


def test_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert lines[:2] == ["induced practical agent model",
                         "worlds: [0, 1, 2, 3]  min_P: [2, 3]  min_D: [3]  I: ['alpha']"]
    assert "worlds: [1, 3]  min_P: [3]  min_D: [3]  I: []" in lines
    assert lines[-4:] == [
        "revising the program itself: believe ~p, drop desires for p",
        "worlds: [0, 1, 2, 3]  min_P: [2]  min_D: [2, 3]  I: []",
        "B(~p) now: True",
        "G(p) now:  False"]
