"""Smoke run of scripts/scale_sweep.py, the atom-count sweep driver."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "scale_sweep.py"


def test_small_sweep_writes_one_median_per_command(tmp_path):
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--atoms", "4", "6", "--repeats", "1",
         "--out", str(out)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(out.read_text())
    assert {"python", "platform", "cpu", "cpu_count", "repeats", "results"} <= set(doc)
    assert [(r["program"], r["atoms"], r["worlds"], r["command"])
            for r in doc["results"]] == [
        (program, n, 2 ** n, command) for n in (4, 6)
        for program in ("ranked", "few-node", "pareto")
        for command in ("induce --out", "eval B(a0)", "eval [up_P a1](B(a1))",
                        "eval ~Int(a0)", "extract")]
    assert all(r["runs"] == 1 and r["median_s"] >= 0 for r in doc["results"])


def test_failing_commands_are_reported_not_recorded(tmp_path):
    # 17 atoms is over the program cap: induce exits 2, and the commands
    # reading its model find none.
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--atoms", "17", "--repeats", "1",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert [line.split(":")[1].strip() for line in proc.stderr.splitlines()] == [
        f"{program} program, 17 atoms, {command}"
        for program in ("ranked", "few-node", "pareto")
        for command in ("induce --out", "eval B(a0)", "eval [up_P a1](B(a1))",
                        "eval ~Int(a0)", "extract")]
    assert json.loads(out.read_text())["results"] == []
