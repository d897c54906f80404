"""Smoke run of scripts/output_digest.py, the byte-identity digest."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
LINE = re.compile(r"(\d+) extract rc=0 stdout=[0-9a-f]{64} stderr=[0-9a-f]{64} out=(-|[0-9a-f]{64})")


def test_digest_is_stable_with_one_line_per_command(tmp_path):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    n_commands = len(gen.build("extract", 3, str(tmp_path)))
    runs = [subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "extract", "--seed", "3"],
        capture_output=True, text=True) for _ in range(2)]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, "")
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == n_commands
    for k, line in enumerate(lines):
        match = LINE.fullmatch(line)
        assert match and int(match.group(1)) == k, line
