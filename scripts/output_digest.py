"""Digest of every output of one benchmark workload, for byte-identity checks.

Builds the seeded command list of bench/gen.py in a temporary directory,
runs each command once through mindcheck.cli.main in this process, and
prints one line per command: its index, kind and exit code, and the sha256
of its stdout, its stderr and its --out file ("-" when it has none). The
temporary directory is written as "<dir>" before hashing, so no path
reaches the lines and two runs of the same source print the same lines.

    python3 scripts/output_digest.py --workload extract --seed 3

Comparing the lines of two checkouts shows whether a change kept every
output byte of the workload.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from mindcheck import cli

import gen


def _sha(text: str, d: str) -> str:
    return hashlib.sha256(text.replace(d, "<dir>").encode("utf-8")).hexdigest()


def digest_lines(workload: str, seed: int) -> list[str]:
    """One line per command of the workload at this seed."""
    lines = []
    with tempfile.TemporaryDirectory() as d:
        for k, cmd in enumerate(gen.build(workload, seed, d)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(cmd.argv)
            out = "-"
            if cmd.out and os.path.exists(cmd.out):
                with open(cmd.out, encoding="utf-8") as fh:
                    out = _sha(fh.read(), d)
            lines.append(f"{k} {cmd.kind} rc={rc} stdout={_sha(stdout.getvalue(), d)} "
                         f"stderr={_sha(stderr.getvalue(), d)} out={out}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print("\n".join(digest_lines(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
