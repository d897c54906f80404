"""Scale sweep: wall time of mindcheck commands as the atom count grows.

Runs, through mindcheck.cli.main in this process, on each test program
below at each atom count:

    induce --program P --out M
    eval --model M --formula "B(a0)"
    eval --model M --formula "[up_P a1](B(a1))"
    eval --model M --library L --formula "~Int(a0)"
    extract --model M

and writes the median wall time of each command over --repeats runs, with
the interpreter and CPU it ran on, to a JSON file. A run whose command exits
non-zero is reported on stderr and left out of the file, and the script then
exits 1.

Test programs at n atoms, all over atoms a0..a(n-1) with no knowledge and
no intentions:
- ranked: the belief graph ranks every atom (a_i at rank i); the desire
  graph ranks a0|a1, a1|a2 and a2|a3;
- few-node: the belief graph ranks a0 then a1; the desire graph has the
  one node a0|a1;
- pareto: every atom is a belief node and no edge orders them, so the
  belief order is not total; the desire graph is few-node's.

The library L holds four plans s0..s3, plan s_i with precondition T and
post-condition a_(i mod n). No plan is adopted, so Int(a0) holds nowhere
and its negation everywhere; evaluating it still executes every plan.

    python3 scripts/scale_sweep.py --atoms 4 6 8 10 11 12 13 --out BENCH_18.json
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mindcheck import cli

FORMULAS = ("B(a0)", "[up_P a1](B(a1))")
INT_FORMULA = "~Int(a0)"
PLANS = 4


def ranked_program(n: int) -> dict:
    atoms = [f"a{i}" for i in range(n)]
    desires = [f"a{i} | a{i + 1}" for i in range(min(3, n - 1))]
    return {
        "atoms": atoms,
        "K": [],
        "B": {"nodes": atoms, "ranks": list(range(n))},
        "D": {"nodes": desires, "ranks": list(range(len(desires)))},
        "I": [],
    }


def few_node_program(n: int) -> dict:
    atoms = [f"a{i}" for i in range(n)]
    return {
        "atoms": atoms,
        "K": [],
        "B": {"nodes": atoms[:2], "ranks": list(range(len(atoms[:2])))},
        "D": {"nodes": [" | ".join(atoms[:2])], "ranks": [0]},
        "I": [],
    }


def pareto_program(n: int) -> dict:
    atoms = [f"a{i}" for i in range(n)]
    return {
        "atoms": atoms,
        "K": [],
        "B": {"nodes": atoms, "edges": []},
        "D": few_node_program(n)["D"],
        "I": [],
    }


PROGRAMS = {"ranked": ranked_program, "few-node": few_node_program,
            "pareto": pareto_program}


def sweep_library(n: int) -> dict:
    return {"plans": [{"name": f"s{i}", "pre": "T", "post": f"a{i % n}"}
                      for i in range(PLANS)]}


def commands(program: str, library: str,
             model: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of each measured command; induce writes the model the
    others read."""
    return ([("induce --out", ["induce", "--program", program, "--out", model])]
            + [(f"eval {f}", ["eval", "--model", model, "--formula", f])
               for f in FORMULAS]
            + [(f"eval {INT_FORMULA}", ["eval", "--model", model, "--library", library,
                                        "--formula", INT_FORMULA])]
            + [("extract", ["extract", "--model", model])])


def timed(argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall time and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sweep(atom_counts, repeats: int, work: str):
    """Rows of results, and the descriptions of runs that exited non-zero."""
    rows, failures = [], []
    for n in atom_counts:
        library = os.path.join(work, f"library{n}.json")
        with open(library, "w", encoding="utf-8") as fh:
            json.dump(sweep_library(n), fh)
        for name, build in PROGRAMS.items():
            program = os.path.join(work, f"{name}{n}.json")
            model = os.path.join(work, f"{name}{n}.model.json")
            with open(program, "w", encoding="utf-8") as fh:
                json.dump(build(n), fh)
            runs = commands(program, library, model)
            times: dict[str, list[float]] = {label: [] for label, _ in runs}
            for _ in range(repeats):
                for label, argv in runs:
                    rc, elapsed, err = timed(argv)
                    if rc != 0:
                        failures.append(f"{name} program, {n} atoms, {label}: "
                                        f"exit {rc}: {err.strip()}")
                        print(f"scale_sweep: {failures[-1]}", file=sys.stderr)
                        continue
                    times[label].append(elapsed)
            for label, ts in times.items():
                if ts:
                    rows.append({"program": name, "atoms": n, "worlds": 2 ** n,
                                 "command": label,
                                 "median_s": round(statistics.median(ts), 4),
                                 "runs": len(ts)})
                    print(f"{name:<9}{n:>3} atoms  {label:<26} "
                          f"{rows[-1]['median_s']:9.4f} s")
    return rows, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--atoms", type=int, nargs="+", default=[4, 6, 8, 10, 11, 12, 13])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_18.json"))
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        rows, failures = sweep(args.atoms, args.repeats, work)
    doc = {
        "sweep": "scripts/scale_sweep.py",
        "programs": {
            "ranked": "atoms a0..a(n-1), K empty, B ranks each atom, "
                      "D ranks a0|a1, a1|a2, a2|a3, I empty",
            "few-node": "atoms a0..a(n-1), K empty, B ranks a0 then a1, "
                        "D has the one node a0|a1, I empty",
            "pareto": "atoms a0..a(n-1), K empty, B has every atom as a node "
                      "and no edges, D has the one node a0|a1, I empty",
        },
        "library": f"{PLANS} plans s0..s{PLANS - 1}, plan s_i: pre T, post a_(i mod n)",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "results": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
