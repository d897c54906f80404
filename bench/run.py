"""Benchmark of the mindcheck command line, run in one process.

    python3 bench/run.py --workload induce --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --self-test

Each workload (induce, query, revise, extract) is a fixed list of mindcheck
commands built from the seed. The commands go through ``mindcheck.cli.main``
one at a time (a closed loop with one client), in whole rounds of the list
while another round still fits in ``--seconds``. Every output is then checked
against the benchmark's own reference (``ref``). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_STARTS = 9
SETUP_CODE = "import mindcheck.cli as cli; cli.build_parser()"


def import_engine():
    """The engine from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "mindcheck", "cli.py")):
        sys.exit(f"bench: no mindcheck sources under {SRC}")
    sys.path.insert(0, SRC)
    import mindcheck
    import mindcheck.cli
    if os.path.dirname(os.path.abspath(mindcheck.__file__)) != os.path.join(SRC, "mindcheck"):
        sys.exit(f"bench: imported mindcheck from {mindcheck.__file__}, not {SRC}")
    return mindcheck


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser; one unmeasured start first writes bytecode."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs command rounds and keeps what the checks and metrics need."""

    def __init__(self, engine, cmds, outdir: str):
        self.engine = engine
        self.cmds = cmds
        self.outdir = outdir
        self.latencies: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.rounds = 0
        self.first: list[tuple] = []        # (rc, stdout digest, out digest)
        self.mismatches: list[str] = []

    def stdout_path(self, k: int) -> str:
        return os.path.join(self.outdir, f"{k}.stdout")

    def run_round(self, tracer=None) -> float:
        """One pass over the command list; returns its summed wall time."""
        total = 0.0
        for k, cmd in enumerate(self.cmds):
            if cmd.out and os.path.exists(cmd.out):
                os.remove(cmd.out)
            if tracer is not None:
                tracer.command = k
            gc.collect()
            rc = None
            with open(self.stdout_path(k), "w", encoding="utf-8") as out, \
                    open(os.devnull, "w") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = self.engine.cli.main(cmd.argv)
                except Exception:  # a traceback is a failed command
                    elapsed = time.perf_counter() - start
                    failure = traceback.format_exc(limit=3)
                else:
                    elapsed = time.perf_counter() - start
                    failure = None
            self.attempted += 1
            total += elapsed
            self.latencies.append(elapsed)
            if failure is not None or rc == 2:
                self.failed += 1
                print(f"bench: command {k} failed: {failure or 'exit 2'}", file=sys.stderr)
            seen = (rc, digest(self.stdout_path(k)), digest(cmd.out) if cmd.out else None)
            if self.rounds == 0:
                self.first.append(seen)
            elif seen != self.first[k]:
                self.mismatches.append(f"command {k}: output differs between rounds")
        self.rounds += 1
        return total

    def run_for(self, seconds: float, tracer=None) -> float:
        """Whole rounds while another round still fits in `seconds` of wall
        time (at least one); returns the summed command time."""
        start, busy = time.perf_counter(), 0.0
        while True:
            round_start = time.perf_counter()
            busy += self.run_round(tracer)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return busy

    def output_bytes(self) -> int:
        total = 0
        for k, cmd in enumerate(self.cmds):
            total += os.path.getsize(self.stdout_path(k))
            if cmd.out and os.path.exists(cmd.out):
                total += os.path.getsize(cmd.out)
        return total

    def problems(self) -> list[str]:
        import checks
        probs = list(self.mismatches)
        for k, cmd in enumerate(self.cmds):
            with open(self.stdout_path(k), encoding="utf-8") as fh:
                stdout = fh.read()
            out_text = None
            if cmd.out and os.path.exists(cmd.out):
                with open(cmd.out, encoding="utf-8") as fh:
                    out_text = fh.read()
            probs += [f"command {k} ({cmd.kind}): {p}"
                      for p in checks.problems(cmd, self.first[k][0], stdout, out_text)]
        return probs


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("induce", "query", "revise", "extract"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects corrupted outputs")
    args = ap.parse_args(argv)
    engine = import_engine()
    sys.path.insert(0, HERE)
    if args.self_test:
        import selftest
        return selftest.main(engine, os.path.join(WORK, f"selftest-{os.getpid()}"))
    if args.workload is None:
        ap.error("--workload is required")

    import gen
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = setup_seconds() if not args.trace else None
        cmds = gen.build(args.workload, args.seed, os.path.join(work, "in"))
        os.makedirs(os.path.join(work, "out"))
        runner = Runner(engine, cmds, os.path.join(work, "out"))
        gc.collect()
        gc.freeze()   # the benchmark's own objects stay out of the engine's collections
        if args.trace:
            import tracing
            plain_busy = runner.run_for(args.seconds / 2)
            plain_ops = runner.attempted / plain_busy
            tracer = tracing.Tracer()
            tracer.install(engine)
            before, traced_from = runner.rounds, runner.attempted
            traced_busy = runner.run_for(args.seconds / 2, tracer)
            tracer.uninstall()
            traced_ops = (runner.attempted - traced_from) / traced_busy
            metrics = {k: metric(v, u) for k, (v, u)
                       in tracer.layer_metrics(runner.rounds - before).items()}
            metrics["trace.ops_per_s"] = metric(traced_ops, "1/s")
            metrics["trace.overhead_pct"] = metric(100 * (plain_ops - traced_ops) / plain_ops, "%")
        else:
            busy = runner.run_for(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "ops_per_s": metric(runner.attempted / busy, "ops/s"),
                "latency_p50_s": metric(statistics.median(runner.latencies), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "output_mb": metric(runner.output_bytes() / 1e6, "MB"),
                "setup_s": metric(setup, "s"),
            }
        gc.unfreeze()
        probs = runner.problems()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)   # only when no other run is using it
    for p in probs[:20]:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({"correct": not probs, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
