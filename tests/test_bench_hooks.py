"""The benchmark's tracer (bench/tracing.py) patches engine functions by
name and reads Preorder rows; this runs it on two commands so that an
engine change that breaks one of its hooks fails here. The benchmark's
self-test, which checks that its output checks reject corrupted outputs,
runs here too."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import mindcheck
import mindcheck.cli
from mindcheck import models as md

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
CHAIN_MODEL = FIXTURES / "chain_model.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_relation_pairs_and_preorder_builds(capsys):
    init = md.Preorder.__init__
    tracer = load_tracing().Tracer()
    tracer.install(mindcheck)
    try:
        assert mindcheck.cli.main(["eval", "--model", str(CHAIN_MODEL),
                                   "--formula", "B(p)"]) == 0
        capsys.readouterr()
        assert mindcheck.cli.main([
            "induce", "--program", str(FIXTURES / "running_program.json"),
            "--library", str(FIXTURES / "running_library.json")]) == 0
        induced = json.loads(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert md.Preorder.__init__ is init

    # loading counts each order's pairs, dumping each reduction's pairs
    loaded = md.load_model(json.loads(CHAIN_MODEL.read_text()))
    load_pairs = sum(row.bit_count() for order in (loaded.plausibility, loaded.desirability)
                     for row in order.down_rows().values())
    dump_pairs = len(induced["plausibility"]) + len(induced["desirability"])
    assert tracer.counts["models.relation_pairs"] == load_pairs + dump_pairs
    assert tracer.counts["models.preorder.calls"] > 0


def test_benchmark_self_test_passes():
    # An extract case cuts a world from a node's text. When the cut still
    # parses, the check rejects it only if the order changes, which holds
    # for every meet-irreducible node but not always for a reducible one.
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
