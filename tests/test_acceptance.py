"""Acceptance sweeps, one per shipping criterion.

Every sweep is a deterministic seeded loop at desk scale (at most 3 atoms
for the counted fuzzers, 64 worlds overall) and prints its own pass/fail
line; run with `pytest tests/test_acceptance.py -s` to see them. Any
counterexample to the plan/goal connection sweep is archived under
tests/findings/ before the test fails.
"""

import ast
import dataclasses
import json
import pathlib
import random
import subprocess
import sys

from mindcheck import checker, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

import generators
import oracles
from common import LIBRARY_DOC, PROGRAM_DOC, pairs_of, world_mask, world_set
from generators import models_isomorphic

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FINDINGS = pathlib.Path(__file__).parent / "findings"


def report(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


def test_criterion_1_lexicographic_induction_soundness():
    rng = random.Random(101)
    atoms = ("p", "q", "r")
    failures = 0
    for _ in range(500):
        g = generators.random_graph(rng, atoms, max_nodes=4)
        ids = rng.sample(range(8), k=rng.randint(1, 8))
        worlds = world_mask(ids)
        valuation = {
            a: world_mask(w for w in ids if w >> i & 1)
            for i, a in enumerate(atoms)
        }
        pairs = pairs_of(pg.induced_order(g, worlds, valuation))
        if pairs != oracles.closure(frozenset(ids), pairs):
            failures += 1
    report("criterion 1: induced orders are preorders", failures == 0,
           "500 graphs")


def test_criterion_2_representation_round_trip():
    rng = random.Random(102)
    failures = 0
    for _ in range(500):
        m = generators.random_injective_model(rng, max_worlds=5)
        g = pg.extract_graph(m, "P")
        if pg.induced_order(g, m.worlds, m.valuation) != m.plausibility:
            failures += 1
    report("criterion 2: graph extraction round-trips pair-for-pair",
           failures == 0, "500 preorders")


def test_criterion_3_minimality_formula_equals_min_set():
    rng = random.Random(103)
    failures = 0
    for i in range(400):
        m = generators.random_model(rng, n_atoms=2 + i % 2)
        phi = generators.random_prop(rng, m.atoms, depth=3)
        sat = checker.extension(m, pl.EMPTY_LIBRARY, phi)
        for tag in ("P", "D"):
            got = checker.extension(m, pl.EMPTY_LIBRARY, fm.Mu(tag, phi))
            if got != m.order(tag).min_set(sat):
                failures += 1
    report("criterion 3: mu extension equals the minimal satisfying set",
           failures == 0, "400 model/formula pairs, both orders")


def test_criterion_4_dynamics_success_postulates():
    rng = random.Random(104)
    announced = upgraded = contracted = failures = 0
    for i in range(300):
        m = generators.random_model(rng, n_atoms=2 + i % 2)
        phi = generators.random_prop(rng, m.atoms, depth=2)
        sat = md.satisfying_worlds(phi, m.worlds, m.valuation)
        after_announce = dynamics.announce(m, phi)
        if after_announce.worlds:
            announced += 1
            if not checker.holds(after_announce, pl.EMPTY_LIBRARY, fm.A(phi)):
                failures += 1
        if sat:
            upgraded += 1
            after_up = dynamics.upgrade(m, "P", phi)
            if not checker.holds(after_up, pl.EMPTY_LIBRARY,
                                 fm.Bel(phi, fm.Top())):
                failures += 1
        if m.worlds & ~sat:
            contracted += 1
            after_down = dynamics.contract(m, "P", phi)
            if checker.holds(after_down, pl.EMPTY_LIBRARY,
                             fm.Bel(phi, fm.Top())):
                failures += 1
    ok = failures == 0 and min(announced, upgraded, contracted) >= 100
    report("criterion 4: announcement/upgrade/contraction success postulates",
           ok, f"{announced}/{upgraded}/{contracted} applicable cases")


def test_criterion_5_preorder_preservation():
    rng = random.Random(105)
    failures = non_total = 0
    for i in range(300):
        m = generators.random_model(rng, n_atoms=2 + i % 2)
        phi = generators.random_prop(rng, m.atoms, depth=2)
        lib = generators.random_library(rng, m.atoms)
        worlds = world_set(m.worlds)
        plaus = pairs_of(m.plausibility)
        if any((w, u) not in plaus and (u, w) not in plaus
               for w in worlds for u in worlds):
            non_total += 1
        results = [
            dynamics.announce(m, phi),
            dynamics.upgrade(m, "P", phi),
            dynamics.upgrade(m, "D", phi),
            dynamics.contract(m, "P", phi),
            dynamics.contract(m, "D", phi),
        ] + [dynamics.product_update(m, lib, name) for name in sorted(lib.plans)]
        for got in results:
            for order in (got.plausibility, got.desirability):
                pairs = pairs_of(order)
                failures += pairs != oracles.closure(world_set(order.carrier), pairs)
    ok = failures == 0 and non_total >= 50
    report("criterion 5: all four operations preserve preorders",
           ok, f"300 models, {non_total} with non-total plausibility")


def test_criterion_6_graph_model_commutation():
    rng = random.Random(106)
    failures = announces = 0
    for i in range(200):
        ag = generators.random_program(rng, n_atoms=2 + i % 2)
        lib = generators.random_library(rng, ag.atoms)
        base = pg.induce_program(ag, lib, check_intentions=False)
        base = generators.adopt_admissible_intentions(rng, base, lib)
        ag = dataclasses.replace(ag, intentions=base.intentions)
        phi = generators.random_prop(rng, ag.atoms, depth=2)

        if md.satisfying_worlds(phi, base.worlds, base.valuation):
            announces += 1
            graph_side = pg.induce_program(
                dynamics.graph_announce(ag, phi), lib, check_intentions=False)
            if not models_isomorphic(graph_side, dynamics.announce(base, phi)):
                failures += 1

        for attr, tag in (("beliefs", "P"), ("desires", "D")):
            upgraded = dataclasses.replace(
                ag, **{attr: dynamics.graph_upgrade(getattr(ag, attr), phi)})
            graph_side = pg.induce_program(upgraded, lib,
                                           check_intentions=False)
            if not models_isomorphic(graph_side,
                                     dynamics.upgrade(base, tag, phi)):
                failures += 1

        for target, tag in (("B", "P"), ("D", "D")):
            contracted = dynamics.graph_contract(ag, target, phi)
            graph_side = pg.induce_program(contracted, lib,
                                           check_intentions=False)
            if not models_isomorphic(graph_side,
                                     dynamics.contract(base, tag, phi)):
                failures += 1

        graph_side = pg.induce_program(
            dynamics.revise_drop(ag, phi, lib), lib, check_intentions=False)
        model_side = dynamics.filter_intentions(
            dynamics.upgrade(dynamics.contract(base, "D", fm.Not(phi)),
                             "P", phi), lib)
        if not models_isomorphic(graph_side, model_side):
            failures += 1
    ok = failures == 0 and announces >= 100
    report("criterion 6: graph operations commute with model operations",
           ok, f"200 programs, six pipelines each")


def test_criterion_7_plan_goal_connection():
    rng = random.Random(107)
    failures = []
    intentions_checked = 0
    for i in range(200):
        m = generators.random_model(rng, n_atoms=2 + i % 2, min_worlds=2)
        lib = generators.random_library(rng, m.atoms)
        m = generators.adopt_admissible_intentions(rng, m, lib)
        intentions_checked += len(m.intentions)
        failure = checker.check_proposition1(m, lib)
        if failure is not None:
            failures.append((m, lib, failure))
    for n, (m, lib, failure) in enumerate(failures):
        FINDINGS.mkdir(exist_ok=True)
        path = FINDINGS / f"plan_goal_connection_{n}.json"
        path.write_text(json.dumps({
            "model": md.dump_model(m),
            "library": pl.dump_library(lib),
            "plan": failure.plan,
            "reason": failure.reason,
        }, indent=2, sort_keys=True))
    ok = not failures and intentions_checked >= 40
    report("criterion 7: adopted plans imply belief and intention",
           ok, f"200 models, {intentions_checked} adopted plans checked; "
               f"{len(failures)} archived findings")


# --- criterion 8: the worked example, pre-verified by a standalone oracle ---

def oracle_running_example() -> dict[str, bool]:
    """Brute-force evaluation of the six claims on raw valuation sets."""
    worlds = frozenset(range(4))
    sat = {"p": frozenset({1, 3}), "q": frozenset({2, 3}),
           "T": worlds, "p&T": frozenset({1, 3}), "q&T": frozenset({2, 3})}
    plaus = oracles.induced(worlds, [sat["q"]], [])
    des = oracles.induced(worlds, [sat["p"], sat["q"]], [(0, 1)])

    def believes(x):
        return oracles.settles(plaus, worlds, sat[x])

    def admissible(x):
        return oracles.admissible(plaus, des, worlds, sat[x])

    # the one plan: pre T, post p; executing it makes p true everywhere
    after_update = oracles.product_update_valuation(
        worlds, {"p": sat["p"], "q": sat["q"]}, worlds, {"p": True})
    achieves_p = frozenset(
        w for w in worlds if w in after_update["p"])  # [alpha]p per world
    intends_p = (admissible("p")
                 and oracles.settles(plaus, worlds, sat["T"] & achieves_p))

    return {
        "B(q|T)": believes("q"),
        "B(p|T)": believes("p"),
        "G(p)": oracles.settles(des, worlds, sat["p"]),
        "AdmInt(p)": admissible("p"),
        "AdmInt(q)": admissible("q"),
        "Int(p)": intends_p,
    }


EXPECTED_RUNNING_EXAMPLE = {
    "B(q|T)": True,
    "B(p|T)": False,
    "G(p)": True,
    "AdmInt(p)": True,
    "AdmInt(q)": False,
    "Int(p)": True,
}


def run_cli(*argv, env_src=True):
    cmd = [sys.executable, "-m", "mindcheck", *argv]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_criterion_8_worked_running_example(tmp_path):
    oracle = oracle_running_example()
    assert oracle == EXPECTED_RUNNING_EXAMPLE  # oracle agrees with the frozen values

    program = tmp_path / "program.json"
    library = tmp_path / "library.json"
    program.write_text(json.dumps(PROGRAM_DOC))
    library.write_text(json.dumps(LIBRARY_DOC))
    mismatches = []
    for formula, expected in EXPECTED_RUNNING_EXAMPLE.items():
        proc = run_cli("eval", "--program", str(program),
                       "--library", str(library), "--formula", formula)
        got = {0: True, 1: False}.get(proc.returncode)
        if got != expected:
            mismatches.append((formula, proc.returncode))
    report("criterion 8: worked example matches the exhaustive oracle",
           not mismatches, "6 formulas via the CLI")


EXIT_CODE_MATRIX = [
    (("eval", "--program", "running_program.json",
      "--library", "running_library.json", "--formula", "B(q|T)"), 0),
    (("eval", "--program", "running_program.json",
      "--library", "running_library.json", "--formula", "B(p|T)"), 1),
    (("eval", "--program", "running_program.json",
      "--library", "running_library.json", "--formula", "B(p"), 2),
    (("eval", "--model", "chain_model.json", "--formula", "mu_P T",
      "--json"), 1),
    (("trace", "--program", "running_program.json",
      "--library", "running_library.json", "--script", "revision.script"), 0),
    (("trace", "--program", "running_program.json",
      "--library", "running_library.json", "--script", "failing.script"), 1),
    (("trace", "--program", "running_program.json",
      "--library", "running_library.json", "--script", "bad.script"), 2),
    (("induce", "--program", "running_program.json",
      "--library", "running_library.json", "--json"), 0),
    (("induce", "--program", "three_atom_program.json"), 0),
    (("induce", "--program", "inconsistent_program.json"), 2),
    (("induce", "--program", "bad_intentions_program.json",
      "--library", "sensing_library.json"), 2),
    (("extract", "--model", "chain_model.json"), 0),
    (("extract", "--model", "duplicate_model.json"), 2),
    (("check", "--program", "running_program.json",
      "--library", "running_library.json"), 0),
    (("check", "--model", "inconsistent_model.json",
      "--library", "sensing_library.json", "--json"), 1),
    (("trace", "--program", "running_program.json",
      "--library", "running_library.json", "--script", "ghost.script"), 2),
    (("check", "--model", "ghost_intentions_model.json",
      "--library", "running_library.json"), 2),
    (("eval", "--model", "short_pair_model.json", "--formula", "p"), 2),
    (("eval", "--model", "string_atoms_model.json", "--formula", "p"), 2),
    (("eval", "--model", "bare_world_model.json", "--formula", "p"), 2),
    (("eval", "--model", "idless_world_model.json", "--formula", "p"), 2),
    (("eval", "--model", "bool_id_model.json", "--formula", "p", "--json"), 2),
    (("eval", "--model", "string_atom_list_model.json", "--formula", "p"), 2),
    (("eval", "--model", "string_intentions_model.json", "--formula", "p"), 2),
    (("eval", "--model", "over_cap_id_model.json", "--formula", "B(p)"), 2),
    (("eval", "--model", "keyword_atom_model.json", "--formula", "p"), 2),
    (("eval", "--model", "chain_model.json",
      "--formula", "~" * 3000 + "p"), 2),
    (("eval", "--model", "chain_model.json",
      "--formula", " | ".join(["p"] * 500)), 2),
    *((("induce", "--program", f"{case}_program.json"), 2) for case in (
        "edge_string_index", "edge_triple", "edge_bool", "edges_int",
        "ranks_int", "ranks_string", "node_int", "nodes_string",
        "graph_list", "intentions_int", "atoms_string", "knowledge_string",
        "keyword_atom")),
    *((("eval", "--program", "running_program.json", "--library",
        f"{case}_library.json", "--formula", "B(p|T)"), 2) for case in (
        "list", "plans_int", "entry_int", "pre_int", "name_int", "keyword_plan")),
]


def test_criterion_9_cli_determinism_and_exit_codes():
    fixture_files = set()
    problems = []
    for argv, expected in EXIT_CODE_MATRIX:
        argv = tuple(
            str(FIXTURES / a) if a.endswith((".json", ".script")) else a
            for a in argv
        )
        fixture_files.update(a for a in argv if a.startswith(str(FIXTURES)))
        first = run_cli(*argv)
        second = run_cli(*argv)
        if first.returncode != expected:
            problems.append((argv, "exit", first.returncode, expected))
        if (first.stdout, first.stderr, first.returncode) != (
                second.stdout, second.stderr, second.returncode):
            problems.append((argv, "nondeterministic", None, None))
    ok = not problems and len(fixture_files) >= 10
    report("criterion 9: CLI byte-identical reruns and exit-code contract",
           ok, f"{len(EXIT_CODE_MATRIX)} invocations over "
               f"{len(fixture_files)} fixture files, each run twice")
    assert not problems, problems


def imported_names(source: str) -> set:
    """Every module and name an import statement in source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
            names |= {alias.name for alias in node.names}
    return names


def test_oracles_share_no_code_with_the_engine():
    """Expected values stay independent: tests/oracles.py imports neither
    the engine nor a test helper that reads it."""
    engine_side = {"mindcheck", "common", "strategies", "generators"}
    for source in ("import mindcheck.models", "from common import pairs_of",
                   "from . import generators"):
        assert imported_names(source) & engine_side, source
    oracle_source = (pathlib.Path(__file__).parent / "oracles.py").read_text()
    assert not imported_names(oracle_source) & engine_side
