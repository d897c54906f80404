import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindcheck import cli, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

from common import running_library, running_program

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_believed_formula_exits_zero(self, capsys):
        code, out, err = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"), "--formula", "B(q|T)")
        assert code == 0
        assert "global: true" in out
        assert err == ""

    def test_refuted_formula_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"), "--formula", "B(p|T)")
        assert code == 1
        assert "global: false" in out

    def test_malformed_formula_exits_two(self, capsys):
        code, _, err = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"), "--formula", "B(p")
        assert code == 2
        assert "parse-error" in err

    def test_program_intentions_need_the_library(self, capsys):
        code, _, err = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--formula", "T")
        assert code == 2
        assert "unknown-plan" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--formula", "Int(p)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["global"] is True
        assert [w["bits"] for w in doc["worlds"]] == ["00", "01", "10", "11"]

    def test_per_world_truth(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", fx("chain_model.json"),
            "--formula", "mu_P T", "--json")
        assert code == 1  # the minimum is not everywhere
        doc = json.loads(out)
        holds = {w["id"]: w["holds"] for w in doc["worlds"]}
        assert holds == {0: False, 1: False, 2: False, 3: True}

    def test_model_and_program_are_exclusive(self, capsys):
        code, _, err = run(
            capsys, "eval", "--program", fx("running_program.json"),
            "--model", fx("chain_model.json"), "--formula", "T")
        assert code == 2
        assert "usage-error" in err


class TestTrace:
    def test_revision_script_passes(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("revision.script"))
        assert code == 0
        assert "step 1: announce q" in out
        assert "worlds: 2" in out
        assert "p-consistent: yes" in out

    def test_failing_assert_exits_one(self, capsys):
        code, out, err = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("failing.script"))
        assert code == 1
        assert "holds: no" in out
        assert "assertion failed at step 2" in err

    def test_malformed_script_exits_two(self, capsys):
        code, _, err = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("bad.script"))
        assert code == 2
        assert "script-error" in err
        assert "line 1" in err

    def test_update_with_unknown_plan_exits_two(self, capsys):
        code, out, err = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("ghost.script"))
        assert (code, out) == (2, "")
        assert err == ("error: unknown-plan: step 1 (line 2): "
                       "unknown plan symbol 'ghost'\n")

    def test_out_writes_final_model(self, capsys, tmp_path):
        out_path = tmp_path / "final.json"
        code, _, _ = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("revision.script"), "--out", str(out_path))
        assert code == 0
        final = md.load_model(json.loads(out_path.read_text()))
        assert final.worlds == 0b1100
        assert final.intentions == frozenset({"alpha"})

    def test_json_step_log(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"),
            "--script", fx("revision.script"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        announce = doc["steps"][0]
        assert announce["op"] == "announce q"
        assert announce["worlds"] == 2
        assert announce["min_P"] == [2, 3]


class TestInduce:
    def test_running_example(self, capsys):
        code, out, _ = run(
            capsys, "induce", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"))
        assert code == 0
        doc = json.loads(out)
        rebuilt = md.load_model(doc)
        direct = pg.induce_program(running_program(), running_library())
        assert rebuilt == direct
        assert doc["intentions"] == ["alpha"]

    def test_worlds_sorted_by_valuation_bits(self, capsys):
        _, out, _ = run(
            capsys, "induce", "--program", fx("three_atom_program.json"))
        doc = json.loads(out)
        bits = ["".join(
            "1" if a in w["true_atoms"] else "0" for a in doc["atoms"])
            for w in doc["worlds"]]
        assert bits == sorted(bits)

    def test_inconsistent_knowledge_exits_two(self, capsys):
        code, _, err = run(
            capsys, "induce", "--program", fx("inconsistent_program.json"))
        assert code == 2
        assert "inconsistent-knowledge" in err

    def test_bad_intentions_name_the_plan(self, capsys):
        code, _, err = run(
            capsys, "induce", "--program", fx("bad_intentions_program.json"),
            "--library", fx("sensing_library.json"))
        assert code == 2
        assert "p-inconsistent-intentions" in err
        assert "grab_q" in err


class TestExtract:
    def test_chain_model(self, capsys):
        code, out, _ = run(
            capsys, "extract", "--model", fx("chain_model.json"))
        assert code == 0
        doc = json.loads(out)
        # the plausibility chain pq < p~q < ~pq < ~p~q has four tie classes,
        # valued 3..0: two ranked rank-bit nodes, p (bit 1) over q (bit 0)
        assert doc["plausibility"] == {"nodes": ["p", "q"], "edges": [[0, 1]]}
        # the identity desirability order is not total: one formula per world
        assert len(doc["desirability"]["nodes"]) == 4
        assert doc["desirability"]["edges"] == []

    def test_extraction_round_trips_through_induction(self, capsys):
        _, out, _ = run(capsys, "extract", "--model", fx("chain_model.json"))
        doc = json.loads(out)
        m = md.load_model(json.loads(pathlib.Path(fx("chain_model.json"))
                                     .read_text()))
        for key, order in (("plausibility", m.plausibility),
                           ("desirability", m.desirability)):
            g = pg.load_graph(doc[key], key)
            assert pg.induced_order(g, m.worlds, m.valuation) == order

    def test_non_injective_model_exits_two(self, capsys):
        code, _, err = run(
            capsys, "extract", "--model", fx("duplicate_model.json"))
        assert code == 2
        assert "injective" in err


class TestMalformedProgram:
    """A malformed program field is bad-program, a malformed graph field
    bad-graph; either names the field."""

    @pytest.mark.parametrize("fixture, reason, field", [
        ("edge_string_index", "bad-graph", "B.edges"),
        ("edge_triple", "bad-graph", "B.edges"),
        ("edge_bool", "bad-graph", "B.edges"),
        ("edges_int", "bad-graph", "B.edges"),
        ("ranks_int", "bad-graph", "D.ranks"),
        ("ranks_string", "bad-graph", "D.ranks"),
        ("node_int", "bad-graph", "B.nodes"),
        ("nodes_string", "bad-graph", "B.nodes"),
        ("graph_list", "bad-program", "B must"),
        ("intentions_int", "bad-program", "I must"),
        ("atoms_string", "bad-program", "atoms must"),
        ("knowledge_string", "bad-program", "K must"),
        ("keyword_atom", "bad-program", "bad atom name 'up_D'"),
    ])
    def test_reason_names_the_field(self, capsys, fixture, reason, field):
        code, out, err = run(capsys, "induce", "--program",
                             fx(f"{fixture}_program.json"), "--json")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["reason"] == reason
        assert error["detail"].startswith(field)

    def test_program_that_is_no_object(self, capsys, tmp_path):
        program = tmp_path / "program.json"
        program.write_text("[]")
        code, _, err = run(capsys, "induce", "--program", str(program))
        assert code == 2
        assert err.startswith("error: bad-program: a program must be an object")


class TestMalformedLibrary:
    """A malformed library document is a library-error that names the field."""

    @pytest.mark.parametrize("fixture, field", [
        ("list", "a library must be an object"),
        ("plans_int", "plans must be a list"),
        ("entry_int", "plan entry must be an object"),
        ("pre_int", "plan entry field 'pre' must be a string"),
        ("name_int", "plan entry field 'name' must be a string"),
        ("keyword_plan", "bad plan symbol 'drop_P'"),
    ])
    def test_reason_names_the_field(self, capsys, fixture, field):
        code, out, err = run(capsys, "eval", "--program", fx("running_program.json"),
                             "--library", fx(f"{fixture}_library.json"),
                             "--formula", "B(p|T)", "--json")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["reason"] == "library-error"
        assert error["detail"].startswith(field)


class TestCheck:
    def test_running_example_ok(self, capsys):
        code, out, _ = run(
            capsys, "check", "--program", fx("running_program.json"),
            "--library", fx("running_library.json"))
        assert code == 0
        assert "p-consistency: ok" in out
        assert "proposition-1: ok" in out

    def test_inconsistent_model_reports_plan(self, capsys):
        code, out, _ = run(
            capsys, "check", "--model", fx("inconsistent_model.json"),
            "--library", fx("sensing_library.json"))
        assert code == 1
        assert "grab_q" in out
        assert "postcondition-not-admissible" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "--model", fx("inconsistent_model.json"),
            "--library", fx("sensing_library.json"), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["p_consistency"]["plan"] == "grab_q"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_unknown_intention_exits_two(self, capsys, json_flag):
        code, out, err = run(
            capsys, "check", "--model", fx("ghost_intentions_model.json"),
            "--library", fx("running_library.json"), *json_flag)
        assert (code, out) == (2, "")
        if json_flag:
            assert json.loads(err)["error"] == {
                "reason": "unknown-plan",
                "detail": "unknown plan symbol 'ghost'"}
        else:
            assert err == "error: unknown-plan: unknown plan symbol 'ghost'\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("eval", "--program", "running_program.json",
         "--library", "running_library.json", "--formula", "Int(p)", "--json"),
        ("trace", "--program", "running_program.json",
         "--library", "running_library.json", "--script", "revision.script",
         "--json"),
        ("induce", "--program", "three_atom_program.json"),
        ("extract", "--model", "chain_model.json", "--json"),
        ("check", "--program", "running_program.json",
         "--library", "running_library.json", "--json"),
    ])
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        argv = [fx(a) if "." in a else a for a in argv]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestSparseWorldIds:
    """Ids are labels: the highest id a document may use must behave like
    its dense relabelling."""

    SCRIPT = "upgrade P p\ncontract D q\nassert B(p|T)\ncontract P p\n"

    @staticmethod
    def model_doc(hi):
        return {
            "atoms": ["p", "q"],
            "worlds": [{"id": 0, "true_atoms": ["p"]},
                       {"id": hi, "true_atoms": ["q"]}],
            "plausibility": [[hi, 0]],
            "desirability": [[0, hi]],
            "intentions": [],
        }

    def outputs(self, capsys, tmp_path, hi):
        model = tmp_path / f"model{hi}.json"
        model.write_text(json.dumps(self.model_doc(hi)))
        script = tmp_path / "ops.script"
        script.write_text(self.SCRIPT)
        final = tmp_path / f"final{hi}.json"
        got = [
            run(capsys, "eval", "--model", str(model), "--json",
                "--formula", "[<=P] q & <<D>> p & [<D] F & [up_P p] B(p|T)"),
            run(capsys, "trace", "--model", str(model), "--script", str(script),
                "--json", "--out", str(final)),
            (json.dumps(md.dump_model(md.load_model(self.model_doc(hi)))),),
            (final.read_text(),),
        ]
        return [tuple(str(x).replace(str(hi), "1") for x in g) for g in got]

    def test_highest_id_matches_dense_relabelling(self, capsys, tmp_path):
        sparse = self.outputs(capsys, tmp_path, (1 << md.MAX_PROGRAM_ATOMS) - 1)
        assert sparse == self.outputs(capsys, tmp_path, 1)
        assert sparse[1][0] == "0"  # the script's assertion held


# ---------------------------------------------------------------------------
# The document writer against the standard library's encoder

INT_PAIRS = st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2)
NEAR_PAIRS = st.sampled_from([[True, 0], [0, False], [0, None], [0, 1.5],
                              [0, 1, 2], [0], ["0", 1], [[0, 1], 2]])
KEYS = st.text(max_size=6)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.text(max_size=8),
    st.lists(INT_PAIRS, max_size=5),
    st.lists(st.one_of(INT_PAIRS, NEAR_PAIRS), max_size=5),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=25,
)


class TestDumpJson:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._dump_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {}, [], [[]], [{}], {"": []}, [[0, 1]], [[True, False]], [[0, 1], [True, 0]],
        {"z\u00e9": "\u0007\u2028\ud83d\ude00", "a": [[-1, 2**70]]},
        float("nan"), float("-inf"), -0.0, None, True, "\x00",
        # model world entries, which have their own template, and near misses
        {"worlds": [{"id": 3, "true_atoms": ["a", "b\u00e9"]}, {"id": 0, "true_atoms": []}]},
        [{"id": True, "true_atoms": []}], [{"id": 1, "true_atoms": ["p"], "z": 0}],
        [{"id": 1, "true_atoms": [1]}], [{"id": 1, "true_atoms": "p"}],
        [{"id": 1, "true_atoms": ["p"]}, [0, 1]], [{"id": 2**70, "true_atoms": [""]}],
        [{"id": 1, "true_atoms": ["p"]}, {"id": 2, "true_atoms": ["q", 7]}],
        [{"id": 1, "true_atoms": []}, {"id": 2}], [{"id": 1, "atoms": []}],
        # eval's per-world rows, which have their own template, and near misses
        {"worlds": [{"bits": "01", "holds": True, "id": 2}, {"bits": "", "holds": False, "id": 0}]},
        [{"bits": "\u2028\"", "holds": False, "id": -2**70}],
        [{"bits": "01", "holds": True, "id": True}], [{"bits": "01", "holds": 1, "id": 1}],
        [{"bits": "01", "holds": True, "id": 1, "x": None}], [{"bits": 1, "holds": True, "id": 1}],
        [{"bits": "01", "holds": True, "id": 1}, {"bits": "10", "holds": None, "id": 2}],
        [{"bits": "01", "holds": True, "idx": 1}], [{"bits": "1", "holds": True, "id": 1.0}],
    ])
    def test_edge_cases(self, value):
        assert cli._dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


class TestMalformedInput:
    @pytest.mark.parametrize("name", [
        "bare_world_model.json", "idless_world_model.json",
        "string_atom_list_model.json", "string_intentions_model.json",
        "bool_id_model.json", "over_cap_id_model.json", "keyword_atom_model.json",
    ])
    def test_malformed_model_is_model_error(self, capsys, name):
        code, out, err = run(capsys, "eval", "--model", fx(name),
                             "--formula", "p")
        assert (code, out) == (2, "")
        assert err.startswith("error: model-error: ")

    def test_deep_nesting_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "--model", fx("chain_model.json"),
                             "--formula", "~" * 3000 + "p")
        assert (code, out) == (2, "")
        assert err.startswith("error: parse-error: formula nested deeper than")

    def test_nesting_up_to_the_limit_evaluates(self, capsys):
        depth = fm.MAX_NESTING - 1
        for formula in ("~" * depth + "p", "(" * depth + "p" + ")" * depth,
                        "[!p] " * depth + "p", "B(" * depth + "p" + ")" * depth):
            code, _, err = run(capsys, "eval", "--model", fx("chain_model.json"),
                               "--formula", formula)
            assert code in (0, 1) and err == ""


class TestFileFaults:
    """Unreadable input and unwritable output are file errors, never
    internal ones."""

    @pytest.mark.parametrize("flag", ["--model", "--script"])
    def test_undecodable_input(self, capsys, tmp_path, flag):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff{}")
        model = str(bad) if flag == "--model" else fx("chain_model.json")
        argv = ["eval", "--model", model, "--formula", "p"]
        if flag == "--script":
            argv = ["trace", "--model", model, "--script", str(bad)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: file-error: {bad}: ")

    @pytest.mark.parametrize("argv", [
        ("induce", "--program", fx("running_program.json"),
         "--library", fx("running_library.json")),
        ("extract", "--model", fx("chain_model.json")),
    ])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 2
            assert err.startswith(f"error: file-error: {out}: ")


class TestChainInduce:
    """A 10-atom chain program: the reduction has O(W) pairs per order."""

    PROGRAM = {
        "atoms": [f"a{i}" for i in range(10)],
        "K": [],
        "B": {"nodes": [f"a{i}" for i in range(10)], "ranks": list(range(10))},
        "D": {"nodes": []},
        "I": [],
    }

    def test_emits_linear_relations(self, capsys, tmp_path):
        program = tmp_path / "program.json"
        program.write_text(json.dumps(self.PROGRAM))
        code, out, _ = run(capsys, "induce", "--program", str(program))
        assert code == 0
        doc = json.loads(out)
        ids = sorted(w["id"] for w in doc["worlds"])
        assert len(ids) == 1024
        # beliefs rank every world apart: one cover pair per step of the chain
        assert len(doc["plausibility"]) == len(ids) - 1
        # no desires tie all worlds: one cycle through them
        assert doc["desirability"] == [list(p) for p in zip(ids, ids[1:])] + [
            [ids[-1], ids[0]]]
        m = md.load_model(doc)
        assert m == pg.induce_program(pg.load_program(self.PROGRAM),
                                      pl.EMPTY_LIBRARY)


class TestNineAtomExtract:
    """A 512-world induced model extracts without recursing through formulas."""

    PROGRAM = {
        "atoms": [f"a{i}" for i in range(9)],
        "K": [],
        "B": {"nodes": ["a0", "a1 | a2", "a3 & a4"], "edges": [[0, 1]]},
        "D": {"nodes": ["a5", "a6 -> a7", "a8"], "ranks": [0, 1, 1]},
        "I": [],
    }

    def test_induce_then_extract(self, capsys, tmp_path):
        program = tmp_path / "program.json"
        program.write_text(json.dumps(self.PROGRAM))
        model = tmp_path / "model.json"
        code, _, _ = run(capsys, "induce", "--program", str(program),
                         "--out", str(model))
        assert code == 0
        code, out, err = run(capsys, "extract", "--model", str(model))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        m = md.load_model(json.loads(model.read_text()))
        assert m.worlds.bit_count() == 512
        for graph, tag in ((pg.extract_graph(m, "P"), "plausibility"),
                           (pg.extract_graph(m, "D"), "desirability")):
            assert len(doc[tag]["nodes"]) == len(graph.nodes)
            assert doc[tag]["edges"] == []
            induced = pg.induced_order(graph, m.worlds, m.valuation)
            assert induced == m.order(tag[0].upper())

    def test_extracted_graph_document_reloads(self):
        m = pg.induce_program(pg.load_program(self.PROGRAM), pl.EMPTY_LIBRARY)
        for tag in ("P", "D"):
            doc = pg.dump_graph(pg.extract_graph(m, tag))
            graph = pg.load_graph(doc, tag)
            assert [fm.render(n) for n in graph.nodes] == doc["nodes"]
            assert pg.induced_order(graph, m.worlds, m.valuation) == m.order(tag)

    def test_graph_contract(self):
        ag = pg.load_program(self.PROGRAM)
        phi = fm.parse("a0")
        for target, tag in (("B", "P"), ("D", "D")):
            contracted = dynamics.graph_contract(ag, target, phi)
            m = pg.induce_program(contracted, pl.EMPTY_LIBRARY)
            expected = dynamics.contract(pg.induce_program(ag, pl.EMPTY_LIBRARY), tag, phi)
            assert m.order(tag) == expected.order(tag)

    def test_revise_and_upgrade_with_extracted_nodes(self):
        ag = dynamics.graph_contract(pg.load_program(self.PROGRAM), "B",
                                     fm.parse("a0"))
        revised = dynamics.revise_drop(ag, fm.parse("a1"), pl.EMPTY_LIBRARY)
        m = pg.induce_program(revised, pl.EMPTY_LIBRARY)
        extracted = revised.beliefs.nodes[-1]
        upgraded = dynamics.graph_upgrade(revised.beliefs, extracted)
        assert upgraded.nodes[0] is extracted
        assert (pg.induced_order(upgraded, m.worlds, m.valuation)
                == dynamics.upgrade(m, "P", extracted).plausibility)


class TestTenAtomExtract:
    """Extraction past 9 atoms: nodes are shallow decision trees."""

    PROGRAM = {
        "atoms": [f"a{i}" for i in range(10)],
        "K": [],
        "B": {"nodes": [f"a{i}" for i in range(10)], "ranks": list(range(10))},
        "D": {"nodes": ["a0 | a1", "a2 | a3", "a4 | a5"]},
        "I": [],
    }

    def test_induce_then_extract(self, capsys, tmp_path):
        program = tmp_path / "program.json"
        program.write_text(json.dumps(self.PROGRAM))
        model = tmp_path / "model.json"
        code, _, _ = run(capsys, "induce", "--program", str(program),
                         "--out", str(model))
        assert code == 0
        code, out, err = run(capsys, "extract", "--model", str(model))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        m = md.load_model(json.loads(model.read_text()))
        assert m.worlds.bit_count() == 1024
        # the ranked belief order is total: its graph is the program's own
        # atoms, ranked; the three unordered desires give a partial order
        edges = [[i, j] for i in range(10) for j in range(i + 1, 10)]
        assert doc["plausibility"] == {"nodes": self.PROGRAM["B"]["nodes"],
                                       "edges": edges}
        assert doc["desirability"]["edges"] == []
        for tag in ("plausibility", "desirability"):
            graph = pg.load_graph(doc[tag], tag)
            induced = pg.induced_order(graph, m.worlds, m.valuation)
            assert induced == m.order(tag[0].upper())
