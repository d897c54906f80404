import collections
import dataclasses
import random

import pytest

from mindcheck import checker, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

import generators
import oracles
from common import pairs_of, running_library, running_model, running_program, world_set


class TestLoadLibrary:
    def test_valid_plan(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "q", "post": "p"}]})
        plan = lib.get("alpha")
        assert plan.pre == fm.Atom("q")
        assert plan.post_literals() == {"p": True}

    def test_contradictory_post_rejected(self):
        with pytest.raises(pl.LibraryError):
            pl.load_library(
                {"plans": [{"name": "beta", "pre": "T", "post": "p & ~p"}]})

    def test_non_literal_post_rejected(self):
        with pytest.raises(pl.LibraryError):
            pl.load_library(
                {"plans": [{"name": "gamma", "pre": "p|q", "post": "p | q"}]})

    def test_duplicate_symbol_rejected(self):
        doc = {"plans": [{"name": "a", "pre": "T", "post": "p"},
                         {"name": "a", "pre": "T", "post": "q"}]}
        with pytest.raises(pl.LibraryError):
            pl.load_library(doc)

    def test_top_is_the_empty_conjunction(self):
        lib = pl.load_library(
            {"plans": [{"name": "noop", "pre": "T", "post": "T"}]})
        assert lib.get("noop").post_literals() == {}

    def test_modal_precondition_rejected(self):
        with pytest.raises(pl.LibraryError):
            pl.load_library(
                {"plans": [{"name": "a", "pre": "A p", "post": "p"}]})

    @pytest.mark.parametrize("doc, field", [
        ({"plans": [{"name": "a", "pre": "T"}]}, "missing field: 'post'"),
        ({"plans": [{"pre": "T", "post": "p"}]}, "missing field: 'name'"),
        ({"plans": [{"name": "a", "pre": "T", "post": ["p"]}]}, "'post' must be"),
        ({"plans": {"a": {}}}, "plans must be"),
        ("plans", "a library must be"),
    ])
    def test_malformed_shapes_name_the_field(self, doc, field):
        with pytest.raises(pl.LibraryError, match=field):
            pl.load_library(doc)

    @pytest.mark.parametrize("name", ["x y", "mu_P", "drop_D", "Alpha", "1a", ""])
    def test_plan_symbol_outside_the_atom_class_rejected(self, name):
        with pytest.raises(pl.LibraryError, match="bad plan symbol"):
            pl.load_library({"plans": [{"name": name, "pre": "T", "post": "p"}]})

    def test_dump_round_trips(self):
        lib = running_library()
        assert pl.load_library(pl.dump_library(lib)).plans == dict(lib.plans)


class TestPConsistency:
    def test_running_example_ok(self):
        m = running_model()
        assert m.intentions == {"alpha"}
        assert pl.check_p_consistency(m, running_library()) is None

    def test_believed_post_fails_admissibility(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "T", "post": "q"}]})
        m = running_model()  # B(q) holds here
        failure = pl.check_p_consistency(m, lib)
        assert failure == pl.PlanFailure(
            "alpha", "postcondition-not-admissible")

    def test_disbelieved_precondition_fails(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "~q", "post": "p"}]})
        m = running_model()
        failure = pl.check_p_consistency(m, lib)
        assert failure == pl.PlanFailure(
            "alpha", "precondition-not-believed")

    def test_unknown_symbol(self):
        m = dataclasses.replace(running_model(), intentions={"ghost"})
        with pytest.raises(fm.UnknownPlanError):
            pl.check_p_consistency(m, running_library())

    def test_induced_models_always_pass(self):
        rng = random.Random(3)
        for _ in range(40):
            ag = generators.random_program(rng)
            lib = generators.random_library(rng, ag.atoms)
            m = pg.induce_program(ag, lib, check_intentions=False)
            m = generators.adopt_admissible_intentions(rng, m, lib)
            assert pl.check_p_consistency(m, lib) is None

    def test_filtered_models_always_pass(self):
        rng = random.Random(4)
        lib = running_library()
        for _ in range(40):
            m = generators.random_model(rng, intentions={"alpha"})
            filtered = dynamics.filter_intentions(m, lib)
            assert pl.check_p_consistency(filtered, lib) is None


class TestPlanCheckOracle:
    def test_every_plan_adopted_matches_the_oracle(self):
        rng = random.Random(6)
        kept = 0
        reasons = collections.Counter()
        for i in range(200):
            m = generators.random_model(rng, n_atoms=2 + i % 2)
            lib = generators.random_library(rng, m.atoms)
            m = dataclasses.replace(m, intentions=frozenset(lib.plans))
            plaus, des = pairs_of(m.plausibility), pairs_of(m.desirability)
            worlds = world_set(m.worlds)
            truth = {a: world_set(ws) for a, ws in m.valuation.items()}
            true_at = {w: {a for a in m.atoms if w in truth[a]} for w in worlds}

            def sat(f):
                return frozenset(w for w in worlds
                                 if oracles.holds_at(f, true_at[w]))

            consistent = [
                s for s in sorted(lib.plans) if oracles.p_consistent(
                    plaus, des, worlds, sat(lib.get(s).pre),
                    sat(lib.get(s).post))
            ]
            kept += len(consistent)
            failing = [s for s in sorted(lib.plans) if s not in consistent]
            assert dynamics.filter_intentions(m, lib).intentions == set(consistent)
            failure = pl.check_p_consistency(m, lib)
            if not failing:
                assert failure is None
                continue
            first = failing[0]
            believed = oracles.settles(plaus, worlds, sat(lib.get(first).pre))
            reason = ("postcondition-not-admissible" if believed
                      else "precondition-not-believed")
            assert failure == pl.PlanFailure(first, reason)
            reasons[reason] += 1
        # the sweep must keep plans and reject them for both reasons
        assert kept >= 30
        assert reasons["precondition-not-believed"] >= 30
        assert reasons["postcondition-not-admissible"] >= 100


class TestPlanGoalConnection:
    def test_fuzzed_consistent_models_satisfy_proposition1(self):
        rng = random.Random(5)
        checked = 0
        for i in range(100):
            m = generators.random_model(rng, n_atoms=2 + i % 2, min_worlds=2)
            lib = generators.random_library(rng, m.atoms)
            m = generators.adopt_admissible_intentions(rng, m, lib)
            checked += len(m.intentions)
            assert checker.check_proposition1(m, lib) is None
        assert checked >= 20  # the sweep must not be vacuous
