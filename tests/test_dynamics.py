import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindcheck import checker, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

import generators
import oracles
import strategies as gen
from common import (assert_class_map, few_node_program, pareto_program, ranked_program,
                    running_library, running_model, running_program, world_set)
from generators import models_isomorphic

P, Q = fm.Atom("p"), fm.Atom("q")
TOP, BOT = fm.Top(), fm.Bottom()


def chain_model():
    """Plausibility chain 11 < 10 < 01 < 00 (ids 3 < 1 < 2 < 0)."""
    worlds = 0b1111
    ids = [3, 1, 2, 0]
    pairs = [(ids[i], ids[j]) for i in range(4) for j in range(i, 4)]
    chain = md.Preorder.from_pairs(worlds, pairs)
    valuation = {"p": 0b1010, "q": 0b1100}
    return md.AgentModel(("p", "q"), worlds, chain, chain, valuation)


def identity_model():
    worlds = 0b1111
    ident = md.Preorder.identity(worlds)
    valuation = {"p": 0b1010, "q": 0b1100}
    return md.AgentModel(("p", "q"), worlds, ident, ident, valuation)


class TestAnnounce:
    def test_announcing_top_is_identity(self):
        m = chain_model()
        assert dynamics.announce(m, TOP) == m

    def test_announcing_q_restricts(self):
        m = identity_model()
        got = dynamics.announce(m, Q)
        assert world_set(got.worlds) == {2, 3}
        expected = oracles.announce_pairs(world_set(m.worlds), m.plausibility.pairs,
                                          {2, 3})
        assert got.plausibility.pairs == expected
        assert {a: world_set(ws) for a, ws in got.valuation.items()} == {
            "p": {3}, "q": {2, 3}}

    def test_announcing_falsum_empties_the_model(self):
        got = dynamics.announce(chain_model(), BOT)
        assert got.worlds == 0

    @settings(max_examples=100)
    @given(gen.model_with_props())
    def test_success_postulate(self, case):
        m, phi = case
        got = dynamics.announce(m, phi)
        if got.worlds:
            assert checker.holds(got, pl.EMPTY_LIBRARY, fm.A(phi))


class TestUpgrade:
    def test_upgrade_by_top_keeps_order(self):
        m = chain_model()
        assert dynamics.upgrade(m, "P", TOP).plausibility == m.plausibility

    def test_upgrade_identity_order_by_q(self):
        m = identity_model()
        got = dynamics.upgrade(m, "P", Q)
        expected = oracles.upgrade_pairs(world_set(m.worlds), m.plausibility.pairs,
                                         {2, 3})
        assert got.plausibility.pairs == expected
        for w in (2, 3):
            for u in (0, 1):
                assert got.plausibility.lt(w, u)
        assert got.plausibility.restrict(0b1100) == md.Preorder.identity(0b1100)
        assert got.plausibility.restrict(0b0011) == md.Preorder.identity(0b0011)
        assert got.desirability == m.desirability

    def test_upgrade_chain_by_not_p(self):
        m = chain_model()
        got = dynamics.upgrade(m, "P", fm.Not(P))
        expected = oracles.upgrade_pairs(world_set(m.worlds), m.plausibility.pairs,
                                         {0, 2})
        assert got.plausibility.pairs == expected
        # new bottom zone {01, 00} keeps 01 < 00; above it 11 < 10 survives
        assert world_set(got.plausibility.min_set(m.worlds)) == {2}
        assert got.plausibility.lt(2, 0)
        assert got.plausibility.lt(3, 1)
        assert got.plausibility.lt(0, 3)

    @settings(max_examples=100)
    @given(gen.model_with_props())
    def test_success_postulate(self, case):
        m, phi = case
        got = dynamics.upgrade(m, "P", phi)
        if md.satisfying_worlds(phi, m.worlds, m.valuation):
            assert checker.holds(got, pl.EMPTY_LIBRARY, fm.Bel(phi, TOP))


class TestContract:
    def test_contract_globally_true_formula(self):
        # no counter-worlds: clause 2 is vacuous, clause 3 is the old order,
        # clause 1 still bottoms the global minima
        m = chain_model()
        got = dynamics.contract(m, "P", fm.Or(P, fm.Not(P)))
        expected = oracles.contract_pairs(world_set(m.worlds), m.plausibility.pairs,
                                          set())
        assert got.plausibility.pairs == expected
        assert got.plausibility == m.plausibility  # chain minima already bottom

    def test_contract_chain_by_p(self):
        m = chain_model()
        got = dynamics.contract(m, "P", P)
        expected = oracles.contract_pairs(world_set(m.worlds), m.plausibility.pairs,
                                          {0, 2})
        assert got.plausibility.pairs == expected
        # 11 and 01 now form the bottom cluster; 10 and 00 stay above
        assert got.plausibility.le(3, 2) and got.plausibility.le(2, 3)
        assert world_set(got.plausibility.min_set(m.worlds)) == {3, 2}
        assert got.plausibility.lt(1, 0)
        assert not checker.holds(got, pl.EMPTY_LIBRARY, fm.Bel(P, TOP))

    def test_contract_by_falsum(self):
        m = chain_model()
        got = dynamics.contract(m, "P", BOT)
        expected = oracles.contract_pairs(world_set(m.worlds), m.plausibility.pairs,
                                          world_set(m.worlds))
        assert got.plausibility.pairs == expected

    @settings(max_examples=100)
    @given(gen.model_with_props())
    def test_success_postulate(self, case):
        m, phi = case
        got = dynamics.contract(m, "P", phi)
        counter = m.worlds & ~md.satisfying_worlds(phi, m.worlds, m.valuation)
        if counter:
            assert not checker.holds(got, pl.EMPTY_LIBRARY, fm.Bel(phi, TOP))

    @settings(max_examples=100)
    @given(gen.model_with_props())
    def test_conservativity_outside_promoted_minima(self, case):
        m, phi = case
        old = m.plausibility
        got = dynamics.contract(m, "P", phi).plausibility
        counter = m.worlds & ~md.satisfying_worlds(phi, m.worlds, m.valuation)
        promoted = old.min_set(counter) | old.min_set(m.worlds)
        untouched = world_set(m.worlds & ~promoted)
        for w in untouched:
            for u in untouched:
                assert old.le(w, u) == got.le(w, u)


class TestProductUpdate:
    def test_trivial_precondition_forces_post(self):
        m = identity_model()
        got = dynamics.product_update(m, running_library(), "alpha")
        assert got.worlds == m.worlds
        worlds = world_set(m.worlds)
        expected_val = oracles.product_update_valuation(
            worlds, {a: world_set(ws) for a, ws in m.valuation.items()}, worlds,
            {"p": True})
        assert {a: world_set(ws) for a, ws in got.valuation.items()} == expected_val
        assert got.valuation["p"] == m.worlds
        assert world_set(got.valuation["q"]) == {2, 3}

    def test_duplicate_valuations_keep_distinct_ids(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "q", "post": "p"}]})
        m = identity_model()
        got = dynamics.product_update(m, lib, "alpha")
        assert world_set(got.worlds) == {2, 3}
        assert got.bits_by_world[2] == got.bits_by_world[3] == "11"

    def test_unsatisfiable_precondition_empties_the_model(self):
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "F", "post": "p"}]})
        got = dynamics.product_update(identity_model(), lib, "alpha")
        assert got.worlds == 0

    def test_unknown_plan(self):
        with pytest.raises(fm.UnknownPlanError):
            dynamics.product_update(identity_model(), running_library(), "ghost")

    def test_intentions_carried_over(self):
        m = running_model()
        got = dynamics.product_update(m, running_library(), "alpha")
        assert got.intentions == frozenset({"alpha"})

    @settings(max_examples=100)
    @given(gen.agent_models())
    def test_post_literals_hold_globally(self, m):
        rng = random.Random(7)
        lib = generators.random_library(rng, m.atoms)
        for name in sorted(lib.plans):
            got = dynamics.product_update(m, lib, name)
            if not got.worlds:
                continue
            for atom, value in lib.plans[name].post_literals().items():
                lit = fm.Atom(atom) if value else fm.Not(fm.Atom(atom))
                assert checker.holds(got, lib, fm.A(lit))
            # equivalently, [alpha]post holds globally in the source model
            assert checker.holds(
                m, lib, fm.PlanMod(name, lib.plans[name].post))


class TestPreorderPreservation:
    @settings(max_examples=150)
    @given(gen.model_with_props())
    def test_all_four_operations(self, case):
        m, phi = case
        rng = random.Random(11)
        lib = generators.random_library(rng, m.atoms)
        results = [
            dynamics.announce(m, phi),
            dynamics.upgrade(m, "P", phi),
            dynamics.upgrade(m, "D", phi),
            dynamics.contract(m, "P", phi),
            dynamics.contract(m, "D", phi),
        ]
        results += [
            dynamics.product_update(m, lib, name) for name in sorted(lib.plans)
        ]
        for got in results:
            assert got.plausibility.validate() is None
            assert got.desirability.validate() is None
        # each order is its class map, against the pair-set definitions
        worlds = world_set(m.worlds)
        sat = world_set(md.satisfying_worlds(phi, m.worlds, m.valuation))
        announced, up_p, up_d, drop_p, drop_d, *updated = results
        for tag, up, drop in (("P", up_p, drop_p), ("D", up_d, drop_d)):
            old = m.order(tag).pairs
            assert_class_map(announced.order(tag), oracles.announce_pairs(worlds, old, sat))
            assert_class_map(up.order(tag), oracles.upgrade_pairs(worlds, old, sat))
            assert_class_map(drop.order(tag),
                             oracles.contract_pairs(worlds, old, worlds - sat))
            for name, got in zip(sorted(lib.plans), updated):
                pre = world_set(md.satisfying_worlds(lib.plans[name].pre, m.worlds,
                                                     m.valuation))
                assert_class_map(got.order(tag), oracles.announce_pairs(worlds, old, pre))


class TestGraphAnnounce:
    def test_announcing_top_normalizes_knowledge_only(self):
        ag = running_program()
        got = dynamics.graph_announce(ag, TOP)
        assert got.beliefs == ag.beliefs
        assert got.desires == ag.desires
        assert got.intentions == ag.intentions
        assert models_isomorphic(
            pg.induce_program(got, running_library()),
            pg.induce_program(ag, running_library()))

    def test_commutes_with_model_announcement(self):
        ag = running_program()
        lib = running_library()
        graph_side = pg.induce_program(
            dynamics.graph_announce(ag, Q), lib, check_intentions=False)
        model_side = dynamics.announce(pg.induce_program(ag, lib), Q)
        assert world_set(graph_side.worlds) == {2, 3}
        assert models_isomorphic(graph_side, model_side)

    def test_contradicting_knowledge_rejected(self):
        ag = pg.AgentProgram(("p",), (P,), pg.make_graph([]),
                             pg.make_graph([]), frozenset())
        with pytest.raises(pg.ProgramError) as exc:
            dynamics.graph_announce(ag, fm.Not(P))
        assert exc.value.reason == "inconsistent-knowledge"


class TestGraphUpgrade:
    def worlds_and_valuation(self):
        return 0b1111, {"p": 0b1010, "q": 0b1100}

    def test_empty_graph_gains_single_top_node(self):
        worlds, valuation = self.worlds_and_valuation()
        g = dynamics.graph_upgrade(pg.make_graph([]), Q)
        assert g.nodes == (Q,)
        induced = pg.induced_order(g, worlds, valuation)
        total = md.Preorder.total(worlds)
        upgraded = dynamics.upgrade(
            md.AgentModel(("p", "q"), worlds, total, total, valuation),
            "P", Q)
        assert induced == upgraded.plausibility

    def test_prepends_on_top_of_existing_chain(self):
        worlds, valuation = self.worlds_and_valuation()
        base = pg.make_graph([P, Q], [(P, Q)])
        g = dynamics.graph_upgrade(base, fm.Not(P))
        assert g.nodes == (fm.Not(P), P, Q)
        assert g.prec == frozenset({(0, 1), (0, 2), (1, 2)})
        induced = pg.induced_order(g, worlds, valuation)
        m = md.AgentModel(
            ("p", "q"), worlds, pg.induced_order(base, worlds, valuation),
            md.Preorder.total(worlds), valuation)
        assert induced == dynamics.upgrade(m, "P", fm.Not(P)).plausibility

    def test_upgrading_twice_is_idempotent_on_orders(self):
        worlds, valuation = self.worlds_and_valuation()
        base = pg.make_graph([P, Q], [(P, Q)])
        once = dynamics.graph_upgrade(base, Q)
        twice = dynamics.graph_upgrade(once, Q)
        assert (pg.induced_order(once, worlds, valuation)
                == pg.induced_order(twice, worlds, valuation))

    @settings(max_examples=150)
    @given(gen.priority_graphs(names=("p", "q")),
           gen.prop_formulas(names=("p", "q"), max_depth=2))
    def test_commutes_on_every_world_set(self, g, phi):
        worlds, valuation = self.worlds_and_valuation()
        induced_after = pg.induced_order(
            dynamics.graph_upgrade(g, phi), worlds, valuation)
        before = pg.induced_order(g, worlds, valuation)
        m = md.AgentModel(("p", "q"), worlds, before, before, valuation)
        assert induced_after == dynamics.upgrade(m, "P", phi).plausibility


class TestGraphContract:
    def test_contract_by_falsum_round_trips(self):
        ag = running_program()
        lib = running_library()
        got = dynamics.graph_contract(ag, "B", BOT)
        graph_side = pg.induce_program(got, lib, check_intentions=False)
        model_side = dynamics.contract(pg.induce_program(ag, lib), "P", BOT)
        assert models_isomorphic(graph_side, model_side)

    def test_contracting_belief_breaks_it(self):
        ag = running_program()
        lib = running_library()
        got = dynamics.graph_contract(ag, "B", Q)
        m = pg.induce_program(got, lib, check_intentions=False)
        assert not checker.holds(m, lib, fm.Bel(Q, TOP))
        assert (m.plausibility.min_set(m.worlds)
                & ~md.satisfying_worlds(Q, m.worlds, m.valuation))
        model_side = dynamics.contract(pg.induce_program(ag, lib), "P", Q)
        assert models_isomorphic(m, model_side)

    def test_contracting_desire_weakens_goal(self):
        ag = running_program()
        lib = running_library()
        before = pg.induce_program(ag, lib)
        assert checker.holds(before, lib, fm.Goal(P, TOP))
        got = dynamics.graph_contract(ag, "D", P)
        after = pg.induce_program(got, lib, check_intentions=False)
        assert not checker.holds(after, lib, fm.Goal(P, TOP))
        model_side = dynamics.contract(before, "D", P)
        assert models_isomorphic(after, model_side)

    @settings(max_examples=150)
    @given(gen.priority_graphs(), gen.priority_graphs(),
           st.lists(gen.prop_formulas(max_depth=2), max_size=2),
           gen.prop_formulas(max_depth=2))
    def test_commutes_with_model_contraction(self, beliefs, desires,
                                             knowledge, phi):
        ag = pg.AgentProgram(gen.ATOMS, tuple(knowledge), beliefs, desires,
                             frozenset())
        assume(ag.universe[0])
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        for target, tag in (("B", "P"), ("D", "D")):
            got = pg.induce_program(dynamics.graph_contract(ag, target, phi),
                                    pl.EMPTY_LIBRARY)
            assert got == dynamics.contract(m, tag, phi)

    @pytest.mark.parametrize("program", [ranked_program, few_node_program,
                                         pareto_program])
    def test_commutes_at_twelve_atoms(self, program):
        # each verdict is bound to a name first, so that a failure does not
        # render two 4 096-world models
        ag = program(12)
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        for phi in (fm.Atom("a0"), fm.parse("~a1 | a11")):
            for target, tag in (("B", "P"), ("D", "D")):
                got = pg.induce_program(dynamics.graph_contract(ag, target, phi),
                                        pl.EMPTY_LIBRARY)
                same = got == dynamics.contract(m, tag, phi)
                assert same, f"{target} contracted by {fm.render(phi)}"

    def test_weakens_nodes_without_inducing_the_program(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("graph_contract left the graph level")

        monkeypatch.setattr(pg, "induce_program", forbidden)
        monkeypatch.setattr(pg, "extract_graph", forbidden)
        monkeypatch.setattr(dynamics, "contract", forbidden)
        for ag in (running_program(), ranked_program(8), pareto_program(8)):
            for target, field in (("B", "beliefs"), ("D", "desires")):
                g = getattr(ag, field)
                contracted = dynamics.graph_contract(ag, target, fm.Atom(ag.atoms[0]))
                got = getattr(contracted, field)
                assert len(got.nodes) == len(g.nodes)
                assert got.prec == g.prec

    def test_fifty_contractions_round_trip(self):
        ag = ranked_program(10)
        start = len(json.dumps(pg.dump_program(ag)))
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        for k in range(50):
            phi = fm.Atom(f"a{k % 10}")
            if k % 3:
                phi = fm.Not(phi)
            target, tag = (("B", "P"), ("D", "D"))[k % 2]
            ag = dynamics.graph_contract(ag, target, phi)
            m = dynamics.contract(m, tag, phi)
        doc = pg.dump_program(ag)
        # a node that already holds on the promoted worlds is kept as it is,
        # so the text stays bounded (624 -> 1 309 bytes; 47 324 if every
        # node gained a chi at every step)
        assert len(json.dumps(doc)) <= 3 * start
        reloaded = pg.load_program(doc)
        assert pg.dump_program(reloaded) == doc
        same = pg.induce_program(reloaded, pl.EMPTY_LIBRARY) == m
        assert same, "50 graph contractions disagree with 50 model contractions"

    def test_ranked_belief_contraction_stays_program_sized(self):
        # weakening keeps every node and edge, so the contracted graph has
        # the program's 10 ranked nodes
        ag = ranked_program(10)
        a0 = fm.Atom("a0")
        got = dynamics.graph_contract(ag, "B", a0)
        assert len(got.beliefs.nodes) == 10
        assert got.beliefs.prec == frozenset(
            (i, j) for i in range(10) for j in range(i + 1, 10))
        assert got.desires == ag.desires
        graph_side = pg.induce_program(got, pl.EMPTY_LIBRARY)
        model_side = dynamics.contract(
            pg.induce_program(ag, pl.EMPTY_LIBRARY), "P", a0)
        assert graph_side.plausibility == model_side.plausibility
        assert graph_side.desirability == model_side.desirability

    def test_pareto_belief_contraction_stays_program_sized(self):
        # the belief order is not total: it extracts as its 11 atoms, its
        # meet-irreducible down-sets, not as all 2^11 distinct down-sets;
        # its contraction by a0 weakens those 11 nodes and adds none
        ag = pareto_program(11)
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        beliefs = pg.extract_graph(m, "P")
        assert sorted(map(fm.render, beliefs.nodes)) == sorted(
            f"a{i}" for i in range(11))
        assert beliefs.prec == frozenset()
        a0 = fm.Atom("a0")
        got = dynamics.graph_contract(ag, "B", a0)
        assert len(got.beliefs.nodes) == 11
        assert got.desires == ag.desires
        graph_side = pg.induce_program(got, pl.EMPTY_LIBRARY)
        model_side = dynamics.contract(m, "P", a0)
        assert graph_side.plausibility == model_side.plausibility


class TestFilterIntentions:
    def test_consistent_set_unchanged(self):
        m = running_model()
        assert dynamics.filter_intentions(m, running_library()) == m

    def test_achieved_goal_is_dropped(self):
        m = running_model()
        lib = running_library()
        # announcing the post-condition makes it believed, hence inadmissible
        announced = dynamics.announce(m, P)
        got = dynamics.filter_intentions(announced, lib)
        assert got.intentions == frozenset()
        assert pl.check_p_consistency(got, lib) is None

    def test_empty_model_propagates_checker_error(self):
        m = running_model().restrict(0)
        with pytest.raises(checker.EmptyModelError):
            dynamics.filter_intentions(m, running_library())


class TestReviseDrop:
    def test_trivial_revision(self):
        ag = running_program()
        lib = running_library()
        got = dynamics.revise_drop(ag, TOP, lib)
        m = pg.induce_program(got, lib)
        before = pg.induce_program(ag, lib)
        # believing T changes nothing; the intention survives re-filtering
        assert got.intentions == frozenset({"alpha"})
        assert checker.holds(m, lib, fm.Bel(Q, TOP))
        assert models_isomorphic(
            m, dynamics.filter_intentions(
                dynamics.upgrade(
                    dynamics.contract(before, "D", fm.Not(TOP)), "P", TOP),
                lib))

    def test_drops_intentions_against_the_news(self):
        # the agent desires ~q, has a plan for it, then comes to believe q
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "T", "post": "~q"}]})
        ag = pg.AgentProgram(
            ("p", "q"), (), pg.make_graph([]),
            pg.make_graph([fm.Not(Q)]), frozenset({"alpha"}))
        before = pg.induce_program(ag, lib)
        assert checker.holds(before, lib, fm.AdmInt(fm.Not(Q), TOP))
        got = dynamics.revise_drop(ag, Q, lib)
        assert got.intentions == frozenset()
        after = pg.induce_program(got, lib)
        assert checker.holds(after, lib, fm.Bel(Q, TOP))
        assert not checker.holds(after, lib, fm.AdmInt(fm.Not(Q), TOP))

    def test_empty_intentions_stay_empty(self):
        ag = pg.AgentProgram(("p", "q"), (), pg.make_graph([Q]),
                             pg.make_graph([P]), frozenset())
        got = dynamics.revise_drop(ag, P, running_library())
        assert got.intentions == frozenset()

    def test_never_extracts(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("revise_drop extracted a graph")

        monkeypatch.setattr(pg, "extract_graph", forbidden)
        got = dynamics.revise_drop(ranked_program(6), fm.Atom("a1"), pl.EMPTY_LIBRARY)
        assert len(got.desires.nodes) == len(ranked_program(6).desires.nodes)

    def test_commutes_with_model_level_composition(self):
        rng = random.Random(23)
        lib = running_library()
        for _ in range(50):
            ag = generators.random_program(rng)
            phi = generators.random_prop(rng, ag.atoms, 1)
            graph_side = pg.induce_program(
                dynamics.revise_drop(ag, phi, lib), lib,
                check_intentions=False)
            m = pg.induce_program(ag, lib, check_intentions=False)
            model_side = dynamics.filter_intentions(
                dynamics.upgrade(
                    dynamics.contract(m, "D", fm.Not(phi)), "P", phi),
                lib)
            assert models_isomorphic(graph_side, model_side)
