import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

import generators
import oracles
import strategies as gen
from common import ranked_program, world_mask, world_set

P, Q = fm.Atom("p"), fm.Atom("q")


def two_atom_world_set():
    """All four pq valuations as valuation-mask ids (p=bit0, q=bit1), as
    the world mask and the valuation masks."""
    return 0b1111, {"p": 0b1010, "q": 0b1100}


def nesting_depth(f) -> int:
    children = [getattr(f, k) for k in ("child", "left", "right") if hasattr(f, k)]
    return 1 + max(map(nesting_depth, children), default=0)


def running_library():
    return pl.load_library(
        {"plans": [{"name": "alpha", "pre": "T", "post": "p"}]})


def running_program():
    return pg.AgentProgram(
        atoms=("p", "q"),
        knowledge=(),
        beliefs=pg.make_graph([Q]),
        desires=pg.make_graph([P, Q], [(P, Q)]),
        intentions=frozenset({"alpha"}),
    )


class TestInducedOrder:
    def test_two_node_chain(self):
        worlds, valuation = two_atom_world_set()
        g = pg.make_graph([P, Q], [(P, Q)])
        got = pg.induced_order(g, worlds, valuation)
        # oracle: apply the lexicographic condition to all 16 pairs
        expected = oracles.induced(
            world_set(worlds), [frozenset({1, 3}), frozenset({2, 3})], [(0, 1)])
        assert got.pairs == expected
        # 11 < 10 < 01 < 00 in pq bits is ids 3 < 1 < 2 < 0
        strict = got.strict_pairs()
        assert strict == frozenset(
            {(3, 1), (3, 2), (3, 0), (1, 2), (1, 0), (2, 0)})

    def test_empty_graph_is_total(self):
        worlds, valuation = two_atom_world_set()
        got = pg.induced_order(pg.make_graph([]), worlds, valuation)
        assert got.pairs == frozenset((w, u) for w in range(4) for u in range(4))

    def test_single_node_two_zones(self):
        worlds, valuation = two_atom_world_set()
        got = pg.induced_order(pg.make_graph([P]), worlds, valuation)
        expected = oracles.induced(world_set(worlds), [frozenset({1, 3})], [])
        assert got.pairs == expected
        p_zone, rest = {1, 3}, {0, 2}
        for w in p_zone:
            for u in rest:
                assert got.lt(w, u)
        for w in rest:
            for u in rest:
                assert got.le(w, u)

    def test_non_propositional_node_rejected(self):
        with pytest.raises(pg.GraphError):
            pg.make_graph([fm.A(P)])

    @settings(max_examples=100)
    @given(st.lists(gen.prop_formulas(("p", "q", "r", "s"), max_depth=3),
                    min_size=1, max_size=10).flatmap(lambda pool: st.lists(
                        st.sampled_from([fm.render(f) for f in pool]), max_size=40)))
    def test_fresh_formulas_from_a_generator(self, texts):
        # Dropped duplicates are freed at once, so a later formula may get
        # the id of one already rendered; the render table must not mistake
        # it for that one.
        expected = pg.make_graph([fm.parse(t) for t in texts])
        assert pg.make_graph(fm.parse(t) for t in texts) == expected

    @settings(max_examples=200)
    @given(gen.priority_graphs(max_nodes=5), gen.priority_graphs(max_nodes=3),
           st.lists(gen.prop_formulas(max_depth=2), max_size=2))
    def test_strict_rows_match_the_oracle_under_knowledge(self, beliefs, desires,
                                                          knowledge):
        # Preorder equality reads down rows only, so the strict rows, which
        # induction derives from the tie classes, are checked on their own.
        atoms = gen.ATOMS

        def true_atoms(w):
            return {a for i, a in enumerate(atoms) if w >> i & 1}

        worlds = frozenset(w for w in range(2 ** len(atoms)) if all(
            oracles.holds_at(k, true_atoms(w)) for k in knowledge))
        assume(worlds)
        m = pg.induce_program(pg.AgentProgram(atoms, tuple(knowledge), beliefs,
                                              desires, frozenset()), pl.EMPTY_LIBRARY)
        assert world_set(m.worlds) == worlds
        for g, order in ((beliefs, m.plausibility), (desires, m.desirability)):
            exts = [frozenset(w for w in worlds if oracles.holds_at(n, true_atoms(w)))
                    for n in g.nodes]
            expected = oracles.induced(worlds, exts, g.prec)
            assert order.pairs == expected
            assert order.strict_pairs() == oracles.strict(expected)

    @settings(max_examples=250)
    @given(gen.priority_graphs(names=("p", "q")))
    def test_induced_order_is_preorder(self, g):
        worlds, valuation = two_atom_world_set()
        assert pg.induced_order(g, worlds, valuation).validate() is None

    @settings(max_examples=150)
    @given(gen.priority_graphs(names=("p", "q"), max_nodes=3))
    def test_adding_unordered_node_keeps_agreeing_pairs(self, g):
        worlds, valuation = two_atom_world_set()
        before = pg.induced_order(g, worlds, valuation)
        new_node = fm.Or(P, fm.Not(Q))
        bigger = pg.PriorityGraph(
            g.nodes + (new_node,) if new_node not in g.nodes else g.nodes,
            g.prec)
        after = pg.induced_order(bigger, worlds, valuation)
        sat = world_set(md.satisfying_worlds(new_node, worlds, valuation))
        added = after.strict_pairs() - before.strict_pairs()
        assert not any((w in sat) == (u in sat) for (w, u) in added)


class TestExtractGraph:
    def test_identity_order_two_worlds(self):
        worlds = world_mask({0, 3})
        valuation = {"p": 0b1000, "q": 0b1000}
        ident = md.Preorder.identity(worlds)
        m = md.AgentModel(("p", "q"), worlds, ident, ident, valuation)
        g = pg.extract_graph(m, "P")
        assert g.prec == frozenset()
        assert set(g.nodes) == {
            fm.parse("~p & ~q"), fm.parse("p & q")}
        assert pg.induced_order(g, worlds, valuation) == ident

    def test_two_world_chain(self):
        worlds = world_mask({3, 1})
        valuation = {"p": 0b1010, "q": 0b1000}
        order = md.Preorder.from_pairs(worlds, [(3, 1)])
        m = md.AgentModel(("p", "q"), worlds, md.Preorder.identity(worlds),
                          order, valuation)
        g = pg.extract_graph(m, "D")
        # two tie classes: one rank-bit node, holding the better world pq
        assert g.nodes == (fm.parse("p & q"),)
        assert g.prec == frozenset()
        assert pg.induced_order(g, worlds, valuation) == order

    def test_single_world(self):
        worlds = 0b10
        valuation = {"p": 0b10}
        ident = md.Preorder.identity(worlds)
        m = md.AgentModel(("p",), worlds, ident, ident, valuation)
        g = pg.extract_graph(m, "P")
        # one tie class needs no node at all
        assert g == pg.PriorityGraph((), frozenset())
        assert pg.induced_order(g, worlds, valuation) == ident

    @pytest.mark.parametrize("atoms, worlds, nodes", [
        ((), {0}, 0),  # one tie class
        (("p",), {0, 1}, 2),  # two incomparable worlds: the antichain
    ])
    def test_no_atom_and_one_atom_models(self, atoms, worlds, nodes):
        valuation = {a: world_mask(w for w in worlds if w >> i & 1)
                     for i, a in enumerate(atoms)}
        worlds = world_mask(worlds)
        ident = md.Preorder.identity(worlds)
        m = md.AgentModel(atoms, worlds, ident, ident, valuation)
        g = pg.extract_graph(m, "P")
        assert len(g.nodes) == nodes
        assert pg.induced_order(g, worlds, valuation) == ident

    def test_non_injective_valuation_rejected(self):
        worlds = 0b11
        valuation = {"p": 0}
        ident = md.Preorder.identity(worlds)
        m = md.AgentModel(("p",), worlds, ident, ident, valuation)
        with pytest.raises(pg.GraphError, match="injective"):
            pg.extract_graph(m, "P")

    def test_nodes_match_down_set_minterms(self):
        rng = random.Random(7)
        for _ in range(300):
            names = rng.sample(["b", "a", "d", "c", "e"], k=rng.randint(0, 5))
            codes = rng.sample(range(2 ** len(names)),
                               k=rng.randint(1, min(6, 2 ** len(names))))
            worlds = rng.sample(range(20), k=len(codes))
            true_at = {w: {a for i, a in enumerate(names) if c >> i & 1}
                       for w, c in zip(worlds, codes)}
            valuation = {a: world_mask(w for w in worlds if a in true_at[w])
                         for a in names}
            edges = [(rng.choice(worlds), rng.choice(worlds))
                     for _ in range(rng.randint(0, 2 * len(worlds)))]
            pairs = oracles.closure(worlds, edges)
            order = md.Preorder.from_pairs(world_mask(worlds), edges)
            m = md.AgentModel(tuple(names), world_mask(worlds), order,
                              md.Preorder.identity(world_mask(worlds)), valuation)
            if all((w, u) in pairs or (u, w) in pairs
                   for w in worlds for u in worlds):
                # total: a rank-bit chain instead (see TestRankBits)
                classes = len({frozenset(u for u in worlds if (u, w) in pairs)
                               for w in worlds})
                g = pg.extract_graph(m, "P")
                n_bits = math.ceil(math.log2(classes)) if classes > 1 else 0
                assert len(g.nodes) == n_bits
                assert g.prec == ranked_chain(n_bits)
                assert pg.induced_order(g, m.worlds, m.valuation) == order
                continue
            # expected nodes: the minterms of each distinct down-set that is
            # not the intersection of the strictly larger down-sets (every
            # world when there are none), in the order of the worlds'
            # valuation strings over the declared atoms
            bits = {w: "".join("1" if a in true_at[w] else "0" for a in names)
                    for w in worlds}
            downs = {w: frozenset(u for u in worlds if (u, w) in pairs)
                     for w in worlds}
            minterms = []
            for w in sorted(worlds, key=bits.get):
                meet = frozenset(worlds).intersection(
                    *(d for d in downs.values() if d > downs[w]))
                below = {frozenset(true_at[u]) for u in downs[w]}
                if meet != downs[w] and below not in minterms:
                    minterms.append(below)
            g = pg.extract_graph(m, "P")
            assert g.prec == frozenset()
            assert len(g.nodes) == len(minterms)
            for node, below in zip(g.nodes, minterms):
                assert nesting_depth(node) <= 2 * len(names) + 2
                for code in range(2 ** len(names)):
                    true = {a for i, a in enumerate(names) if code >> i & 1}
                    assert oracles.holds_at(node, true) == (true in below)

    @settings(max_examples=200)
    @given(gen.agent_models(), gen.order_tags())
    def test_non_total_orders_extract_as_irreducible_down_sets(self, m, tag):
        pairs = m.order(tag).pairs
        worlds = sorted(world_set(m.worlds))
        assume(any((w, u) not in pairs and (u, w) not in pairs
                   for w in worlds for u in worlds))
        g = pg.extract_graph(m, tag)
        assert g.prec == frozenset()
        true_at = {w: {a for i, a in enumerate(m.atoms) if w >> i & 1}
                   for w in worlds}
        exts = [frozenset(w for w in worlds if oracles.holds_at(n, true_at[w]))
                for n in g.nodes]
        assert oracles.induced(worlds, exts, []) == pairs
        # each node is a down-set other than the intersection of the
        # strictly larger down-sets, taken as every world when none is
        downs = {frozenset(u for u in worlds if (u, w) in pairs) for w in worlds}
        irreducible = {d for d in downs
                       if d != frozenset(worlds).intersection(
                           *(e for e in downs if e > d))}
        assert set(exts) == irreducible and len(exts) == len(irreducible)
        for i in range(len(exts)):
            assert oracles.induced(worlds, exts[:i] + exts[i + 1:], []) != pairs

    def test_more_atoms_than_the_cap_rejected(self):
        atoms = tuple(f"a{i}" for i in range(md.MAX_PROGRAM_ATOMS + 1))
        worlds = 0b11
        valuation = {a: 0b10 for a in atoms}
        ident = md.Preorder.identity(worlds)
        m = md.AgentModel(atoms, worlds, ident, ident, valuation)
        with pytest.raises(pg.GraphError, match="at most"):
            pg.extract_graph(m, "P")

    def test_round_trip_fuzz(self):
        rng = random.Random(42)
        for _ in range(300):
            m = generators.random_injective_model(rng)
            g = pg.extract_graph(m, "P")
            assert pg.induced_order(g, m.worlds, m.valuation) == m.plausibility


def ranked_chain(n: int) -> frozenset:
    return frozenset((i, j) for i in range(n) for j in range(i + 1, n))


class TestRankBits:
    """Total preorders extract as ranked rank-bit graphs."""

    @staticmethod
    def total_model(rng, n_atoms, classes):
        """Worlds with distinct valuations over n_atoms, in `classes`
        nonempty tie classes. Returns the model, each world's class value
        (best class = classes - 1) and each world's true atoms."""
        names = [f"x{i}" for i in range(n_atoms)]
        size = rng.randint(classes, 2 ** n_atoms) if classes else 0
        worlds = rng.sample(range(3 * 2 ** n_atoms), k=size)
        codes = rng.sample(range(2 ** n_atoms), k=size)
        rank = list(range(classes)) + [rng.randrange(classes)
                                       for _ in range(size - classes)]
        rng.shuffle(rank)
        value = {w: classes - 1 - r for w, r in zip(worlds, rank)}
        valuation = {a: world_mask(w for w, c in zip(worlds, codes) if c >> i & 1)
                     for i, a in enumerate(names)}
        pairs = [(w, u) for w in worlds for u in worlds if value[w] >= value[u]]
        order = md.Preorder.from_pairs(world_mask(worlds), pairs)
        ident = md.Preorder.identity(world_mask(worlds))
        true_at = {w: {a for i, a in enumerate(names) if c >> i & 1}
                   for w, c in zip(worlds, codes)}
        return md.AgentModel(tuple(names), world_mask(worlds), order, ident,
                             valuation), value, true_at

    @pytest.mark.parametrize("classes", [0, 1, 2, 3, 4, 5, 7, 8, 11])
    def test_random_total_orders(self, classes):
        rng = random.Random(1000 + classes)
        for _ in range(30):
            n_atoms = rng.randint(max(1, (classes - 1).bit_length()), 5)
            m, value, true_at = self.total_model(rng, n_atoms, classes)
            g = pg.extract_graph(m, "P")
            bits = math.ceil(math.log2(classes)) if classes > 1 else 0
            assert len(g.nodes) == bits
            assert g.prec == ranked_chain(bits)
            # node i (most significant first) holds exactly the worlds
            # whose class value has that bit set
            for i, node in enumerate(g.nodes):
                bit = bits - 1 - i
                for w, true in true_at.items():
                    assert oracles.holds_at(node, true) == bool(value[w] >> bit & 1)
            assert pg.induced_order(g, m.worlds, m.valuation) == m.plausibility

    def test_all_worlds_distinct(self):
        rng = random.Random(5)
        for n_atoms in range(1, 7):
            worlds = list(range(2 ** n_atoms))
            rng.shuffle(worlds)
            order = md.Preorder.from_pairs(world_mask(worlds), zip(worlds, worlds[1:]))
            valuation = {f"x{i}": world_mask(w for w in worlds if w >> i & 1)
                         for i in range(n_atoms)}
            m = md.AgentModel(tuple(valuation), world_mask(worlds), order,
                              order, valuation)
            g = pg.extract_graph(m, "P")
            assert len(g.nodes) == n_atoms
            assert g.prec == ranked_chain(n_atoms)
            assert pg.induced_order(g, m.worlds, m.valuation) == order

    @pytest.mark.parametrize("n", [1, 3, 6, 9, 12])
    def test_ranked_program_extracts_its_own_atoms(self, n):
        ag = ranked_program(n)
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        beliefs = pg.extract_graph(m, "P")
        assert [fm.render(f) for f in beliefs.nodes] == [f"a{i}" for i in range(n)]
        assert beliefs.prec == ranked_chain(n)
        for tag in ("P", "D"):
            g = pg.extract_graph(m, tag)
            assert pg.induced_order(g, m.worlds, m.valuation) == m.order(tag)

    def test_nine_atom_graphs_re_induce(self):
        ag = pg.load_program({
            "atoms": [f"a{i}" for i in range(9)],
            "B": {"nodes": ["a0", "a1 | a2", "a3 & a4"], "edges": [[0, 1]]},
            "D": {"nodes": ["a5 & a6", "a7 | a8"], "ranks": [0, 1]},
        })
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        for tag, edges in (("P", frozenset()), ("D", ranked_chain(2))):
            g = pg.extract_graph(m, tag)
            assert g.prec == edges  # the belief order is not total
            assert pg.induced_order(g, m.worlds, m.valuation) == m.order(tag)


class TestInduceProgram:
    def test_knowledge_filters_worlds(self):
        ag = pg.AgentProgram(("p", "q"), (fm.parse("p | q"),),
                             pg.make_graph([]), pg.make_graph([]), frozenset())
        m = pg.induce_program(ag, pl.EMPTY_LIBRARY)
        assert world_set(m.worlds) == {1, 2, 3}

    def test_inconsistent_knowledge(self):
        ag = pg.AgentProgram(("p",), (fm.parse("p"), fm.parse("~p")),
                             pg.make_graph([]), pg.make_graph([]), frozenset())
        with pytest.raises(pg.ProgramError) as exc:
            pg.induce_program(ag, pl.EMPTY_LIBRARY)
        assert exc.value.reason == "inconsistent-knowledge"

    def test_running_example_accepted(self):
        m = pg.induce_program(running_program(), running_library())
        assert m.worlds == 0b1111
        assert m.intentions == frozenset({"alpha"})
        # plausibility: q-worlds below the rest, ties inside zones
        assert world_set(m.plausibility.min_set(m.worlds)) == {2, 3}
        # desirability: the 11 world is the unique minimum of the chain
        assert world_set(m.desirability.min_set(m.worlds)) == {3}

    def test_unknown_plan_symbol(self):
        ag = pg.AgentProgram(("p",), (), pg.make_graph([]), pg.make_graph([]),
                             frozenset({"ghost"}))
        with pytest.raises(pg.ProgramError) as exc:
            pg.induce_program(ag, running_library())
        assert exc.value.reason == "unknown-plan"

    def test_p_inconsistent_intentions_rejected(self):
        # believing q already makes a post-condition of q inadmissible
        lib = pl.load_library(
            {"plans": [{"name": "alpha", "pre": "T", "post": "q"}]})
        ag = pg.AgentProgram(("p", "q"), (), pg.make_graph([Q]),
                             pg.make_graph([Q]), frozenset({"alpha"}))
        with pytest.raises(pg.ProgramError) as exc:
            pg.induce_program(ag, lib)
        assert exc.value.reason == "p-inconsistent-intentions"
        assert "alpha" in exc.value.detail
        assert "postcondition-not-admissible" in exc.value.detail


class TestProgramDocuments:
    DOC = {
        "atoms": ["p", "q"],
        "K": [],
        "B": {"nodes": ["q"], "edges": []},
        "D": {"nodes": ["p", "q"], "ranks": [0, 1]},
        "I": ["alpha"],
    }

    def test_load_running_example(self):
        ag = pg.load_program(self.DOC)
        assert ag == running_program()

    def test_ranks_compile_to_priority_pairs(self):
        g = pg.load_graph({"nodes": ["p", "q", "r"], "ranks": [0, 0, 1]}, "D")
        assert g.nodes == (P, Q, fm.Atom("r"))
        assert g.prec == frozenset({(0, 2), (1, 2)})

    def test_edges_form(self):
        g = pg.load_graph({"nodes": ["p", "q"], "edges": [[0, 1]]}, "B")
        assert g.prec == frozenset({(0, 1)})

    def test_edges_are_closed_index_pairs(self):
        g = pg.load_graph({"nodes": ["p", "q", "r", "p"],
                           "edges": [[0, 1], [1, 2], [3, 2]]}, "B")
        # the repeated p is dropped, and its edge lands on the first copy
        assert g.nodes == (P, Q, fm.Atom("r"))
        assert g.prec == frozenset({(0, 1), (1, 2), (0, 2)})
        assert pg.dump_graph(g)["edges"] == [[0, 1], [0, 2], [1, 2]]

    def test_priority_cycle_rejected(self):
        with pytest.raises(pg.ProgramError):
            pg.load_graph({"nodes": ["p", "q"], "edges": [[0, 1], [1, 0]]}, "B")

    def test_undeclared_atom_rejected(self):
        doc = dict(self.DOC, K=["r"])
        with pytest.raises(pg.ProgramError):
            pg.load_program(doc)

    def test_inconsistent_knowledge_rejected_on_load(self):
        doc = dict(self.DOC, K=["p", "~p"])
        with pytest.raises(pg.ProgramError) as exc:
            pg.load_program(doc)
        assert exc.value.reason == "inconsistent-knowledge"

    def test_dump_round_trips(self):
        ag = pg.load_program(self.DOC)
        assert pg.load_program(pg.dump_program(ag)) == ag
