import json
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindcheck import cli, dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg

import oracles
import strategies as gen


def chain(*ids):
    """Total order with ids[0] at the bottom."""
    worlds = frozenset(ids)
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i, len(ids))]
    return md.Preorder.from_pairs(worlds, pairs, close=False)


def full_two_atom_model():
    """All four pq valuations (id bits: p=1, q=2), identity orders."""
    worlds = frozenset(range(4))
    valuation = {"p": frozenset({1, 3}), "q": frozenset({2, 3})}
    ident = md.Preorder.identity(worlds)
    return md.AgentModel(("p", "q"), worlds, ident, ident, valuation)


class TestStrictPart:
    def test_identity_order_has_empty_strict_part(self):
        o = md.Preorder.identity({0, 1})
        assert o.strict_pairs() == frozenset()

    def test_linear_chain(self):
        o = chain(0, 1, 2)
        assert o.strict_pairs() == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_two_world_cluster(self):
        o = md.Preorder.from_pairs({0, 1}, [(0, 1), (1, 0)])
        assert o.strict_pairs() == frozenset()

    @settings(max_examples=200)
    @given(gen.preorders())
    def test_strict_part_irreflexive_and_transitive(self, o):
        sp = o.strict_pairs()
        assert not any(w == u for (w, u) in sp)
        for (a, b) in sp:
            for (c, d) in sp:
                if b == c:
                    assert (a, d) in sp


class TestMinSet:
    def test_chain_example(self):
        # chain 11 < 10 < 01 < 00 in pq bits is ids 3 < 1 < 2 < 0
        o = chain(3, 1, 2, 0)
        expected = oracles.min_of(o.pairs, {1, 2})
        assert expected == frozenset({1})
        assert o.min_set({1, 2}) == frozenset({1})

    def test_empty_subset(self):
        assert chain(0, 1).min_set(frozenset()) == frozenset()

    def test_identity_order_everything_minimal(self):
        o = md.Preorder.identity({0, 1})
        assert o.min_set({0, 1}) == frozenset({0, 1})

    def test_world_outside_carrier(self):
        with pytest.raises(md.ModelError):
            chain(0, 1).min_set({0, 5})

    @settings(max_examples=200)
    @given(gen.preorders())
    def test_matches_definition(self, o):
        import random
        rng = random.Random(0)
        members = sorted(o.carrier)
        s = frozenset(rng.sample(members, k=rng.randint(0, len(members))))
        got = o.min_set(s)
        assert got == oracles.min_of(o.pairs, s)
        assert got <= s
        assert (got == frozenset()) == (s == frozenset())


class TestValidate:
    def test_closure_is_valid(self):
        o = md.Preorder.from_pairs({0, 1, 2}, [(0, 1), (1, 2)])
        assert o.validate() is None

    def test_missing_reflexive_pair(self):
        o = md.Preorder.from_pairs({0, 1}, [(0, 0)], close=False)
        v = o.validate()
        assert v is not None and v.kind == "reflexivity" and v.witness == (1,)

    def test_missing_transitive_pair(self):
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
        o = md.Preorder.from_pairs({0, 1, 2}, pairs, close=False)
        v = o.validate()
        assert v is not None and v.kind == "transitivity"
        assert v.witness == (0, 1, 2)

    @settings(max_examples=200)
    @given(gen.preorders())
    def test_fuzzed_closures_valid(self, o):
        assert o.validate() is None


class TestRestrict:
    def test_keep_everything_is_identity(self):
        m = full_two_atom_model()
        assert m.restrict(m.worlds) == m

    def test_keep_nothing_gives_empty_model(self):
        m = full_two_atom_model().restrict(frozenset())
        assert m.worlds == frozenset()
        assert m.plausibility.carrier == frozenset()

    def test_restrict_to_q_worlds(self):
        m = full_two_atom_model()
        keep = md.satisfying_worlds(fm.Atom("q"), m.worlds, m.valuation)
        got = m.restrict(keep)
        assert got.worlds == frozenset({2, 3})
        expected_pairs = oracles.announce_pairs(
            m.worlds, m.plausibility.pairs, keep)
        assert got.plausibility.pairs == expected_pairs
        assert got.valuation == {"p": frozenset({3}), "q": frozenset({2, 3})}

    @settings(max_examples=150)
    @given(gen.agent_models())
    def test_preserves_preorder_validity(self, m):
        import random
        rng = random.Random(1)
        members = sorted(m.worlds)
        keep = frozenset(rng.sample(members, k=rng.randint(0, len(members))))
        got = m.restrict(keep)
        assert got.plausibility.validate() is None
        assert got.desirability.validate() is None
        for a in got.atoms:
            assert got.valuation[a] <= keep


class TestSatisfyingWorlds:
    def test_connectives(self):
        m = full_two_atom_model()
        cases = {
            "p": {1, 3}, "~p": {0, 2}, "p & q": {3}, "p | q": {1, 2, 3},
            "p -> q": {0, 2, 3}, "T": {0, 1, 2, 3}, "F": set(),
        }
        for text, expected in cases.items():
            got = md.satisfying_worlds(fm.parse(text), m.worlds, m.valuation)
            assert got == frozenset(expected), text

    def test_unknown_atom(self):
        m = full_two_atom_model()
        with pytest.raises(md.UnknownAtomError):
            md.satisfying_worlds(fm.Atom("z"), m.worlds, m.valuation)

    def test_rejects_modal_formula(self):
        m = full_two_atom_model()
        with pytest.raises(md.ModelError):
            md.satisfying_worlds(fm.parse("A p"), m.worlds, m.valuation)


class TestModelDocuments:
    DOC = {
        "atoms": ["p", "q"],
        "worlds": [
            {"id": 0, "true_atoms": []},
            {"id": 1, "true_atoms": ["p"]},
            {"id": 2, "true_atoms": ["q"]},
            {"id": 3, "true_atoms": ["p", "q"]},
        ],
        "plausibility": [[3, 1], [1, 2], [2, 0]],
        "desirability": [],
        "intentions": ["alpha"],
    }

    def test_load_closes_generator_pairs(self):
        m = md.load_model(self.DOC)
        assert m.plausibility == chain(3, 1, 2, 0)
        assert m.desirability == md.Preorder.identity(m.worlds)
        assert m.intentions == frozenset({"alpha"})

    def test_round_trip(self):
        m = md.load_model(self.DOC)
        assert md.load_model(md.dump_model(m)) == m

    def test_dump_is_deterministic(self):
        a = md.dump_model(md.load_model(self.DOC))
        b = md.dump_model(md.load_model(self.DOC))
        assert a == b

    def test_duplicate_world_id(self):
        doc = dict(self.DOC, worlds=[{"id": 0, "true_atoms": []}] * 2)
        with pytest.raises(md.ModelError):
            md.load_model(doc)

    def test_unknown_atom_in_world(self):
        doc = dict(self.DOC, worlds=[{"id": 0, "true_atoms": ["z"]}])
        with pytest.raises(md.ModelError):
            md.load_model(doc)

    def test_relation_pair_outside_worlds(self):
        doc = dict(self.DOC, plausibility=[[0, 9]])
        with pytest.raises(md.ModelError):
            md.load_model(doc)

    @pytest.mark.parametrize("pairs", [
        [[0]], [[0, 1, 2]], [[0, "0"]], [[True, 0]], [[0, None]],
        [[0, 1.0]], [(0, 1)], [0], "01", None, {"0": 1},
    ])
    def test_malformed_relation_pairs(self, pairs):
        doc = dict(self.DOC, plausibility=pairs)
        with pytest.raises(md.ModelError, match="plausibility"):
            md.load_model(doc)

    def test_negative_world_id_in_pair(self):
        doc = dict(self.DOC, plausibility=[[0, -1]])
        with pytest.raises(md.ModelError, match="leaves the carrier"):
            md.load_model(doc)

    def test_malformed_pair_is_named(self):
        doc = dict(self.DOC, plausibility=[[3, 1], [0, "0"], [2, 0]])
        with pytest.raises(md.ModelError, match=r"\[0, '0'\]"):
            md.load_model(doc)

    @pytest.mark.parametrize("true_atoms", ["pq", "p", {"p": 1}, 1, [["p"]]])
    def test_malformed_true_atoms(self, true_atoms):
        doc = dict(self.DOC, worlds=[{"id": 0, "true_atoms": true_atoms}],
                   plausibility=[], desirability=[])
        with pytest.raises(md.ModelError):
            md.load_model(doc)

    @pytest.mark.parametrize("field, value", [
        ("worlds", [5]), ("worlds", [{"true_atoms": []}]), ("worlds", "01"),
        ("atoms", "pq"), ("atoms", ["p", 5]), ("intentions", "ab"),
        ("intentions", [1]), ("worlds", [{"id": True}]),
    ])
    def test_malformed_entries(self, field, value):
        doc = dict(self.DOC, **{field: value})
        with pytest.raises(md.ModelError, match=field if field != "worlds" else "world"):
            md.load_model(doc)

    @settings(max_examples=200)
    @given(st.deferred(lambda: sparse_models()))
    def test_dump_lists_pairs_in_order(self, m):
        """Each order is written as its canonical transitive reduction."""
        doc = md.dump_model(m)
        for field, order in (("plausibility", m.plausibility),
                             ("desirability", m.desirability)):
            closed = order.pairs
            assert doc[field] == canonical_reduction(m.worlds, closed)
            emitted = [tuple(p) for p in doc[field]]
            assert warshall(m.worlds, emitted) == closed
            for pair in emitted:
                others = [q for q in emitted if q != pair]
                assert pair not in warshall(m.worlds, others)
        bits = {w: "".join("1" if w in m.valuation[a] else "0" for a in m.atoms)
                for w in m.worlds}
        assert [wd["id"] for wd in doc["worlds"]] == sorted(
            m.worlds, key=lambda w: (bits[w], w))


# ---------------------------------------------------------------------------
# Bit-row construction against pair-level definitions. World ids are drawn
# with gaps so the transpose meets sparse carriers; each reference is written
# out here on plain pair sets.

@st.composite
def relations(draw, max_worlds=12):
    """Sparse world ids with a random pair list; cycles are common."""
    worlds = draw(st.sets(st.integers(0, 200), max_size=max_worlds))
    ids = sorted(worlds)
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=3 * len(ids))) if ids else []
    return frozenset(worlds), pairs


@st.composite
def sparse_models(draw):
    """Agent models over p, q, r with sparse ids and arbitrary valuations."""
    worlds, p_pairs = draw(relations())
    assume(worlds)
    ids = sorted(worlds)
    d_pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                            max_size=3 * len(ids)))
    valuation = {a: frozenset(draw(st.sets(st.sampled_from(ids))))
                 for a in ("p", "q", "r")}
    return md.AgentModel(
        ("p", "q", "r"), worlds, md.Preorder.from_pairs(worlds, p_pairs),
        md.Preorder.from_pairs(worlds, d_pairs), valuation)


def warshall(worlds, pairs):
    rel = set(pairs) | {(w, w) for w in worlds}
    for k in worlds:
        for i in worlds:
            if (i, k) in rel:
                rel |= {(i, j) for j in worlds if (k, j) in rel}
    return frozenset(rel)


def canonical_reduction(worlds, closed):
    """The documented reduction of a closed relation, on plain pair sets:
    each tie class c0 < ... < ck (k >= 1) as the cycle c0->c1->...->ck->c0,
    one pair [min C, min C'] per class C' covering class C, sorted."""
    tie = {w: frozenset(u for u in worlds if (w, u) in closed and (u, w) in closed)
           for w in worlds}
    classes = set(tie.values())
    out = set()
    for c in classes:
        ms = sorted(c)
        if len(ms) > 1:
            out |= set(zip(ms, ms[1:])) | {(ms[-1], ms[0])}

    def lt(c, d):
        return (min(c), min(d)) in closed and (min(d), min(c)) not in closed

    for c in classes:
        for d in classes:
            if lt(c, d) and not any(lt(c, e) and lt(e, d) for e in classes):
                out.add((min(c), min(d)))
    return sorted([w, u] for w, u in out)


def minimal(pairs, subset):
    return frozenset(w for w in subset if not any(
        (u, w) in pairs and (w, u) not in pairs for u in subset))


class TestRowConstruction:
    @settings(max_examples=300)
    @given(relations())
    def test_closure_matches_warshall(self, rel):
        worlds, pairs = rel
        assert md.Preorder.from_pairs(worlds, pairs).pairs == warshall(worlds, pairs)

    def test_long_chain_closes_without_recursion(self):
        n = 3000
        o = md.Preorder.from_pairs(range(n), [(i, i + 1) for i in range(n - 1)])
        assert o.below(n - 1) == frozenset(range(n))
        assert o.strictly_below(0) == frozenset()

    @settings(max_examples=300)
    @given(relations(), st.booleans(), st.randoms(use_true_random=False))
    def test_down_sets_match_pairwise_definitions(self, rel, close, rng):
        worlds, pairs = rel
        o = md.Preorder.from_pairs(worlds, pairs, close=close)
        keep = frozenset(rng.sample(sorted(worlds), k=rng.randint(0, len(worlds))))
        for order, carrier in ((o, worlds), (o.restrict(keep), keep)):
            le = order.pairs
            for w in carrier:
                assert order.below(w) == {u for u in carrier if (u, w) in le}
                assert order.strictly_below(w) == {
                    u for u in carrier if (u, w) in le and (w, u) not in le}

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_upgrade_matches_pair_definition(self, m, phi, tag):
        sat = md.satisfying_worlds(phi, m.worlds, m.valuation)
        old = m.order(tag).pairs
        expected = frozenset(
            (w, u) for w in m.worlds for u in m.worlds
            if (w in sat and u not in sat)
            or ((w, u) in old and not (w not in sat and u in sat)))
        assert dynamics.upgrade(m, tag, phi).order(tag).pairs == expected

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_contract_matches_pair_definition(self, m, phi, tag):
        old = m.order(tag).pairs
        counter = m.worlds - md.satisfying_worlds(phi, m.worlds, m.valuation)
        promoted = minimal(old, counter)
        bottom = minimal(old, m.worlds) | promoted
        expected = frozenset(
            (w, u) for w in m.worlds for u in m.worlds
            if w in bottom or ((w, u) in old and u not in promoted))
        assert dynamics.contract(m, tag, phi).order(tag).pairs == expected

    @settings(max_examples=200)
    @given(sparse_models(), gen.priority_graphs())
    def test_induced_order_matches_pair_definition(self, m, g):
        sat = [md.satisfying_worlds(n, m.worlds, m.valuation) for n in g.nodes]
        nodes = range(len(g.nodes))

        def le(w, u):
            return all(
                u not in sat[phi] or w in sat[phi]
                or any((psi, phi) in g.prec and w in sat[psi] and u not in sat[psi]
                       for psi in nodes)
                for phi in nodes)

        expected = frozenset(
            (w, u) for w in m.worlds for u in m.worlds if le(w, u))
        assert pg.induced_order(g, m.worlds, m.valuation).pairs == expected


# ---------------------------------------------------------------------------
# The transposer, the mirrored rows of rewritten orders, and the closure,
# each against a reference on plain pair sets.

def row_members(row, ids):
    """The ids whose bits are set in row; a bit outside ids fails."""
    members = {u for u in ids if row >> u & 1}
    assert row == sum(1 << u for u in members)
    return members


def transposed(up):
    """down[u] = {w | u in up[w]}, on plain sets."""
    down = {u: set() for u in up}
    for w, row in up.items():
        for u in row_members(row, up):
            down[u].add(w)
    return down


def assert_down_rows_transpose_up_rows(order):
    up = dict(order.up_rows())
    down = order.down_rows()
    assert set(down) == set(order.carrier)
    assert {u: row_members(r, up) for u, r in down.items()} == transposed(up)


@st.composite
def carriers(draw):
    """Dense, gapped and far-flung world ids."""
    kind = draw(st.sampled_from(["dense", "gapped", "sparse"]))
    if kind == "dense":
        return frozenset(range(draw(st.integers(0, 70))))
    if kind == "gapped":
        return frozenset(draw(st.sets(st.integers(0, 300), max_size=40)))
    return frozenset(draw(st.sets(st.sampled_from(
        [0, 1, 2, 63, 64, 65, 4096, 999_999, 1_000_000]), min_size=1)))


@st.composite
def row_sets(draw):
    """A carrier with arbitrary up rows inside it (not closed)."""
    worlds = draw(carriers())
    ids = sorted(worlds)
    up = {}
    for w in ids:
        picked = draw(st.sets(st.sampled_from(ids))) if ids else set()
        up[w] = sum(1 << u for u in picked)
    return worlds, up


def random_rows(ids, rng):
    return {w: sum(1 << u for u in ids if rng.random() < 0.4) for w in ids}


class TestTranspose:
    @settings(max_examples=300)
    @given(row_sets())
    def test_down_rows_are_the_pair_set_transpose(self, rows):
        worlds, up = rows
        assert_down_rows_transpose_up_rows(md.Preorder(worlds, up))

    @pytest.mark.parametrize("span", [1, 7, 8, 9, 63, 64, 65, 255, 256, 257])
    @pytest.mark.parametrize("shape", ["dense", "gapped", "ends"])
    def test_id_spans_around_powers_of_two(self, span, shape):
        rng = random.Random(span)
        ids = {"dense": range(span),
               "gapped": sorted(set(range(0, span, 3)) | {span - 1}),
               "ends": sorted({0, span - 1})}[shape]
        worlds = frozenset(ids)
        assert_down_rows_transpose_up_rows(
            md.Preorder(worlds, random_rows(sorted(worlds), rng)))

    def test_empty_carrier(self):
        o = md.Preorder(frozenset(), {})
        assert dict(o.down_rows()) == {} and dict(o.down_rows(strict=True)) == {}

    @pytest.mark.parametrize("w", [0, 5, 64, 1_000_000])
    def test_single_world(self, w):
        o = md.Preorder(frozenset({w}), {w: 1 << w})
        assert dict(o.down_rows()) == {w: 1 << w}
        assert dict(o.down_rows(strict=True)) == {w: 0}

    def test_far_flung_ids(self):
        worlds = frozenset({0, 1_000_000})
        up = {0: 1 | 1 << 1_000_000, 1_000_000: 1 << 1_000_000}
        o = md.Preorder(worlds, up)
        assert dict(o.down_rows()) == {0: 1, 1_000_000: 1 | 1 << 1_000_000}

    @pytest.mark.parametrize("span", [64, 65])
    def test_ids_on_either_side_of_the_cut_over(self, span):
        # 16 worlds: a span of 64 is transposed at the ids, 65 at the ranks.
        ids = sorted({0, 1, 2, 20, 21, 40} | set(range(span - 10, span)))
        assert_down_rows_transpose_up_rows(
            md.Preorder(frozenset(ids), random_rows(ids, random.Random(span))))

    def test_far_apart_worlds_keep_the_matrix_carrier_sized(self, monkeypatch):
        calls = []
        swap = md._swap

        def recording_swap(data, side):
            calls.append((len(data), side))
            return swap(data, side)

        monkeypatch.setattr(md, "_swap", recording_swap)
        ids = [k * 4096 for k in range(256)]
        o = md.Preorder(frozenset(ids), random_rows(ids, random.Random(1)))
        assert len(calls) == 1
        size, side = calls[0]
        assert side == 256 and size <= side * side // 8
        assert_down_rows_transpose_up_rows(o)


class TestDownOnlyRewrites:
    """Upgrade and contraction build down rows and strict down rows from
    the old down rows alone, and leave the up rows to their first read."""

    @settings(max_examples=300)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags(), st.booleans())
    def test_match_their_pair_definitions(self, m, phi, tag, is_upgrade):
        old = m.order(tag)
        sat = md.satisfying_worlds(phi, m.worlds, m.valuation)
        if is_upgrade:
            got = dynamics.upgrade(m, tag, phi).order(tag)
            expected = oracles.upgrade_pairs(m.worlds, old.pairs, sat)
        else:
            got = dynamics.contract(m, tag, phi).order(tag)
            expected = oracles.contract_pairs(m.worlds, old.pairs, m.worlds - sat)
        assert got.pairs == expected
        assert got.strict_pairs() == oracles.strict(expected)
        assert got.reduction_pairs() == canonical_reduction(m.worlds, expected)
        assert old._lazy_up is None and got._lazy_up is None


class TestMirroredRows:
    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_upgrade_down_rows_transpose_its_up_rows(self, m, phi, tag):
        assert_down_rows_transpose_up_rows(dynamics.upgrade(m, tag, phi).order(tag))

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_contract_down_rows_transpose_its_up_rows(self, m, phi, tag):
        assert_down_rows_transpose_up_rows(dynamics.contract(m, tag, phi).order(tag))

    @settings(max_examples=100)
    @given(sparse_models(), st.lists(st.tuples(st.booleans(), gen.prop_formulas(),
                                               gen.order_tags()), max_size=4))
    def test_rewritten_orders_stay_mirrored(self, m, steps):
        for is_upgrade, phi, tag in steps:
            m = (dynamics.upgrade if is_upgrade else dynamics.contract)(m, tag, phi)
        for tag in ("P", "D"):
            o = m.order(tag)
            assert_down_rows_transpose_up_rows(o)
            strict = {u: row_members(r, m.worlds)
                      for u, r in o.down_rows(strict=True).items()}
            pairs = o.pairs
            assert strict == {
                u: {w for w in m.worlds if (w, u) in pairs and (u, w) not in pairs}
                for u in m.worlds}


class TestClosureOfClosedInputs:
    @settings(max_examples=200)
    @given(relations())
    def test_closed_pairs_close_to_themselves(self, rel):
        worlds, pairs = rel
        closed = warshall(worlds, pairs)
        assert md.Preorder.from_pairs(worlds, closed).pairs == closed

    @pytest.mark.parametrize("block", [1, 4, 16])
    def test_fully_closed_layered_order(self, block):
        # Worlds in layers of `block` ties, each layer below every later one.
        worlds = frozenset(range(128))
        closed = frozenset((w, u) for w in worlds for u in worlds
                           if u // block >= w // block)
        o = md.Preorder.from_pairs(worlds, closed)
        assert o.pairs == closed
        assert_down_rows_transpose_up_rows(o)


# ---------------------------------------------------------------------------
# Down-first loading: documents close to down rows, and up rows are
# transposed only when read.

@st.composite
def generator_documents(draw):
    """Model documents with random generator pairs (cycles are common)
    over dense, gapped and far-flung world ids."""
    kind = draw(st.sampled_from(["dense", "gapped", "sparse"]))
    if kind == "dense":
        worlds = range(draw(st.integers(0, 20)))
    elif kind == "gapped":
        worlds = draw(st.sets(st.integers(0, 300), max_size=20))
    else:
        worlds = draw(st.sets(st.sampled_from(
            [0, 1, 2, 63, 64, 65, 4096, 999_999, 1_000_000]), min_size=1))
    ids = sorted(worlds)

    def generators():
        if not ids:
            return []
        return draw(st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=2),
                             max_size=2 * len(ids)))

    return {"atoms": ["p"], "worlds": [{"id": w, "true_atoms": []} for w in ids],
            "plausibility": generators(), "desirability": generators()}


def closed_orders(doc):
    """Each loaded order with its closed pair set from warshall."""
    m = md.load_model(doc)
    return [(m.order(tag), warshall(m.worlds, map(tuple, doc[field])))
            for tag, field in (("P", "plausibility"), ("D", "desirability"))]


class TestDownFirstLoad:
    @settings(max_examples=150)
    @given(generator_documents())
    def test_rows_match_the_warshall_closure(self, doc):
        for order, closed in closed_orders(doc):
            ids = order.carrier
            assert {u: row_members(r, ids) for u, r in order.down_rows().items()} == {
                u: {w for w in ids if (w, u) in closed} for u in ids}
            assert {u: row_members(r, ids)
                    for u, r in order.down_rows(strict=True).items()} == {
                u: {w for w in ids if (w, u) in closed and (u, w) not in closed}
                for u in ids}
            assert {w: row_members(r, ids) for w, r in order.up_rows().items()} == {
                w: {u for u in ids if (w, u) in closed} for w in ids}

    @settings(max_examples=150)
    @given(generator_documents(), st.randoms(use_true_random=False))
    def test_restrict_ignores_whether_up_rows_were_read(self, doc, rng):
        unread, read = closed_orders(doc), closed_orders(doc)
        for (a, closed), (b, _) in zip(unread, read):
            b.up_rows()
            keep = frozenset(rng.sample(sorted(a.carrier), k=rng.randint(0, len(a.carrier))))
            ra, rb = a.restrict(keep), b.restrict(keep)
            assert ra == rb
            assert dict(ra.down_rows()) == dict(rb.down_rows())
            assert dict(ra.down_rows(strict=True)) == dict(rb.down_rows(strict=True))
            assert dict(ra.up_rows()) == dict(rb.up_rows())
            assert ra.pairs == {(w, u) for w, u in closed if w in keep and u in keep}

    @settings(max_examples=150)
    @given(generator_documents())
    def test_equals_the_order_built_from_closed_up_rows(self, doc):
        for order, closed in closed_orders(doc):
            up = {w: sum(1 << u for u in order.carrier if (w, u) in closed)
                  for w in order.carrier}
            eager = md.Preorder(order.carrier, up)
            assert order == eager and eager == order
            assert hash(order) == hash(eager)
            assert order._lazy_up is None  # comparing read no up rows


CHAIN_MODEL = pathlib.Path(__file__).parent / "fixtures" / "chain_model.json"


class TestTransposeTraffic:
    """Which commands transpose: only code that reads up rows pays for one."""

    @pytest.fixture
    def transposed(self, monkeypatch):
        calls = []
        transpose = md._transpose

        def recording_transpose(carrier, rows):
            calls.append(dict(rows))
            return transpose(carrier, rows)

        monkeypatch.setattr(md, "_transpose", recording_transpose)
        return calls

    @pytest.mark.parametrize("argv", [["eval", "--formula", "B(p)"], ["extract"]])
    def test_down_row_commands_transpose_nothing(self, transposed, capsys, argv):
        assert cli.main([argv[0], "--model", str(CHAIN_MODEL), *argv[1:]]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert transposed == []

    def test_rewrites_and_dumps_transpose_nothing(self, transposed, capsys, tmp_path):
        script = tmp_path / "rewrite.script"
        script.write_text("upgrade P p\ncontract D q\nupgrade D ~p\ncontract P p\n")
        out = tmp_path / "final.json"
        assert cli.main(["trace", "--model", str(CHAIN_MODEL), "--script", str(script),
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--model", str(CHAIN_MODEL),
                         "--formula", "[up_P p]([drop_D q](B(p) & G(q)))"]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert transposed == []
        assert md.load_model(json.loads(out.read_text())).worlds == frozenset(range(4))
