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
from mindcheck import plans as pl

import oracles
import strategies as gen
from common import assert_class_map, ranked_program, world_mask, world_set


def chain(*ids):
    """Total order with ids[0] at the bottom."""
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i, len(ids))]
    return md.Preorder.from_pairs(world_mask(ids), pairs)


def rows_order(worlds, pairs):
    """The order on the id set worlds whose rows hold pairs as they are,
    closed or not: u's down row holds each w with (w, u), and the worlds
    with equal down rows are grouped into one class."""
    pairs = set(pairs)
    classes = {}
    for u in worlds:
        row = sum(1 << w for w in worlds if (w, u) in pairs)
        classes[row] = classes.get(row, 0) | 1 << u
    return md.Preorder(world_mask(worlds), classes)


def full_two_atom_model():
    """All four pq valuations (id bits: p=1, q=2), identity orders."""
    worlds = 0b1111
    valuation = {"p": 0b1010, "q": 0b1100}
    ident = md.Preorder.identity(worlds)
    return md.AgentModel(("p", "q"), worlds, ident, ident, valuation)


class TestStrictPart:
    def test_identity_order_has_empty_strict_part(self):
        o = md.Preorder.identity(0b11)
        assert o.strict_pairs() == frozenset()

    def test_linear_chain(self):
        o = chain(0, 1, 2)
        assert o.strict_pairs() == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_two_world_cluster(self):
        o = md.Preorder.from_pairs(0b11, [(0, 1), (1, 0)])
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
        assert world_set(o.min_set(world_mask({1, 2}))) == {1}

    def test_empty_subset(self):
        assert chain(0, 1).min_set(0) == 0

    def test_identity_order_everything_minimal(self):
        o = md.Preorder.identity(0b11)
        assert o.min_set(0b11) == 0b11

    def test_world_outside_carrier(self):
        with pytest.raises(md.ModelError, match=r"\[5\]"):
            chain(0, 1).min_set(world_mask({0, 5}))

    @settings(max_examples=200)
    @given(gen.preorders())
    def test_matches_definition(self, o):
        import random
        rng = random.Random(0)
        members = sorted(world_set(o.carrier))
        s = frozenset(rng.sample(members, k=rng.randint(0, len(members))))
        got = o.min_set(world_mask(s))
        assert world_set(got) == oracles.min_of(o.pairs, s)
        assert got >= 0 and not got & ~world_mask(s)
        assert (got == 0) == (s == frozenset())


class TestValidate:
    def test_closure_is_valid(self):
        o = md.Preorder.from_pairs(0b111, [(0, 1), (1, 2)])
        assert o.validate() is None

    def test_missing_reflexive_pair(self):
        o = rows_order({0, 1}, [(0, 0)])
        v = o.validate()
        assert v is not None and v.kind == "reflexivity" and v.witness == (1,)

    def test_missing_transitive_pair(self):
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
        o = rows_order({0, 1, 2}, pairs)
        v = o.validate()
        assert v is not None and v.kind == "transitivity"
        assert v.witness == (0, 1, 2)

    @settings(max_examples=200)
    @given(gen.preorders())
    def test_fuzzed_closures_valid(self, o):
        assert o.validate() is None

    @settings(max_examples=300)
    @given(st.deferred(lambda: relations()), st.sampled_from(["drawn", "reflexive", "closed"]))
    def test_unclosed_rows_against_their_pair_set(self, rel, kind):
        """None exactly on a reflexive pair set equal to its closure, else
        a witness that the pair set really violates."""
        worlds, pairs = rel
        if kind == "reflexive":
            pairs = pairs + [(w, w) for w in worlds]
        elif kind == "closed":
            pairs = warshall(worlds, pairs)
        pairs = set(pairs)
        v = rows_order(worlds, pairs).validate()
        reflexive = all((w, w) in pairs for w in worlds)
        assert (v is None) == (reflexive and warshall(worlds, pairs) == pairs)
        if v is not None and v.kind == "reflexivity":
            (w,) = v.witness
            assert w in worlds and (w, w) not in pairs
        elif v is not None:
            w, u, x = v.witness
            assert reflexive
            assert (w, u) in pairs and (u, x) in pairs and (w, x) not in pairs


class TestRestrict:
    def test_keep_everything_is_identity(self):
        m = full_two_atom_model()
        assert m.restrict(m.worlds) == m

    def test_keep_nothing_gives_empty_model(self):
        m = full_two_atom_model().restrict(0)
        assert m.worlds == 0
        assert m.plausibility.carrier == 0

    def test_restrict_to_q_worlds(self):
        m = full_two_atom_model()
        keep = md.satisfying_worlds(fm.Atom("q"), m.worlds, m.valuation)
        got = m.restrict(keep)
        assert world_set(got.worlds) == {2, 3}
        expected_pairs = oracles.announce_pairs(
            world_set(m.worlds), m.plausibility.pairs, world_set(keep))
        assert got.plausibility.pairs == expected_pairs
        assert {a: world_set(ws) for a, ws in got.valuation.items()} == {
            "p": {3}, "q": {2, 3}}

    def test_keep_outside_the_model(self):
        with pytest.raises(md.ModelError, match=r"\[4\]"):
            full_two_atom_model().restrict(0b10001)

    @settings(max_examples=150)
    @given(gen.agent_models())
    def test_preserves_preorder_validity(self, m):
        import random
        rng = random.Random(1)
        members = sorted(world_set(m.worlds))
        keep = world_mask(rng.sample(members, k=rng.randint(0, len(members))))
        got = m.restrict(keep)
        assert got.plausibility.validate() is None
        assert got.desirability.validate() is None
        for a in got.atoms:
            assert not got.valuation[a] & ~keep


class TestSatisfyingWorlds:
    def test_connectives(self):
        m = full_two_atom_model()
        cases = {
            "p": {1, 3}, "~p": {0, 2}, "p & q": {3}, "p | q": {1, 2, 3},
            "p -> q": {0, 2, 3}, "T": {0, 1, 2, 3}, "F": set(),
        }
        for text, expected in cases.items():
            got = md.satisfying_worlds(fm.parse(text), m.worlds, m.valuation)
            assert world_set(got) == expected, text

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

    def test_true_atoms_are_listed_by_name(self):
        doc = dict(self.DOC, atoms=["q", "p", "r"], worlds=[
            {"id": 0, "true_atoms": ["r", "q"]}, {"id": 1, "true_atoms": ["p", "r", "q"]},
            {"id": 2, "true_atoms": []}, {"id": 3, "true_atoms": ["p"]}])
        got = md.dump_model(md.load_model(doc))["worlds"]
        assert got == [{"id": 2, "true_atoms": []}, {"id": 3, "true_atoms": ["p"]},
                       {"id": 0, "true_atoms": ["q", "r"]},
                       {"id": 1, "true_atoms": ["p", "q", "r"]}]

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

    def test_highest_world_id_is_below_the_program_cap(self):
        top = (1 << md.MAX_PROGRAM_ATOMS) - 1
        doc = dict(self.DOC, worlds=[{"id": 0, "true_atoms": []},
                                     {"id": top, "true_atoms": ["p"]}],
                   plausibility=[[top, 0]], desirability=[])
        m = md.load_model(doc)
        assert m.worlds == 1 | 1 << top and m.plausibility.lt(top, 0)
        for w in (top + 1, 2 * 10 ** 9, 4 * 10 ** 10):
            doc["worlds"][1]["id"] = w
            with pytest.raises(md.ModelError, match=f"world id {w} is not below"):
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
        worlds = world_set(m.worlds)
        for field, order in (("plausibility", m.plausibility),
                             ("desirability", m.desirability)):
            closed = order.pairs
            assert doc[field] == canonical_reduction(worlds, closed)
            emitted = [tuple(p) for p in doc[field]]
            assert warshall(worlds, emitted) == closed
            for pair in emitted:
                others = [q for q in emitted if q != pair]
                assert pair not in warshall(worlds, others)
        truth = {a: world_set(ws) for a, ws in m.valuation.items()}
        bits = {w: "".join("1" if w in truth[a] else "0" for a in m.atoms)
                for w in worlds}
        assert [wd["id"] for wd in doc["worlds"]] == sorted(
            worlds, key=lambda w: (bits[w], w))


# ---------------------------------------------------------------------------
# Bit-row construction against pair-level definitions. World ids are drawn
# with gaps so the rows meet sparse carriers; each reference is written
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
    valuation = {a: world_mask(draw(st.sets(st.sampled_from(ids))))
                 for a in ("p", "q", "r")}
    carrier = world_mask(worlds)
    return md.AgentModel(
        ("p", "q", "r"), carrier, md.Preorder.from_pairs(carrier, p_pairs),
        md.Preorder.from_pairs(carrier, d_pairs), valuation)


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
        got = md.Preorder.from_pairs(world_mask(worlds), pairs).pairs
        assert got == warshall(worlds, pairs)

    @pytest.mark.parametrize("ids", [[], [3], [0, 1, 2], [0, 64, 1_000]])
    def test_identity_and_total_rows(self, ids):
        full = world_mask(ids)
        for order, le in ((md.Preorder.identity(full), {(w, w) for w in ids}),
                          (md.Preorder.total(full), {(w, u) for w in ids for u in ids})):
            assert order.carrier == full and order.pairs == le
            assert dict(order.down_rows(strict=True)) == dict.fromkeys(ids, 0)
            assert order.validate() is None
            assert_class_map(order, le)
        assert dict(md.Preorder.total(full).down_rows()) == dict.fromkeys(ids, full)

    def test_long_chain_closes_without_recursion(self):
        n = 3000
        o = md.Preorder.from_pairs((1 << n) - 1, [(i, i + 1) for i in range(n - 1)])
        assert o.down_rows()[n - 1] == (1 << n) - 1
        assert o.down_rows(strict=True)[0] == 0

    @settings(max_examples=300)
    @given(relations(), st.randoms(use_true_random=False))
    def test_down_sets_match_pairwise_definitions(self, rel, rng):
        worlds, pairs = rel
        o = md.Preorder.from_pairs(world_mask(worlds), pairs)
        le = warshall(worlds, pairs)
        keep = frozenset(rng.sample(sorted(worlds), k=rng.randint(0, len(worlds))))
        restricted = o.restrict(world_mask(keep))
        # restriction drops the classes it empties and never merges two
        assert sorted(restricted.classes.values()) == sorted(
            tie & world_mask(keep) for tie in o.classes.values() if tie & world_mask(keep))
        for order, carrier in ((o, worlds), (restricted, keep)):
            assert_class_map(order, le)
            down, strict = order.down_rows(), order.down_rows(strict=True)
            for w in carrier:
                assert row_members(down[w], carrier) == {u for u in carrier if (u, w) in le}
                assert row_members(strict[w], carrier) == {
                    u for u in carrier if (u, w) in le and (w, u) not in le}

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_upgrade_matches_pair_definition(self, m, phi, tag):
        sat = world_set(md.satisfying_worlds(phi, m.worlds, m.valuation))
        old = m.order(tag).pairs
        worlds = world_set(m.worlds)
        expected = frozenset(
            (w, u) for w in worlds for u in worlds
            if (w in sat and u not in sat)
            or ((w, u) in old and not (w not in sat and u in sat)))
        assert dynamics.upgrade(m, tag, phi).order(tag).pairs == expected

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_contract_matches_pair_definition(self, m, phi, tag):
        old = m.order(tag).pairs
        worlds = world_set(m.worlds)
        counter = worlds - world_set(md.satisfying_worlds(phi, m.worlds, m.valuation))
        promoted = minimal(old, counter)
        bottom = minimal(old, worlds) | promoted
        expected = frozenset(
            (w, u) for w in worlds for u in worlds
            if w in bottom or ((w, u) in old and u not in promoted))
        assert dynamics.contract(m, tag, phi).order(tag).pairs == expected

    @settings(max_examples=200)
    @given(sparse_models(), gen.priority_graphs())
    def test_induced_order_matches_pair_definition(self, m, g):
        sat = [world_set(md.satisfying_worlds(n, m.worlds, m.valuation))
               for n in g.nodes]
        nodes = range(len(g.nodes))

        def le(w, u):
            return all(
                u not in sat[phi] or w in sat[phi]
                or any((psi, phi) in g.prec and w in sat[psi] and u not in sat[psi]
                       for psi in nodes)
                for phi in nodes)

        worlds = world_set(m.worlds)
        expected = frozenset((w, u) for w in worlds for u in worlds if le(w, u))
        got = pg.induced_order(g, m.worlds, m.valuation)
        assert got.pairs == expected
        assert_class_map(got, expected)


# ---------------------------------------------------------------------------
# The tracer's up-row shim, the rows of rewritten orders, and the closure,
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


def assert_shim_mirrors_down_rows(order):
    """The _up shim of a closed order is its down rows' transpose."""
    up = order._up
    down = order.down_rows()
    assert set(down) == set(up) == world_set(order.carrier)
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
    """A carrier with arbitrary rows inside it (not closed)."""
    worlds = draw(carriers())
    ids = sorted(worlds)
    up = {}
    for w in ids:
        picked = draw(st.sets(st.sampled_from(ids))) if ids else set()
        up[w] = sum(1 << u for u in picked)
    return worlds, up


def random_rows(ids, rng):
    return {w: sum(1 << u for u in ids if rng.random() < 0.4) for w in ids}


def closed_from_rows(worlds, up):
    """The closure of the pairs (w, u) for each bit u of up[w]."""
    return md.Preorder.from_pairs(
        world_mask(worlds),
        [(w, u) for w, row in up.items() for u in row_members(row, worlds)])


class TestTranspose:
    """The shim on closed orders over dense, gapped and far-flung ids."""

    @settings(max_examples=300)
    @given(row_sets())
    def test_shim_is_the_pair_set_mirror(self, rows):
        worlds, up = rows
        assert_shim_mirrors_down_rows(closed_from_rows(worlds, up))

    @pytest.mark.parametrize("span", [1, 7, 8, 9, 63, 64, 65, 255, 256, 257])
    @pytest.mark.parametrize("shape", ["dense", "gapped", "ends"])
    def test_id_spans_around_powers_of_two(self, span, shape):
        rng = random.Random(span)
        ids = {"dense": range(span),
               "gapped": sorted(set(range(0, span, 3)) | {span - 1}),
               "ends": sorted({0, span - 1})}[shape]
        worlds = frozenset(ids)
        assert_shim_mirrors_down_rows(
            closed_from_rows(worlds, random_rows(sorted(worlds), rng)))

    def test_empty_carrier(self):
        o = md.Preorder.from_pairs(0, [])
        assert dict(o.down_rows()) == {} and dict(o.down_rows(strict=True)) == {}
        assert o._up == {}

    @pytest.mark.parametrize("w", [0, 5, 64, 1_000_000])
    def test_single_world(self, w):
        o = md.Preorder.from_pairs(1 << w, [])
        assert dict(o.down_rows()) == {w: 1 << w}
        assert dict(o.down_rows(strict=True)) == {w: 0}

    def test_far_flung_ids(self):
        o = md.Preorder.from_pairs(1 | 1 << 1_000_000, [(0, 1_000_000)])
        assert dict(o.down_rows()) == {0: 1, 1_000_000: 1 | 1 << 1_000_000}
        assert o._up == {0: 1 | 1 << 1_000_000, 1_000_000: 1 << 1_000_000}


class TestDownOnlyRewrites:
    """Upgrade and contraction build their class maps from the old ones
    alone."""

    @settings(max_examples=300)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags(), st.booleans())
    def test_match_their_pair_definitions(self, m, phi, tag, is_upgrade):
        old = m.order(tag)
        worlds = world_set(m.worlds)
        sat = world_set(md.satisfying_worlds(phi, m.worlds, m.valuation))
        if is_upgrade:
            got = dynamics.upgrade(m, tag, phi).order(tag)
            expected = oracles.upgrade_pairs(worlds, old.pairs, sat)
            # upgrade splits each class at the phi zone and never merges two
            top = world_mask(sat)
            assert sorted(got.classes.values()) == sorted(
                part for tie in old.classes.values() for part in (tie & top, tie & ~top)
                if part)
        else:
            got = dynamics.contract(m, tag, phi).order(tag)
            expected = oracles.contract_pairs(worlds, old.pairs, worlds - sat)
        assert got.pairs == expected
        assert got.strict_pairs() == oracles.strict(expected)
        assert got.reduction_pairs() == canonical_reduction(worlds, expected)
        assert_class_map(got, expected)


def shuffled_ids(n, seed):
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return ids


def chain_shape(ids):
    """ids[0] at the bottom, each id covered by the next."""
    return list(zip(ids, ids[1:]))


def tree_shape(ids, k):
    """A k-ary tree with ids[0] at the bottom: ids[i] covers its parent."""
    return [(ids[(i - 1) // k], ids[i]) for i in range(1, len(ids))]


def weak_shape(ids, k):
    """k tie classes stacked in a chain: the ids dealt round robin into
    the classes, so every class spreads over the whole id range."""
    classes = [ids[c::k] for c in range(k)]
    pairs = [(c[i], c[(i + 1) % len(c)]) for c in classes for i in range(len(c))]
    return pairs + [(lo[-1], hi[0]) for lo, hi in zip(classes, classes[1:])]


def lex_shape(ids, k):
    """The lexicographic product of a chain with an antichain of k: a
    world is below every world of a higher block, and blocks hold k
    incomparable worlds."""
    blocks = [ids[i:i + k] for i in range(0, len(ids), k)]
    return [(w, u) for lo, hi in zip(blocks, blocks[1:]) for w in lo for u in hi]


class TestReductionShapes:
    """reduction_pairs against the pair-set reduction on orders whose
    linear extension is far from id order; at 4 096 worlds, against the
    generating covers."""

    SHAPES = {
        "chain": chain_shape,
        "tree2": lambda ids: tree_shape(ids, 2),
        "tree3": lambda ids: tree_shape(ids, 3),
        "weak4": lambda ids: weak_shape(ids, 4),
        "one-class": lambda ids: weak_shape(ids, 1),
        "lex3": lambda ids: lex_shape(ids, 3),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_small_shapes_match_the_pair_set_reduction(self, shape, seed):
        ids = shuffled_ids(60, seed)
        order = md.Preorder.from_pairs(world_mask(ids), self.SHAPES[shape](ids))
        assert order.reduction_pairs() == canonical_reduction(ids, order.pairs)

    @pytest.mark.parametrize("shape", ["chain", "tree2", "tree3"])
    def test_4096_world_covers_are_the_generating_pairs(self, shape):
        ids = shuffled_ids(4096, 7)
        covers = self.SHAPES[shape](ids)
        order = md.Preorder.from_pairs(world_mask(ids), covers)
        assert order.reduction_pairs() == sorted(map(list, covers))

    def test_4096_world_weak_order(self):
        ids = shuffled_ids(4096, 7)
        order = md.Preorder.from_pairs(world_mask(ids), weak_shape(ids, 64))
        got = order.reduction_pairs()
        classes = [sorted(ids[c::64]) for c in range(64)]
        cycles = [[c[i], c[(i + 1) % 64]] for c in classes for i in range(64)]
        links = [[lo[0], hi[0]] for lo, hi in zip(classes, classes[1:])]
        assert got == sorted(cycles + links)


class TestMirroredRows:
    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_upgrade_down_rows_mirror_the_shim(self, m, phi, tag):
        assert_shim_mirrors_down_rows(dynamics.upgrade(m, tag, phi).order(tag))

    @settings(max_examples=200)
    @given(sparse_models(), gen.prop_formulas(), gen.order_tags())
    def test_contract_down_rows_mirror_the_shim(self, m, phi, tag):
        assert_shim_mirrors_down_rows(dynamics.contract(m, tag, phi).order(tag))

    @settings(max_examples=100)
    @given(sparse_models(), st.lists(st.tuples(st.booleans(), gen.prop_formulas(),
                                               gen.order_tags()), max_size=4))
    def test_rewritten_orders_stay_mirrored(self, m, steps):
        for is_upgrade, phi, tag in steps:
            m = (dynamics.upgrade if is_upgrade else dynamics.contract)(m, tag, phi)
        for tag in ("P", "D"):
            o = m.order(tag)
            assert_shim_mirrors_down_rows(o)
            worlds = world_set(m.worlds)
            strict = {u: row_members(r, worlds)
                      for u, r in o.down_rows(strict=True).items()}
            pairs = o.pairs
            assert strict == {
                u: {w for w in worlds if (w, u) in pairs and (u, w) not in pairs}
                for u in worlds}


class TestClosureOfClosedInputs:
    @settings(max_examples=200)
    @given(relations())
    def test_closed_pairs_close_to_themselves(self, rel):
        worlds, pairs = rel
        closed = warshall(worlds, pairs)
        assert md.Preorder.from_pairs(world_mask(worlds), closed).pairs == closed

    @pytest.mark.parametrize("block", [1, 4, 16])
    def test_fully_closed_layered_order(self, block):
        # Worlds in layers of `block` ties, each layer below every later one.
        worlds = frozenset(range(128))
        closed = frozenset((w, u) for w in worlds for u in worlds
                           if u // block >= w // block)
        o = md.Preorder.from_pairs(world_mask(worlds), closed)
        assert o.pairs == closed
        assert_shim_mirrors_down_rows(o)


# ---------------------------------------------------------------------------
# Loading: documents close to class maps, read through the per-world views.

@st.composite
def generator_documents(draw):
    """Model documents with random generator pairs (cycles are common)
    over dense, gapped and far-flung world ids, the last up to the highest
    id a document may use."""
    kind = draw(st.sampled_from(["dense", "gapped", "sparse"]))
    if kind == "dense":
        worlds = range(draw(st.integers(0, 20)))
    elif kind == "gapped":
        worlds = draw(st.sets(st.integers(0, 300), max_size=20))
    else:
        worlds = draw(st.sets(st.sampled_from(
            [0, 1, 2, 63, 64, 65, 4096, 65_534, 65_535]), min_size=1))
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
    return [(m.order(tag), warshall(world_set(m.worlds), map(tuple, doc[field])))
            for tag, field in (("P", "plausibility"), ("D", "desirability"))]


class TestDownFirstLoad:
    @settings(max_examples=150)
    @given(generator_documents())
    def test_rows_match_the_warshall_closure(self, doc):
        for order, closed in closed_orders(doc):
            ids = world_set(order.carrier)
            assert {u: row_members(r, ids) for u, r in order.down_rows().items()} == {
                u: {w for w in ids if (w, u) in closed} for u in ids}
            assert {u: row_members(r, ids)
                    for u, r in order.down_rows(strict=True).items()} == {
                u: {w for w in ids if (w, u) in closed and (u, w) not in closed}
                for u in ids}
            assert {w: row_members(r, ids) for w, r in order._up.items()} == {
                w: {u for u in ids if (w, u) in closed} for w in ids}

    @settings(max_examples=150)
    @given(generator_documents(), st.randoms(use_true_random=False))
    def test_restrict_keeps_the_closure_inside_keep(self, doc, rng):
        for order, closed in closed_orders(doc):
            ids = sorted(world_set(order.carrier))
            keep = frozenset(rng.sample(ids, k=rng.randint(0, len(ids))))
            inside = {(w, u) for w, u in closed if w in keep and u in keep}
            got = order.restrict(world_mask(keep))
            assert got.pairs == inside
            assert got.strict_pairs() == oracles.strict(inside)
            assert world_set(got.carrier) == keep and set(got.down_rows()) == keep

    @settings(max_examples=150)
    @given(generator_documents())
    def test_equals_the_order_built_from_closed_rows(self, doc):
        for order, closed in closed_orders(doc):
            built = rows_order(world_set(order.carrier), closed)
            assert order == built and built == order
            assert hash(order) == hash(built)
            assert dict(order.down_rows(strict=True)) == dict(built.down_rows(strict=True))


@st.composite
def valued_documents(draw):
    """Well-formed model documents over three atoms: world entries in any
    order, up to the highest id a document may use, each with its true
    atoms in any order, and relations whose pairs come unsorted, with
    duplicates and self-pairs."""
    ids = draw(st.lists(st.integers(0, 700) | st.sampled_from([65_528, 65_534, 65_535]),
                        unique=True, max_size=16))
    atoms = ["p", "q", "r"]
    worlds = [{"id": w, "true_atoms": draw(st.permutations(
        draw(st.lists(st.sampled_from(atoms), unique=True))))} for w in ids]
    for entry in worlds:
        if not entry["true_atoms"] and draw(st.booleans()):
            del entry["true_atoms"]  # an entry may leave its true atoms out

    def relation():
        if not ids:
            return []
        pairs = draw(st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=2),
                              max_size=3 * len(ids)))
        pairs += [[w, w] for w in draw(st.lists(st.sampled_from(ids), max_size=3))]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        return draw(st.permutations(pairs))

    return {"atoms": atoms, "worlds": worlds, "plausibility": relation(),
            "desirability": relation()}


class TestOnePassLoad:
    """load_model reads each field in one checked pass; it must build what
    Preorder.from_pairs and per-atom id sets build from the same document."""

    @settings(max_examples=200)
    @given(valued_documents())
    def test_equals_from_pairs_and_atom_sets(self, doc):
        m = md.load_model(doc)
        worlds = world_mask(e["id"] for e in doc["worlds"])
        assert m.worlds == worlds
        assert m.valuation == {a: world_mask(e["id"] for e in doc["worlds"]
                                             if a in e.get("true_atoms", []))
                               for a in doc["atoms"]}
        for tag, field in (("P", "plausibility"), ("D", "desirability")):
            pairs = [tuple(p) for p in doc[field]]
            assert m.order(tag) == md.Preorder.from_pairs(worlds, pairs)
            assert m.order(tag).pairs == warshall(world_set(worlds), pairs)

    @pytest.mark.parametrize("pair", [[9, 0], [0, 9], [65_535, 1], [2**70, 1], [-1, 2]])
    def test_either_end_off_the_carrier(self, pair):
        doc = dict(TestModelDocuments.DOC, desirability=[[1, 2], pair, [3, 3]])
        with pytest.raises(md.ModelError, match=rf"^relation pair \({pair[0]},{pair[1]}\) leaves"):
            md.load_model(doc)


class TestFaultPrecedence:
    """A document with two faults reports the one in the earlier field, and
    within one relation a malformed pair before a pair off the carrier."""

    DOC = TestModelDocuments.DOC

    @pytest.mark.parametrize("changes, message", [
        # a world fault and a relation fault
        ({"worlds": [{"id": 0}, {"id": 0}], "plausibility": [[0, "1"]]},
         "duplicate world id 0"),
        ({"worlds": [{"id": 0, "true_atoms": ["z"]}], "desirability": [[0, 9]]},
         "world 0 lists unknown atom 'z'"),
        # a plausibility fault and a desirability fault
        ({"plausibility": [[0, 9]], "desirability": [[0, True]]},
         r"relation pair \(0,9\) leaves the carrier"),
        ({"plausibility": [[0, 1, 2]], "desirability": "01"},
         r"plausibility pair \[0, 1, 2\] is not two world ids"),
        ({"plausibility": [[1, 0]], "desirability": [[-1, 0]],
          "intentions": [1]}, r"relation pair \(-1,0\) leaves the carrier"),
        # a carrier fault before a shape fault in one relation
        ({"plausibility": [[0, 9], [1, 2], [0, 1.0], [7, 7]]},
         r"plausibility pair \[0, 1.0\] is not two world ids"),
        ({"plausibility": [[-1, 0], [True, 0]]},
         r"plausibility pair \[True, 0\] is not two world ids"),
        # two carrier faults, two shape faults: the first of each is named
        ({"desirability": [[1, 2], [5, 0], [0, 6]]},
         r"relation pair \(5,0\) leaves the carrier"),
        ({"desirability": [[1, 2], [0], [0, None]]},
         r"desirability pair \[0\] is not two world ids"),
    ])
    def test_which_fault_is_reported(self, changes, message):
        with pytest.raises(md.ModelError, match=f"^{message}$"):
            md.load_model(dict(self.DOC, **changes))


class TestRepr:
    def test_ranked_twelve_atom_order_repr_is_short(self):
        order = pg.induce_program(ranked_program(12), pl.EMPTY_LIBRARY).plausibility
        assert len(order.classes) == 4096
        assert repr(order) == "Preorder(4096 worlds, 4096 classes)"


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CHAIN_MODEL = FIXTURES / "chain_model.json"


class TestShimTraffic:
    """No command reads up rows: only the benchmark's tracer reads the shim."""

    @pytest.fixture
    def shim_reads(self, monkeypatch):
        calls = []
        shim = md.Preorder._up.fget

        def recording_shim(order):
            calls.append(order)
            return shim(order)

        monkeypatch.setattr(md.Preorder, "_up", property(recording_shim))
        return calls

    @pytest.mark.parametrize("argv", [["eval", "--formula", "B(p)"], ["extract"]])
    def test_down_row_commands_never_read_the_shim(self, shim_reads, capsys, argv):
        assert cli.main([argv[0], "--model", str(CHAIN_MODEL), *argv[1:]]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert shim_reads == []

    def test_induce_never_reads_the_shim(self, shim_reads, capsys, tmp_path):
        out = tmp_path / "model.json"
        assert cli.main(["induce", "--program", str(FIXTURES / "running_program.json"),
                         "--library", str(FIXTURES / "running_library.json"),
                         "--out", str(out)]) == 0
        assert cli.main(["induce", "--program",
                         str(FIXTURES / "three_atom_program.json"), "--json"]) == 0
        assert capsys.readouterr().err == ""
        assert shim_reads == []

    def test_rewrites_and_dumps_never_read_the_shim(self, shim_reads, capsys, tmp_path):
        script = tmp_path / "rewrite.script"
        script.write_text("upgrade P p\ncontract D q\nupgrade D ~p\ncontract P p\n")
        out = tmp_path / "final.json"
        assert cli.main(["trace", "--model", str(CHAIN_MODEL), "--script", str(script),
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--model", str(CHAIN_MODEL),
                         "--formula", "[up_P p]([drop_D q](B(p) & G(q)))"]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert shim_reads == []
        assert md.load_model(json.loads(out.read_text())).worlds == 0b1111
