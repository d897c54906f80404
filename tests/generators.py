"""Seeded plain-random generators for counted fuzz sweeps.

The hypothesis strategies drive shrinking-friendly property tests; these
generators drive the counted acceptance sweeps and the stress script, where
an exact number of deterministic instances matters more than shrinking.
models_isomorphic compares the models those sweeps build two ways.
"""

import dataclasses
import random

from mindcheck import dynamics
from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg
from mindcheck import plans as pl

from common import world_mask, world_set

ATOMS = ("p", "q", "r", "s")


def random_prop(rng: random.Random, atoms, depth=2) -> fm.Formula:
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            return fm.Atom(rng.choice(atoms))
        return fm.Top() if roll < 0.9 else fm.Bottom()
    kind = rng.choice(("not", "and", "or", "implies"))
    if kind == "not":
        return fm.Not(random_prop(rng, atoms, depth - 1))
    left = random_prop(rng, atoms, depth - 1)
    right = random_prop(rng, atoms, depth - 1)
    ctor = {"and": fm.And, "or": fm.Or, "implies": fm.Implies}[kind]
    return ctor(left, right)


def random_preorder(rng: random.Random, worlds) -> md.Preorder:
    worlds = sorted(worlds)
    edges = [
        (rng.choice(worlds), rng.choice(worlds))
        for _ in range(rng.randint(0, 2 * len(worlds)))
    ]
    return md.Preorder.from_pairs(world_mask(worlds), edges)


def random_chain(rng: random.Random, worlds) -> md.Preorder:
    """A random total order; its minima are singletons."""
    order = sorted(worlds)
    rng.shuffle(order)
    pairs = [
        (order[i], order[j])
        for i in range(len(order)) for j in range(i, len(order))
    ]
    return md.Preorder.from_pairs(world_mask(worlds), pairs)


def _mixed_order(rng: random.Random, worlds) -> md.Preorder:
    # chains give small minima, which mental attitudes are sensitive to
    if rng.random() < 0.5:
        return random_chain(rng, worlds)
    return random_preorder(rng, worlds)


def random_model(rng: random.Random, n_atoms=2, min_worlds=1,
                 intentions=frozenset()) -> md.AgentModel:
    """Worlds are a nonempty sample of valuation masks over the atom set."""
    atoms = ATOMS[:n_atoms]
    universe = range(2 ** n_atoms)
    ids = rng.sample(list(universe), k=rng.randint(min_worlds, 2 ** n_atoms))
    valuation = {
        a: world_mask(w for w in ids if w >> i & 1)
        for i, a in enumerate(atoms)
    }
    return md.AgentModel(
        atoms, world_mask(ids), _mixed_order(rng, ids),
        _mixed_order(rng, ids), valuation, frozenset(intentions))


def random_injective_model(rng: random.Random, max_worlds=5) -> md.AgentModel:
    """Random plausibility preorder over worlds with pairwise distinct
    valuations; desirability is the identity."""
    atoms = ATOMS[:3]
    ids = rng.sample(range(8), k=rng.randint(1, max_worlds))
    worlds = world_mask(ids)
    valuation = {
        a: world_mask(w for w in ids if w >> i & 1)
        for i, a in enumerate(atoms)
    }
    order = random_preorder(rng, ids)
    return md.AgentModel(atoms, worlds, order, md.Preorder.from_pairs(worlds, []),
                         valuation)


def random_graph(rng: random.Random, atoms, max_nodes=4) -> pg.PriorityGraph:
    nodes = []
    for _ in range(rng.randint(0, max_nodes)):
        n = random_prop(rng, atoms, depth=rng.randint(0, 2))
        if n not in nodes:
            nodes.append(n)
    prec = [
        (nodes[i], nodes[j])
        for i in range(len(nodes)) for j in range(i + 1, len(nodes))
        if rng.random() < 0.4
    ]
    return pg.make_graph(nodes, prec)


def random_library(rng: random.Random, atoms) -> pl.PlanLibrary:
    plans = {}
    for name in ("alpha", "beta", "gamma")[: rng.randint(1, 3)]:
        pre = fm.Top() if rng.random() < 0.6 else random_prop(rng, atoms, 1)
        atom = fm.Atom(rng.choice(atoms))
        post = atom if rng.random() < 0.7 else fm.Not(atom)
        plans[name] = pl.make_plan(name, pre, post)
    return pl.PlanLibrary(plans)


def random_program(rng: random.Random, n_atoms=2,
                   max_knowledge=1) -> pg.AgentProgram:
    """A consistent-knowledge program with empty intentions."""
    atoms = ATOMS[:n_atoms]
    empty = pg.PriorityGraph((), frozenset())
    while True:
        knowledge = tuple(
            random_prop(rng, atoms, depth=1)
            for _ in range(rng.randint(0, max_knowledge))
        )
        if pg.AgentProgram(atoms, knowledge, empty, empty, frozenset()).universe[0]:
            break
    return pg.AgentProgram(
        atoms, knowledge, random_graph(rng, atoms), random_graph(rng, atoms),
        frozenset())


def adopt_admissible_intentions(rng: random.Random, m, lib):
    """A random P-consistent intention set for m, possibly empty."""
    every_plan = dataclasses.replace(m, intentions=frozenset(lib.plans))
    admissible = dynamics.filter_intentions(every_plan, lib).intentions
    chosen = frozenset(n for n in sorted(admissible) if rng.random() < 0.8)
    return dataclasses.replace(m, intentions=chosen)


def models_isomorphic(a: md.AgentModel, b: md.AgentModel) -> bool:
    """Valuation-keyed bijection preserving both orders and intentions."""
    if a.atoms != b.atoms:
        return False
    amap = {bits: w for w, bits in a.bits_by_world.items()}
    bmap = {bits: w for w, bits in b.bits_by_world.items()}
    if len(amap) != len(a.bits_by_world) or len(bmap) != len(b.bits_by_world):
        return False  # not injective, bijection by valuation undefined
    if amap.keys() != bmap.keys():
        return False
    sigma = {amap[bits]: bmap[bits] for bits in amap}

    def image(worlds):
        return world_mask(map(sigma.__getitem__, world_set(worlds)))

    # class maps are canonical, so the orders agree exactly when a's
    # classes and rows, carried through sigma, are b's
    return a.intentions == b.intentions and all(
        {image(row): image(tie) for row, tie in order_a.classes.items()} == order_b.classes
        for order_a, order_b in ((a.plausibility, b.plausibility),
                                 (a.desirability, b.desirability)))
