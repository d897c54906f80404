"""Shared hypothesis strategies: formulas, preorders, models, graphs."""

from hypothesis import strategies as st

from mindcheck import formulas as fm
from mindcheck import models as md
from mindcheck import pgraph as pg

from common import world_mask

ATOMS = ("p", "q", "r")
PLANS = ("alpha", "beta")


def atoms(names=ATOMS):
    return st.sampled_from([fm.Atom(n) for n in names])


def prop_formulas(names=ATOMS, max_depth=3):
    base = st.one_of(atoms(names), st.just(fm.Top()), st.just(fm.Bottom()))
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(fm.Not, sub),
            st.builds(fm.And, sub, sub),
            st.builds(fm.Or, sub, sub),
            st.builds(fm.Implies, sub, sub),
        ),
        max_leaves=2 ** max_depth,
    )


def order_tags():
    return st.sampled_from(["P", "D"])


def formulas(names=ATOMS, plans=PLANS, max_depth=6):
    """Arbitrary ASTs of the full language, dynamic arguments propositional."""
    base = st.one_of(
        atoms(names), st.just(fm.Top()), st.just(fm.Bottom()),
        st.builds(fm.Intends, st.sampled_from(list(plans))),
    )
    props = prop_formulas(names, max_depth=2)

    def extend(sub):
        return st.one_of(
            st.builds(fm.Not, sub),
            st.builds(fm.And, sub, sub),
            st.builds(fm.Or, sub, sub),
            st.builds(fm.Implies, sub, sub),
            st.builds(fm.A, sub),
            st.builds(fm.E, sub),
            st.builds(fm.Box, order_tags(), st.booleans(), sub),
            st.builds(fm.Diamond, order_tags(), st.booleans(), sub),
            st.builds(fm.Mu, order_tags(), sub),
            st.builds(fm.Bel, sub, sub),
            st.builds(fm.Goal, sub, sub),
            st.builds(fm.AdmInt, sub, sub),
            st.builds(fm.Int, sub, sub),
            st.builds(fm.DynMod, st.just("announce"), st.none(), props, sub),
            st.builds(fm.DynMod, st.sampled_from(["upgrade", "contract"]),
                      order_tags(), props, sub),
            st.builds(fm.PlanMod, st.sampled_from(list(plans)), sub),
        )

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


@st.composite
def preorders(draw, min_worlds=1, max_worlds=6):
    """Reflexive-transitive closures of random edge sets; mostly non-total."""
    n = draw(st.integers(min_worlds, max_worlds))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    return md.Preorder.from_pairs((1 << n) - 1, edges)


@st.composite
def agent_models(draw, names=ATOMS, min_worlds=1, sparse=False):
    """Models whose worlds are valuation masks over a small atom set.

    With sparse, each world keeps its valuation but gets a distinct id
    drawn below 300 instead, so the world masks have gaps and high bits.
    """
    atom_names = tuple(draw(st.sampled_from([names[:1], names[:2], names[:3]])))
    universe = list(range(2 ** len(atom_names)))
    codes = sorted(draw(st.sets(st.sampled_from(universe), min_size=min_worlds)))
    ids = codes
    if sparse:
        ids = draw(st.lists(st.integers(0, 299), min_size=len(codes),
                            max_size=len(codes), unique=True))
    worlds = world_mask(ids)
    valuation = {
        a: world_mask(w for w, code in zip(ids, codes) if code >> i & 1)
        for i, a in enumerate(atom_names)
    }
    plaus = draw(_orders_on(ids))
    des = draw(_orders_on(ids))
    return md.AgentModel(atom_names, worlds, plaus, des, valuation)


def _orders_on(ids):
    return st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
        max_size=2 * len(ids),
    ).map(lambda edges: md.Preorder.from_pairs(world_mask(ids), edges))


@st.composite
def model_with_props(draw, count=1, max_depth=2, min_worlds=1):
    """An agent model plus propositional formulas over its own atoms."""
    m = draw(agent_models(min_worlds=min_worlds))
    props = tuple(
        draw(prop_formulas(m.atoms, max_depth=max_depth)) for _ in range(count)
    )
    return (m, *props)


@st.composite
def priority_graphs(draw, names=ATOMS, max_nodes=4):
    """Graphs with propositional nodes and a random strict partial order."""
    nodes = draw(st.lists(prop_formulas(names, max_depth=2),
                          max_size=max_nodes, unique=True))
    prec = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if draw(st.booleans()):
                prec.append((nodes[i], nodes[j]))  # earlier index outranks
    return pg.make_graph(nodes, prec)
