"""The worked running example shared across test modules.

Two atoms p, q; empty knowledge; beliefs prioritize q; desires prioritize p
over q; one adopted plan alpha with trivial precondition achieving p.
World ids are valuation masks: p is bit 0, q is bit 1.

Also the ranked and Pareto n-atom programs of the scale sweep, the
converters between the engine's world masks (bit w for world w) and the
frozensets of ids that tests/oracles.py works on, and pairs_of, which reads
an order's class map as the pair set the oracles take.
"""

import re

from mindcheck import formulas as fm
from mindcheck import pgraph as pg
from mindcheck import plans as pl

P, Q = fm.Atom("p"), fm.Atom("q")

PROGRAM_DOC = {
    "atoms": ["p", "q"],
    "K": [],
    "B": {"nodes": ["q"], "edges": []},
    "D": {"nodes": ["p", "q"], "ranks": [0, 1]},
    "I": ["alpha"],
}

LIBRARY_DOC = {"plans": [{"name": "alpha", "pre": "T", "post": "p"}]}


def world_set(mask: int) -> frozenset:
    """The ids of a world mask, as the oracles take world sets; found in
    its binary text, so far-flung ids cost one pass in C, not in Python."""
    return frozenset(m.start() for m in re.finditer("1", format(mask, "b")[::-1]))


def world_mask(ids) -> int:
    """The world mask of some ids, as the engine takes world sets."""
    return sum(1 << w for w in set(ids))


def pairs_of(order) -> frozenset:
    """The pairs (w, u), read w <= u, of an order's class map."""
    return frozenset((w, u) for row, tie in order.classes.items()
                     for u in world_set(tie) for w in world_set(row))


def assert_class_map(order, le):
    """order stores the closed pair set le as its class map: every class
    is non-empty, the classes are pairwise disjoint and cover the carrier,
    each lies inside its row, and each member's down-set and strict
    down-set in le are the row and the row less the class."""
    carrier = world_set(order.carrier)
    covered = 0
    for row, tie in order.classes.items():
        assert tie and not tie & covered and not tie & ~row
        covered |= tie
        for u in (w for w in carrier if tie >> w & 1):
            down = {w for w in carrier if (w, u) in le}
            assert row == world_mask(down)
            assert row & ~tie == world_mask(w for w in down if (u, w) not in le)
    assert covered == order.carrier


def running_library():
    return pl.load_library(LIBRARY_DOC)


def running_program():
    return pg.load_program(PROGRAM_DOC)


def running_model():
    return pg.induce_program(running_program(), running_library())


def ranked_program(n: int):
    """Atoms a0 ... a(n-1), no knowledge, no intentions. The beliefs rank
    every atom, a0 highest; the desires rank a0|a1, a1|a2, a2|a3 likewise."""
    atoms = [f"a{i}" for i in range(n)]
    desires = [f"a{i} | a{i + 1}" for i in range(min(3, n - 1))]
    return pg.load_program({
        "atoms": atoms,
        "B": {"nodes": atoms, "ranks": list(range(n))},
        "D": {"nodes": desires, "ranks": list(range(len(desires)))},
    })


def few_node_program(n: int):
    """Atoms a0 ... a(n-1), no knowledge, no intentions. The beliefs rank
    a0 then a1; the desires have the one node a0|a1."""
    atoms = [f"a{i}" for i in range(n)]
    return pg.load_program({
        "atoms": atoms,
        "B": {"nodes": atoms[:2], "ranks": [0, 1]},
        "D": {"nodes": ["a0 | a1"], "ranks": [0]},
    })


def pareto_program(n: int):
    """Atoms a0 ... a(n-1), no knowledge, no intentions. Every atom is a
    belief node and no edge orders them, so the belief order is the
    non-total Pareto order on the atoms; the desires have the one node
    a0|a1."""
    atoms = [f"a{i}" for i in range(n)]
    return pg.load_program({
        "atoms": atoms,
        "B": {"nodes": atoms, "edges": []},
        "D": {"nodes": [" | ".join(atoms[:2])], "ranks": [0]},
    })
