"""Mental-change operations on models and on agent programs.

Model level: public announcement (world deletion), radical upgrade (one
order reshuffled so the argument's worlds beat the rest), natural
contraction (the best counter-worlds promoted into the global minimum), and
product update (plan execution: restrict to the precondition, overwrite the
post-condition atoms).

Program level: each operation has a priority-graph counterpart whose induced
model matches the model-level result. Intentions are never dropped
implicitly; filter_intentions restores P-consistency on demand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from . import formulas as fm
from . import models as md
from . import pgraph as pg
from . import plans as pl


def announce(m: md.AgentModel, phi: fm.Formula) -> md.AgentModel:
    """Keep exactly the worlds satisfying phi; may produce an empty model."""
    keep = md.satisfying_worlds(phi, m.worlds, m.valuation)
    return m.restrict(keep)


def upgrade(m: md.AgentModel, target: str, phi: fm.Formula) -> md.AgentModel:
    """Make every phi-world better than every non-phi-world in one order.

    Within the phi zone and within the non-phi zone the order is untouched;
    all pairs from the phi zone into the rest are added, the converse pairs
    removed.
    """
    top = md.satisfying_worlds(phi, m.worlds, m.valuation)
    old = m.order(target)
    cols, scols = old.down_rows(), old.down_rows(strict=True)
    # a phi-world keeps what lay (strictly) below it in the phi zone; every
    # other world also gets the whole phi zone strictly below it
    down = {u: row & top if top >> u & 1 else row | top for u, row in cols.items()}
    strict = {u: row & top if top >> u & 1 else row | top for u, row in scols.items()}
    return m.with_order(target, md.Preorder(m.worlds, down, strict))


def contract(m: md.AgentModel, target: str, phi: fm.Formula) -> md.AgentModel:
    """Stop the argument being settled in one order, changing little else.

    w <=' w' iff w is globally minimal, or w is minimal among the non-phi
    worlds, or w <= w' held and w' is not one of those promoted minima.
    """
    old = m.order(target)
    counter = m.worlds & ~md.satisfying_worlds(phi, m.worlds, m.valuation)
    min_counter = old.min_set(counter)
    low = old.min_set(m.worlds) | min_counter
    cols, scols = old.down_rows(), old.down_rows(strict=True)
    down = {u: low if min_counter >> u & 1 else row | low for u, row in cols.items()}
    # the promoted minima lie below every world, so nothing lies strictly
    # below them; they lie strictly below every other world
    strict = {u: 0 if low >> u & 1 else row | low for u, row in scols.items()}
    return m.with_order(target, md.Preorder(m.worlds, down, strict))


def product_update(m: md.AgentModel, lib: pl.PlanLibrary,
                   symbol: str) -> md.AgentModel:
    """Execute a plan: restrict to its precondition, force its post literals.

    Atoms the post-condition entails positively become true at every
    surviving world, negatively entailed ones false, all others keep their
    restricted extension. Intentions ride along unchanged; re-filter
    explicitly if wanted.
    """
    plan = lib.get(symbol)
    keep = md.satisfying_worlds(plan.pre, m.worlds, m.valuation)
    restricted = m.restrict(keep)
    lits = plan.post_literals()
    for a in lits:
        if a not in m.valuation:
            raise md.UnknownAtomError(f"plan {symbol}: unknown atom {a!r}")
    valuation = {
        a: (keep if lits[a] else 0) if a in lits else ws
        for a, ws in restricted.valuation.items()
    }
    return dataclasses.replace(restricted, valuation=valuation)


# ---------------------------------------------------------------------------
# Operation values (script steps, composition)

@dataclass(frozen=True)
class MentalOp:
    """A mental-change operation as a value.

    announce and product_update touch both orders, so their target is
    "both"; upgrade and contract act on exactly one order.
    """

    kind: str  # announce | upgrade | contract | product_update | composite
    target: str = "both"  # P | D | both
    argument: Union[fm.Formula, str, None] = None
    steps: tuple["MentalOp", ...] = ()

    def __post_init__(self):
        if self.kind in ("announce", "product_update"):
            if self.target != "both":
                raise ValueError(f"{self.kind} targets both orders")
        elif self.kind in ("upgrade", "contract"):
            if self.target not in ("P", "D"):
                raise ValueError(f"{self.kind} needs target P or D")
        elif self.kind != "composite":
            raise ValueError(f"bad operation kind {self.kind!r}")

    def apply(self, m: md.AgentModel, lib: pl.PlanLibrary) -> md.AgentModel:
        if self.kind == "announce":
            return announce(m, self.argument)
        if self.kind == "upgrade":
            return upgrade(m, self.target, self.argument)
        if self.kind == "contract":
            return contract(m, self.target, self.argument)
        if self.kind == "product_update":
            return product_update(m, lib, self.argument)
        for step in self.steps:
            m = step.apply(m, lib)
        return m

    def describe(self) -> str:
        if self.kind == "announce":
            return f"announce {fm.render(self.argument)}"
        if self.kind == "upgrade":
            return f"upgrade {self.target} {fm.render(self.argument)}"
        if self.kind == "contract":
            return f"contract {self.target} {fm.render(self.argument)}"
        if self.kind == "product_update":
            return f"update {self.argument}"
        return "; ".join(step.describe() for step in self.steps)


# ---------------------------------------------------------------------------
# Graph-level counterparts

def graph_announce(ag: pg.AgentProgram, phi: fm.Formula) -> pg.AgentProgram:
    """Add phi to the knowledge set; rejects an inconsistent result."""
    if not fm.is_propositional(phi):
        raise pg.ProgramError("non-propositional-formula", fm.render(phi))
    knowledge = ag.knowledge if phi in ag.knowledge else ag.knowledge + (phi,)
    if not pg.knowledge_worlds(ag.atoms, knowledge):
        raise pg.ProgramError("inconsistent-knowledge",
                              f"announcing {fm.render(phi)} contradicts knowledge")
    return dataclasses.replace(ag, knowledge=knowledge)


def graph_upgrade(g: pg.PriorityGraph, phi: fm.Formula) -> pg.PriorityGraph:
    """Put phi on top of the graph, outranking every other node.

    An existing copy of phi is moved rather than duplicated: its old edges
    are dropped (prec is transitively closed, so no compensation path is
    lost) and phi re-enters outranking everything. The other nodes move one
    position down, and their edges with them.
    """
    if not fm.is_propositional(phi):
        raise pg.GraphError(f"non-propositional node: {fm.render(phi)}")
    kept = [i for i, n in enumerate(g.nodes) if n != phi]
    moved = {i: new for new, i in enumerate(kept, 1)}
    prec = frozenset(
        (moved[a], moved[b]) for (a, b) in g.prec if a in moved and b in moved
    ) | frozenset((0, j) for j in moved.values())
    return pg.PriorityGraph((phi,) + tuple(g.nodes[i] for i in kept), prec)


def graph_contract(ag: pg.AgentProgram, target: str, phi: fm.Formula,
                   lib: pl.PlanLibrary) -> pg.AgentProgram:
    """Contract one graph via the induced model.

    No direct graph surgery is available for natural contraction, so the
    induced order is contracted and a fresh graph extracted from the result;
    induced-program worlds have injective valuations, which extraction needs.
    A contracted total order stays total, so its graph is the rank-bit
    chain, ceil(log2 k) nodes for k tie classes. Any other order comes
    back as its meet-irreducible down-sets, never more nodes than it has
    distinct down-sets: the Pareto order of n atoms, contracted by one of
    them, comes back as n nodes.
    """
    if target not in ("B", "D"):
        raise pg.ProgramError("bad-target", f"graph_contract target {target!r}")
    order_tag = "P" if target == "B" else "D"
    m = pg.induce_program(ag, lib, check_intentions=False)
    new_graph = pg.extract_graph(contract(m, order_tag, phi), order_tag)
    if target == "B":
        return dataclasses.replace(ag, beliefs=new_graph)
    return dataclasses.replace(ag, desires=new_graph)


def filter_intentions(m: md.AgentModel, lib: pl.PlanLibrary) -> md.AgentModel:
    """Drop every adopted plan that lost P-consistency.

    Keeps exactly the plans whose precondition is believed and whose
    post-condition is still an admissible intention, so the result is
    P-consistent by construction.
    """
    kept = frozenset(symbol for symbol in m.intentions
                     if pl.plan_failure(m, lib, symbol) is None)
    return dataclasses.replace(m, intentions=kept)


def revise_drop(ag: pg.AgentProgram, phi: fm.Formula,
                lib: pl.PlanLibrary) -> pg.AgentProgram:
    """Come to believe phi and drop the desires and intentions against it.

    Contract the desire graph by the negation, upgrade the belief graph by
    phi, then re-filter the intention set.
    """
    ag = graph_contract(ag, "D", fm.Not(phi), lib)
    ag = dataclasses.replace(ag, beliefs=graph_upgrade(ag.beliefs, phi))
    m = pg.induce_program(ag, lib, check_intentions=False)
    filtered = filter_intentions(m, lib)
    return dataclasses.replace(ag, intentions=filtered.intentions)
