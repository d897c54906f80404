"""Priority graphs and the lexicographic world order they induce.

A priority graph is a strict partial order over propositional formulas.
It orders worlds lexicographically: w is at least as good as w' when, for
every graph formula, w matches w' or compensates the loss with a win on a
strictly higher-priority formula. Agent programs pair two graphs (belief
and desire) with a knowledge set and adopted plans, and induce a practical
agent model over the knowledge-consistent valuations.

The converse direction, extract_graph, turns an order of a model back into
a graph: a total preorder becomes a ranked chain of rank-bit nodes, any
other order an antichain with one node per meet-irreducible down-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional

from . import formulas as fm
from . import models as md
from . import plans as pl

class GraphError(Exception):
    pass


class ProgramError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class PriorityGraph:
    """Propositional formulas under a strict partial priority order.

    prec holds (i, j) pairs of positions in nodes, kept transitively closed:
    node i outranks node j. Edges are positions, so building or reading one
    never hashes a formula.
    """

    nodes: tuple[fm.Formula, ...]
    prec: frozenset[tuple[int, int]]


def make_graph(nodes: Iterable[fm.Formula],
               prec: Iterable[tuple[fm.Formula, fm.Formula]] = ()) -> PriorityGraph:
    """Validate and transitively close a priority graph.

    prec lists (higher, lower) formula pairs. Nodes must be propositional;
    duplicates are dropped keeping first occurrence; a priority cycle is
    rejected (the order must stay strict).
    Nodes are told apart by their rendered text, which parse inverts:
    comparing a long user-written chain such as p | p | ... | p as
    dataclasses would recurse once per operand. Nodes and edge endpoints
    are rendered through one table, so an endpoint that is a node object
    is a lookup.
    """
    seen: list[fm.Formula] = []
    index: dict[str, int] = {}
    memo: dict = {}
    for n in nodes:
        if not fm.is_propositional(n):
            raise GraphError(f"non-propositional node: {fm.render(n, memo)}")
        key = fm.render(n, memo)
        if key not in index:
            index[key] = len(seen)
            seen.append(n)
    below = [0] * len(seen)  # bit j of below[i]: node i outranks node j
    for hi, lo in prec:
        i, j = index.get(fm.render(hi, memo)), index.get(fm.render(lo, memo))
        if i is None or j is None:
            raise GraphError("priority edge mentions a formula outside the node set")
        below[i] |= 1 << j
    for k in range(len(seen)):  # Warshall: close over paths through node k
        if below[k]:
            for i, row in enumerate(below):
                if row >> k & 1:
                    below[i] = row | below[k]
    for i, row in enumerate(below):
        if row >> i & 1:
            raise GraphError(f"priority cycle through {fm.render(seen[i], memo)}")
    return PriorityGraph(tuple(seen), frozenset(
        (i, j) for i, row in enumerate(below) if row
        for j in range(len(seen)) if row >> j & 1))


def induced_order(g: PriorityGraph, worlds: int,
                  valuation: md.Valuation) -> md.Preorder:
    """The lexicographic preorder the graph induces on the world mask.

    w <= w' iff for every node phi: (w' sat phi implies w sat phi), or some
    strictly higher-priority psi holds at w and fails at w'. Row by row: u
    leaves w's down row when some phi holds at w and fails at u, and every
    higher psi that fails at w fails at u too.

    Two worlds tie exactly when they satisfy the same nodes (Andreka, Ryan
    & Schobbens 2002), so a down row depends only on the world's node
    signature: one row is computed per signature, and each member's strict
    down row is that row less its signature class.
    """
    higher: list[list[int]] = [[] for _ in g.nodes]
    for hi, lo in g.prec:
        higher[lo].append(hi)
    sat = [md.satisfying_worlds(n, worlds, valuation) for n in g.nodes]
    fails = [worlds ^ s for s in sat]
    classes: dict[str, list[md.WorldId]] = {}
    for w, signature in md.columns(sat, worlds).items():
        classes.setdefault(signature, []).append(w)
    down, strict = {}, {}
    for signature, members in classes.items():
        beaten = 0
        for holds, phi_fails, above in zip(signature, fails, higher):
            if holds == "1":
                for psi in above:
                    if signature[psi] == "0":
                        phi_fails &= fails[psi]
                beaten |= phi_fails
        row = worlds ^ beaten
        below = row & ~sum(1 << w for w in members)
        for w in members:
            down[w] = row
            strict[w] = below
    return md.Preorder(worlds, down, strict)


def extract_graph(m: md.AgentModel, tag: str) -> PriorityGraph:
    """A priority graph whose induced order reproduces m.order(tag) exactly.

    The order is total exactly when its distinct down-sets {u | u <= w},
    sorted by size, are nested. A total order with k tie classes becomes
    the ranked rank-bit graph (Andreka, Ryan & Schobbens 2002): the class
    with the i-th smallest down-set gets the value k-1-i, node j holds the
    worlds whose value has bit j set, the nodes run from the most
    significant bit down, and each outranks every later one, so the
    lexicographic order on the bits is the numeric order of the values.
    That is ceil(log2 k) nodes, none for k <= 1. Any other order becomes
    an antichain of down-set formulas with no edges: one node per distinct
    meet-irreducible down-set, in the order of its first world's valuation
    bits. A down-set is meet-irreducible when it is not the intersection
    of the strictly larger ones, so the full set is never a node. These
    are the unique minimal family of down-sets whose intersections give
    every down-set (Davey & Priestley 2002; Ganter & Wille 1999), and since
    w <= u exactly when every node holding at u holds at w, they induce
    the order. The Pareto order of n atoms, each a node with no edges,
    comes back as those n atoms rather than 2^n down-sets.

    Nodes are true exactly at the valuations of their worlds, so distinct
    worlds must have distinct valuations. Each node is the reduced Shannon
    decision tree of its world set over the atoms in sorted order (Bryant
    1986), built once per distinct sub-table and shared between nodes.
    """
    if len(m.atoms) > md.MAX_PROGRAM_ATOMS:
        raise GraphError(f"extract supports at most {md.MAX_PROGRAM_ATOMS} atoms, "
                         f"the model has {len(m.atoms)}")
    by_val: dict[str, md.WorldId] = {}
    for w, bits in m.bits_by_world.items():
        if bits in by_val:
            raise GraphError(
                f"valuation not injective: worlds {by_val[bits]} and {w} agree"
            )
        by_val[bits] = w
    # A truth table is an int with bit c set when the valuation whose code is
    # c lies in the set; a code reads the atoms in sorted order, first atom
    # highest. pick maps a world row rendered one character per world id
    # (plus a leading '0' for codes no world has) to its table's digits.
    rank = sorted(range(len(m.atoms)), key=m.atoms.__getitem__)
    atoms = [m.atoms[i] for i in rank]
    width = m.worlds.bit_length()
    top_code = (1 << len(atoms)) - 1
    slots = [0] * (top_code + 1)
    code = itemgetter(slice(0, 0), *rank)  # the empty cut serves a model with no atoms
    for bits, w in by_val.items():
        slots[top_code - int("".join(code(bits)) or "0", 2)] = width - w
    pick = itemgetter(*slots)
    fmt = f"0{width + 1}b"
    tree = _decision_trees(atoms)

    def node(row: int) -> fm.Formula:
        return tree(int("".join(pick(format(row, fmt))), 2))

    order = m.order(tag)
    down = order.down_rows()
    nested = sorted(set(down.values()), key=int.bit_count)
    if all(lo & ~hi == 0 for lo, hi in zip(nested, nested[1:])):
        # nested[k-1-v] holds the worlds of value v or more. Bit j of a value
        # flips at each multiple of 2^j, so XOR-ing those rows leaves the
        # worlds whose value has bit j set.
        k = len(nested)
        nodes = []
        for j in reversed(range(max(k - 1, 0).bit_length())):
            row = 0
            for v in range(1 << j, k, 1 << j):
                row ^= nested[k - 1 - v]
            nodes.append(node(row))
        return PriorityGraph(tuple(nodes),
                             frozenset(combinations(range(len(nodes)), 2)))
    # D_w is meet-reducible exactly when it equals the intersection of its
    # upper covers' down-sets, the full set when it has none. The
    # cross-class reduction pairs [w, u] are those covers, so one AND per
    # cover finds the reducible rows, and they seed the dedupe set.
    meet = dict.fromkeys(down, order.carrier)
    for w, u in order.reduction_pairs():
        if down[w] != down[u]:
            meet[w] &= down[u]
    nodes = []
    seen = {row for w, row in down.items() if meet[w] == row}
    for bits in sorted(by_val):
        row = down[by_val[bits]]
        if row not in seen:
            seen.add(row)
            nodes.append(node(row))
    return PriorityGraph(tuple(nodes), frozenset())


def _decision_trees(atoms: list[str]):
    """Builder of reduced decision trees over atoms, first atom at the root.

    The builder takes a truth table of 2^len(atoms) bits. A table of 2^k
    bits splits on atoms[-k]: its high half is where that atom holds. Equal
    sub-tables yield the same object, so children are compared with `is`.
    """
    full = [(1 << (1 << k)) - 1 for k in range(len(atoms) + 1)]
    lits = [(fm.Atom(a), fm.Not(fm.Atom(a))) for a in atoms]
    memo: dict[tuple[int, int], fm.Formula] = {}

    def node(table: int, k: int) -> fm.Formula:
        if table == 0:
            return _BOTTOM
        if table == full[k]:
            return _TOP
        f = memo.get((table, k))
        if f is None:
            lo = node(table & full[k - 1], k - 1)
            hi = node(table >> (1 << (k - 1)), k - 1)
            memo[table, k] = f = _shannon(*lits[-k], lo, hi)
        return f

    return lambda table: node(table, len(atoms))


_TOP, _BOTTOM = fm.Top(), fm.Bottom()


def _shannon(a, not_a, lo, hi) -> fm.Formula:
    """hi where a holds, lo where it fails, with constant branches folded."""
    if lo is hi:
        return lo
    if lo is _BOTTOM:
        return a if hi is _TOP else fm.And(a, hi)
    if lo is _TOP:
        return not_a if hi is _BOTTOM else fm.Or(not_a, hi)
    if hi is _BOTTOM:
        return fm.And(not_a, lo)
    if hi is _TOP:
        return fm.Or(a, lo)
    return fm.Or(fm.And(a, hi), fm.And(not_a, lo))


# ---------------------------------------------------------------------------
# Agent programs

@dataclass(frozen=True)
class AgentProgram:
    """Knowledge set, belief graph, desire graph, and adopted plans."""

    atoms: tuple[str, ...]
    knowledge: tuple[fm.Formula, ...]
    beliefs: PriorityGraph
    desires: PriorityGraph
    intentions: frozenset[str]

    @cached_property
    def universe(self) -> tuple[int, dict[str, int]]:
        """The knowledge worlds and the valuation on them, as masks,
        computed once per program value. Read only."""
        return _knowledge_model(self.atoms, self.knowledge)


def knowledge_worlds(atoms: tuple[str, ...], knowledge: Iterable[fm.Formula]) -> int:
    """Valuations over the atom set satisfying every knowledge formula, as a mask.

    World ids double as valuation bit masks: bit i is atom i of the declared
    order.
    """
    return _knowledge_model(atoms, knowledge)[0]


def _knowledge_model(atoms: tuple[str, ...], knowledge: Iterable[fm.Formula]
                     ) -> tuple[int, dict[str, int]]:
    """knowledge_worlds, and the valuation of the atoms on those worlds."""
    if len(atoms) > md.MAX_PROGRAM_ATOMS:
        raise ProgramError(
            "too-many-atoms",
            f"{len(atoms)} atoms would enumerate {2 ** len(atoms)} worlds",
        )
    full = (1 << (1 << len(atoms))) - 1
    valuation = {}
    for i, a in enumerate(atoms):
        # atom i holds on the upper run of 2^i ids in every period of
        # 2^(i+1): full // (2^period - 1) has bit 0 of each period set
        run = 1 << i
        valuation[a] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    worlds = full
    for f in knowledge:
        worlds = md.satisfying_worlds(f, worlds, valuation)
    if worlds != full:
        valuation = {a: ws & worlds for a, ws in valuation.items()}
    return worlds, valuation


def induce_program(ag: AgentProgram, lib: pl.PlanLibrary,
                   check_intentions: bool = True) -> md.AgentModel:
    """The agent model an agent program stands for.

    Worlds are the knowledge-consistent valuations; each order is induced
    lexicographically from its graph; the intention set must be P-consistent
    unless check_intentions is disabled (used while rebuilding programs whose
    intentions are about to be re-filtered).
    """
    worlds, valuation = ag.universe
    if not worlds:
        raise ProgramError("inconsistent-knowledge",
                           "no valuation satisfies the knowledge set")
    plaus = induced_order(ag.beliefs, worlds, valuation)
    des = induced_order(ag.desires, worlds, valuation)
    for symbol in sorted(ag.intentions):
        if symbol not in lib.plans:
            raise ProgramError("unknown-plan", symbol)
    m = md.AgentModel(ag.atoms, worlds, plaus, des, valuation,
                      frozenset(ag.intentions))
    if check_intentions:
        failure = pl.check_p_consistency(m, lib)
        if failure is not None:
            raise ProgramError("p-inconsistent-intentions", str(failure))
    return m


# ---------------------------------------------------------------------------
# Program documents

def _parse_prop(text: str, what: str) -> fm.Formula:
    f = fm.parse(text)
    if not fm.is_propositional(f):
        raise ProgramError("non-propositional-formula", f"{what}: {text}")
    return f


def _strings(value, reason: str, what: str) -> list:
    """A document field that must list strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ProgramError(reason, f"{what} must be a list of strings, got {value!r}")
    return value


def _ints(value) -> bool:
    """Whether value is a list of ints (bools excluded)."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def load_graph(doc: dict, what: str) -> PriorityGraph:
    """Graph document: nodes plus either explicit edges or integer ranks.

    edges [i, j] reads "node i outranks node j"; ranks compile lower rank to
    higher priority. A malformed field is a bad-graph error that names it;
    a graph that is no object at all is a malformed program field.
    """
    if not isinstance(doc, dict):
        raise ProgramError("bad-program", f"{what} must be a graph object, got {doc!r}")
    node_texts = _strings(doc.get("nodes", []), "bad-graph", f"{what}.nodes")
    nodes = [_parse_prop(t, f"{what} node") for t in node_texts]
    if "edges" in doc and "ranks" in doc:
        raise ProgramError("bad-graph", f"{what}: give edges or ranks, not both")
    prec: list[tuple[fm.Formula, fm.Formula]] = []
    if "ranks" in doc:
        ranks = doc["ranks"]
        if not _ints(ranks):
            raise ProgramError("bad-graph",
                               f"{what}.ranks must be a list of integers, got {ranks!r}")
        if len(ranks) != len(nodes):
            raise ProgramError("bad-graph", f"{what}: one rank per node required")
        prec = [
            (nodes[i], nodes[j])
            for i in range(len(nodes)) for j in range(len(nodes))
            if ranks[i] < ranks[j]
        ]
    else:
        edges = doc.get("edges", [])
        if not isinstance(edges, list):
            raise ProgramError("bad-graph",
                               f"{what}.edges must be a list of edges, got {edges!r}")
        for edge in edges:
            if not (_ints(edge) and len(edge) == 2):
                raise ProgramError("bad-graph",
                                   f"{what}.edges: {edge!r} is not two node indices")
            i, j = edge
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
                raise ProgramError("bad-graph", f"{what}: edge [{i},{j}] out of range")
            prec.append((nodes[i], nodes[j]))
    try:
        return make_graph(nodes, prec)
    except GraphError as exc:
        raise ProgramError("bad-graph", f"{what}: {exc}") from exc


def load_program(doc: dict) -> AgentProgram:
    """Program document: {atoms, K, B, D, I}; checks K consistency on load.

    A malformed program field is a bad-program error that names it, and a
    malformed field inside the B or D graph a bad-graph error.
    """
    if not isinstance(doc, dict):
        raise ProgramError("bad-program",
                           f"a program must be an object, got {type(doc).__name__}")
    if "atoms" not in doc:
        raise ProgramError("bad-program", "missing field: 'atoms'")
    atoms = tuple(_strings(doc["atoms"], "bad-program", "atoms"))
    if len(set(atoms)) != len(atoms):
        raise ProgramError("bad-program", "duplicate atom names")
    for a in atoms:
        try:
            fm.Atom(a)
        except fm.FormulaError as exc:
            raise ProgramError("bad-program", str(exc)) from exc
    knowledge = tuple(_parse_prop(t, "knowledge")
                      for t in _strings(doc.get("K", []), "bad-program", "K"))
    beliefs = load_graph(doc.get("B", {}), "B")
    desires = load_graph(doc.get("D", {}), "D")
    intentions = frozenset(_strings(doc.get("I", []), "bad-program", "I"))
    ag = AgentProgram(atoms, knowledge, beliefs, desires, intentions)
    known = set().union(*map(fm.atoms_of, knowledge + beliefs.nodes + desires.nodes))
    missing = known - set(atoms)
    if missing:
        raise ProgramError("bad-program",
                           f"formulas use undeclared atoms: {sorted(missing)}")
    if not ag.universe[0]:
        raise ProgramError("inconsistent-knowledge",
                           "no valuation satisfies the knowledge set")
    return ag


def dump_graph(g: PriorityGraph, memo: Optional[dict] = None) -> dict:
    """Graph document of g. Its nodes are rendered through one table (see
    fm.render), so a sub-tree that extracted nodes share is rendered once."""
    memo = {} if memo is None else memo
    return {
        "nodes": [fm.render(n, memo) for n in g.nodes],
        "edges": sorted(map(list, g.prec)),
    }


def dump_program(ag: AgentProgram) -> dict:
    memo: dict = {}
    return {
        "atoms": list(ag.atoms),
        "K": [fm.render(f, memo) for f in ag.knowledge],
        "B": dump_graph(ag.beliefs, memo),
        "D": dump_graph(ag.desires, memo),
        "I": sorted(ag.intentions),
    }
