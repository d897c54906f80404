"""Finite world sets, valuations, preorders, and agent models.

World sets are int masks, bit w for world w: a model's worlds, each atom's
valuation, every extension and every order row. World ids are small
non-negative integers, stable within a model value: restriction keeps
surviving ids, and ids are never reused. An order is stored as its tie
classes. Two worlds tie exactly when their down rows (the worlds at or
below them) are equal, so an order is one map from each distinct down row
to the mask of the worlds that have it, and a member's strict down row is
its class's row less the class. Every attitude is read from what lies
below a world, so nothing else is kept, and readers take a class at a
time. Each order comes from the one Preorder constructor, which trusts
the class map it is given. Loading reads each document field in one
checked pass that builds its result as it goes: the world entries set
each world's bit in the world and atom masks, and each relation sets one
bit of a down row per generator pair whose ends it has checked are world
ids. One closure pass over those rows then gives the classes, as its
components; Preorder.from_pairs builds through the same two passes.
Induction from a priority graph emits one class per node signature, since
worlds tie exactly when they satisfy the same graph nodes (Andreka, Ryan &
Schobbens 2002). Restriction masks each class, upgrade splits each class
at the argument's worlds, contraction merges the promoted minima into one
class, and the reduction a document is written from reads one row per
class.

Preorder._up closes the reduction's pairs into up rows on every read. The
engine never reads it: it serves the benchmark's tracer, which counts
relation pairs from up rows (bench/tracing.py).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Mapping, Sequence

from . import formulas as fm

WorldId = int

# A program's worlds are the ids below 2**MAX_PROGRAM_ATOMS; so are a document's.
MAX_PROGRAM_ATOMS = 16


class ModelError(Exception):
    """Malformed model documents or misused model values."""


class UnknownAtomError(ModelError):
    pass


def mask(worlds: Iterable[WorldId]) -> int:
    """The mask of some world ids, built in a byte buffer so that the cost
    is linear in the ids and the highest one."""
    worlds = list(worlds)
    buf = bytearray((max(worlds, default=-1) >> 3) + 1)
    for w in worlds:
        buf[w >> 3] |= 1 << (w & 7)
    return int.from_bytes(buf, "little")


def ids(worlds: int) -> list[WorldId]:
    """The worlds of a mask, ascending, read from its binary text."""
    text = format(worlds, "b")[::-1]
    return list(compress(range(len(text)), map("1".__eq__, text)))


def columns(masks: Sequence[int], worlds: int) -> dict[WorldId, str]:
    """Per world w of the mask worlds, the string whose character i is bit
    w of masks[i]: a world's valuation bits, or its node signature."""
    width = worlds.bit_length()
    rows = [format(x, f"0{width}b")[::-1] for x in masks]
    cols = list(map("".join, zip(*rows))) if rows else [""] * width
    return {w: cols[w] for w in ids(worlds)}


def iter_ids(worlds: int):
    """The worlds of a mask, ascending, one at a time: cheap on sparse masks
    and when the caller stops early, where ids() reads the whole width."""
    while worlds:
        low = worlds & -worlds
        yield low.bit_length() - 1
        worlds ^= low


# Preorder.reduction_pairs sorts a class minimum's cover candidates by place
# when they fill less than 1/_SCAN_RATIO of the places below it, and walks
# those places downward otherwise, so a walk takes at most _SCAN_RATIO steps
# per candidate.
_SCAN_RATIO = 8


def _closure(rows: dict[WorldId, int]) -> dict[int, int]:
    """Reflexive-transitive closure of bit rows in one Tarjan SCC pass.

    Returns the closure's tie classes, its components, as a map from each
    component's closed row to the mask of its members: on down rows, the
    class map a Preorder stores.

    Tarjan finishes a component only after every component it reaches, so
    its closed row is its members' bits ORed with the closed rows of the
    components its members point into. The depth-first search keeps its own
    stack of [world, pending successors mask, low link, stack height], so
    deep chains do not recurse. Each time a frame resumes, successors
    already in a finished component are masked out at once: they can
    neither be visited nor lower the frame's low link, and their closed
    rows are ORed in when the component is finished.
    """
    index: dict[WorldId, int] = {}
    closed: dict[WorldId, int] = {}
    classes: dict[int, int] = {}
    finished = 0
    stack: list[WorldId] = []
    for root in rows:
        if root in index:
            continue
        index[root] = len(index)
        work = [[root, rows[root], index[root], len(stack)]]
        stack.append(root)
        while work:
            frame = work[-1]
            v, pending, low = frame[0], frame[1] & ~finished, frame[2]
            while pending:
                bit = pending & -pending
                pending ^= bit
                u = bit.bit_length() - 1
                i = index.get(u)
                if i is None:
                    frame[1], frame[2] = pending, low
                    index[u] = i = len(index)
                    work.append([u, rows[u], i, len(stack)])
                    stack.append(u)
                    break
                if i < low:  # on the stack: same component
                    low = i
            else:
                work.pop()
                if low != index[v]:
                    if low < work[-1][2]:
                        work[-1][2] = low
                    continue
                height = frame[3]
                if height == len(stack) - 1:
                    stack.pop()
                    members, tie, reach = (v,), 1 << v, rows[v]
                else:
                    members = stack[height:]
                    del stack[height:]
                    tie, reach = mask(members), reduce(or_, map(rows.__getitem__, members))
                finished |= tie
                row, outside = tie, reach & ~tie
                while outside:
                    low_bit = outside & -outside
                    row |= closed[low_bit.bit_length() - 1]
                    outside &= ~row
                classes[row] = tie
                for u in members:
                    closed[u] = row
    return classes


class Preorder:
    """A reflexive, transitive relation over a finite carrier, held as its
    tie classes.

    Values are immutable once built. The carrier is a world mask, and
    classes maps each distinct down row (the u with u <= w, for the class's
    members w) to the mask of the worlds that have it. Worlds tie exactly
    when their down rows are equal, so the map is canonical, and a member's
    strict down row (the u with u < w) is its class's row less the class.
    The one constructor trusts its class map: non-empty, disjoint classes
    that cover the carrier, each inside its own row, with closed rows.
    from_pairs and restrict build through it, and so do loading, induction
    and the dynamic rewrites. Minima, the reduction, equality and hashing
    read the classes. The _up property is a shim for the benchmark's tracer
    only.
    """

    __slots__ = ("carrier", "classes")

    def __init__(self, carrier: int, classes: dict[int, int]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "classes", classes)

    def __setattr__(self, name, value):
        raise AttributeError("Preorder is immutable")

    @classmethod
    def from_pairs(cls, carrier: int,
                   pairs: Iterable[Sequence[WorldId]]) -> "Preorder":
        """The order generated by pairs (w, u), read w <= u: the down rows
        of load_model's checked relation pass, closed in one pass."""
        down = _down_rows(list(map(list, pairs)), "relation", ids(carrier))
        return cls(carrier, _closure(down))

    @property
    def _up(self) -> dict[WorldId, int]:
        """Per world w, the mask of all u with w <= u, closed from the
        reduction's pairs on every read. Only the benchmark's tracer reads
        it (bench/tracing.py counts relation pairs from it)."""
        up = dict.fromkeys(iter_ids(self.carrier), 0)
        for w, u in self.reduction_pairs():
            up[w] |= 1 << u
        return {w: row for row, tie in _closure(up).items() for w in iter_ids(tie)}

    def reduction_pairs(self) -> list[list[WorldId]]:
        """The canonical transitive reduction, as ascending pairs [w, u].

        A minimum set of generator pairs whose reflexive-transitive closure
        is this preorder. A tie class c0 < c1 < ... < ck (k >= 1) gives the
        cycle [c0,c1] ... [c(k-1),ck], [ck,c0]. Where class C' covers class C
        (C' strictly above C, no class in between), [min C, min C'] links
        them. Reflexive pairs are left out.

        Each class is read once, and its minimum stands for it. The class
        minima, sorted by down-set size, are a linear extension of the
        order. A class minimum's candidates are the class minima strictly
        below it; the highest-placed candidate left is a lower cover, since
        anything between them would be placed higher and still be left.
        Each cover masks out its own row, so one row is read per cover, not
        per candidate. The pick walks the extension downward when the
        candidates are many (a chain covers at once), and sorts them by
        place when they are few (a tree's are spread over the whole
        extension).
        """
        rows: dict[WorldId, int] = {}  # class minimum -> its class's row
        out: dict[WorldId, list[WorldId]] = {}  # w -> the u of its pairs
        for row, tie in self.classes.items():
            low = tie & -tie
            head = w = low.bit_length() - 1
            rows[head] = row
            for u in iter_ids(tie ^ low):
                out[w], w = [u], u  # next member
            if w != head:
                out[w] = [head]  # wrap to c0
        minima = sorted(rows, key=lambda w: rows[w].bit_count())
        place = {w: i for i, w in enumerate(minima)}
        heads = mask(minima)
        for u in minima:
            left = rows[u] & heads & ~(1 << u)
            if not left:
                continue
            top = place[u]
            if left.bit_count() * _SCAN_RATIO < top:
                picks = sorted(iter_ids(left), key=place.__getitem__, reverse=True)
            else:
                picks = map(minima.__getitem__, range(top - 1, -1, -1))
            for w in picks:
                if left >> w & 1:
                    out.setdefault(w, []).append(u)
                    left &= ~rows[w]  # w is the only class minimum in its class
                    if not left:
                        break
        return [[w, u] for w in sorted(out) for u in sorted(out[w])]

    def min_set(self, s: int) -> int:
        """The worlds of mask s with no strictly smaller world in s: the
        members in s of each class whose row meets s only inside the class."""
        if s & ~self.carrier:
            raise ModelError(f"worlds {ids(s & ~self.carrier)} outside carrier")
        return sum(tie & s for row, tie in self.classes.items() if row & s == tie & s)

    def restrict(self, keep: int) -> "Preorder":
        if keep & ~self.carrier:
            raise ModelError(f"worlds {ids(keep & ~self.carrier)} outside carrier")
        return Preorder(keep, {row & keep: tie & keep
                               for row, tie in self.classes.items() if tie & keep})

    def __eq__(self, other):
        return (isinstance(other, Preorder)
                and self.carrier == other.carrier and self.classes == other.classes)

    def __hash__(self):
        return hash((self.carrier, frozenset(self.classes.items())))

    def __repr__(self):
        # sizes only: listing pairs is O(W^2), too long for a failing test report
        return (f"Preorder({self.carrier.bit_count()} worlds, "
                f"{len(self.classes)} classes)")


# ---------------------------------------------------------------------------
# Models

Valuation = Mapping[str, int]  # atom name -> mask of the worlds where it holds


@dataclass(frozen=True)
class AgentModel:
    """One world set with a plausibility and a desirability preorder, plus
    the set of adopted plans.

    P-consistency of the intention set is enforced where models are built
    from programs and restored by filter_intentions; dynamic operations may
    leave it temporarily violated (dropping intentions is a policy choice,
    never implicit).
    """

    atoms: tuple[str, ...]
    worlds: int
    plausibility: Preorder
    desirability: Preorder
    valuation: Valuation
    intentions: frozenset[str] = frozenset()

    def order(self, tag: str) -> Preorder:
        if tag == "P":
            return self.plausibility
        if tag == "D":
            return self.desirability
        raise ModelError(f"bad order tag {tag!r}")

    def with_order(self, tag: str, order: Preorder) -> "AgentModel":
        if tag == "P":
            return dataclasses.replace(self, plausibility=order)
        if tag == "D":
            return dataclasses.replace(self, desirability=order)
        raise ModelError(f"bad order tag {tag!r}")

    @cached_property
    def bits_by_world(self) -> Mapping[WorldId, str]:
        """Per world, ascending, its valuation as a 0/1 string in declared
        atom order; computed once per model value. Read only."""
        return columns([self.valuation[a] for a in self.atoms], self.worlds)

    def restrict(self, keep: int) -> "AgentModel":
        """Intersect worlds, both orders, and the valuation with the mask
        keep, which must lie inside the worlds (the orders check it)."""
        return dataclasses.replace(
            self,
            worlds=keep,
            plausibility=self.plausibility.restrict(keep),
            desirability=self.desirability.restrict(keep),
            valuation={a: ws & keep for a, ws in self.valuation.items()},
        )


def satisfying_worlds(f: "fm.Formula", worlds: int, valuation: Valuation) -> int:
    """The mask of the worlds satisfying a propositional formula."""
    if isinstance(f, fm.Atom):
        if f.name not in valuation:
            raise UnknownAtomError(f"unknown atom {f.name!r}")
        return valuation[f.name] & worlds
    if isinstance(f, fm.Top):
        return worlds
    if isinstance(f, fm.Bottom):
        return 0
    if isinstance(f, fm.Not):
        return worlds & ~satisfying_worlds(f.child, worlds, valuation)
    if isinstance(f, fm.And):
        return (satisfying_worlds(f.left, worlds, valuation)
                & satisfying_worlds(f.right, worlds, valuation))
    if isinstance(f, fm.Or):
        return (satisfying_worlds(f.left, worlds, valuation)
                | satisfying_worlds(f.right, worlds, valuation))
    if isinstance(f, fm.Implies):
        return ((worlds & ~satisfying_worlds(f.left, worlds, valuation))
                | satisfying_worlds(f.right, worlds, valuation))
    raise ModelError(f"not a propositional formula: {fm.render(f)}")


# ---------------------------------------------------------------------------
# Model documents (JSON-shaped dicts)

def load_model(doc: dict) -> AgentModel:
    """Build a model from a document.

    Expected fields: atoms, worlds (id + true_atoms), plausibility and
    desirability as generator pair lists (closed reflexively-transitively
    here), and an optional intentions list. World ids must lie below
    2**MAX_PROGRAM_ATOMS; a larger one is rejected before any mask is built.
    Each field is read in one pass that checks each item and builds the
    masks and down rows as it goes. Faults are reported field by field:
    atoms, worlds, plausibility, desirability, intentions. Within a
    relation a malformed pair is named before any pair that leaves the
    carrier.
    """
    try:
        atoms = tuple(_names(doc["atoms"], "atoms"))
        world_docs = doc["worlds"]
        p_pairs = doc["plausibility"]
        d_pairs = doc["desirability"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"model document missing field: {exc}") from exc
    if len(set(atoms)) != len(atoms):
        raise ModelError("duplicate atom names")
    try:
        for a in atoms:
            fm.Atom(a)  # name check
    except fm.FormulaError as exc:
        raise ModelError(str(exc)) from exc
    if not isinstance(world_docs, list):
        raise ModelError(f"worlds must be a list of world entries, got {world_docs!r}")
    # one bit per id a document may use, set byte by byte: ORing bits into
    # int masks would copy a mask per world, quadratic at 2**16 worlds
    seen = bytearray(1 << MAX_PROGRAM_ATOMS - 3)
    truths = {a: bytearray(len(seen)) for a in atoms}
    for wd in world_docs:
        if not isinstance(wd, dict) or "id" not in wd:
            raise ModelError(f"world entry must be an object with an id, got {wd!r}")
        w = wd["id"]
        if type(w) is not int or w < 0:
            raise ModelError(f"world id must be a non-negative int, got {w!r}")
        if w >> MAX_PROGRAM_ATOMS:
            raise ModelError(f"world id {w} is not below 2**{MAX_PROGRAM_ATOMS} "
                             f"= {1 << MAX_PROGRAM_ATOMS}")
        byte, bit = w >> 3, 1 << (w & 7)
        if seen[byte] & bit:
            raise ModelError(f"duplicate world id {w}")
        seen[byte] |= bit
        true_atoms = wd.get("true_atoms", [])
        if not isinstance(true_atoms, list):
            raise ModelError(f"world {w}: true_atoms must be a list of atoms, "
                             f"got {true_atoms!r}")
        for a in true_atoms:
            if not isinstance(a, str) or a not in truths:
                raise ModelError(f"world {w} lists unknown atom {a!r}")
            truths[a][byte] |= bit
    worlds = int.from_bytes(seen, "little")
    valuation = {a: int.from_bytes(b, "little") for a, b in truths.items()}
    order = ids(worlds)
    plaus = Preorder(worlds, _closure(_down_rows(p_pairs, "plausibility", order)))
    des = Preorder(worlds, _closure(_down_rows(d_pairs, "desirability", order)))
    intentions = frozenset(_names(doc.get("intentions", []), "intentions"))
    return AgentModel(atoms, worlds, plaus, des, valuation, intentions)


def _names(value, field: str) -> list:
    """A field that must list strings (atom names or plan symbols)."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"{field} must be a list of names, got {value!r}")
    return value


def _down_rows(pairs, field: str, order: list[WorldId]) -> dict[WorldId, int]:
    """A relation field's generator pairs [w, u] as down rows: per world u
    of order (the world ids, ascending), the mask of the w it lists.

    One pass checks each pair, a list of two ints (bools excluded) whose
    ends are both world ids, and sets bit w of u's row. Only a rejected
    list is searched again, to name its first malformed pair, or failing
    that its first pair with an end outside the carrier, negative ints
    included.
    """
    if not isinstance(pairs, list):
        raise ModelError(f"{field} must be a list of pairs, got {pairs!r}")
    down = dict.fromkeys(order, 0)
    try:
        for p in pairs:
            if type(p) is list:
                w, u = p
                if type(w) is type(u) is int and w in down:
                    down[u] |= 1 << w  # KeyError: u is no world id
                    continue
            break
        else:
            return down
    except (KeyError, ValueError):  # ValueError: not two items
        pass
    bad = next((p for p in pairs if not (
        type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int)), None)
    if bad is not None:
        raise ModelError(f"{field} pair {bad!r} is not two world ids")
    w, u = next((w, u) for w, u in pairs if w not in down or u not in down)
    raise ModelError(f"relation pair ({w},{u}) leaves the carrier")


def sorted_worlds(m: AgentModel) -> list[WorldId]:
    """Worlds in document order: by valuation bit string, then by id."""
    return sorted(ids(m.worlds), key=m.bits_by_world.__getitem__)


def dump_model(m: AgentModel) -> dict:
    """Serialize to the model document shape, deterministically ordered.

    Each order is written as its canonical transitive reduction; load_model
    closes it again, so the document loads back to the same model.
    """
    names = sorted(m.atoms)  # true atoms are listed by name
    places = [m.atoms.index(a) for a in names]
    bits = m.bits_by_world
    return {
        "atoms": list(m.atoms),
        "worlds": [
            {"id": w, "true_atoms": [a for a, i in zip(names, places) if bits[w][i] == "1"]}
            for w in sorted_worlds(m)
        ],
        "plausibility": m.plausibility.reduction_pairs(),
        "desirability": m.desirability.reduction_pairs(),
        "intentions": sorted(m.intentions),
    }
