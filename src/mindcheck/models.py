"""Finite world sets, valuations, preorders, and agent models.

World sets are int masks, bit w for world w: a model's worlds, each atom's
valuation, every extension and every order row. World ids are small
non-negative integers, stable within a model value: restriction keeps
surviving ids, and ids are never reused. Each order stores two masks per
world: a down row (the worlds at or below w) and a strict down row (those
strictly below). Every attitude is read from what lies below a world, so
nothing else is kept. Each order comes from the one Preorder constructor,
which takes both row sets as they are. Loading closes the reversed
generator pairs, which gives the down rows and the tie classes directly.
Induction from a priority graph computes one down row per tie class, since
worlds tie exactly when they satisfy the same graph nodes (Andreka, Ryan &
Schobbens 2002). Restriction masks both row sets, upgrade and contraction
derive them from the old ones, and the reduction a document is written
from reads down rows only.

Preorder._up closes the reduction's pairs into up rows on every read. The
engine never reads it: it serves the benchmark's tracer, which counts
relation pairs from up rows (bench/tracing.py).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

from . import formulas as fm

WorldId = int

# A program's worlds are the ids below 2**MAX_PROGRAM_ATOMS; so are a document's.
MAX_PROGRAM_ATOMS = 16


class ModelError(Exception):
    """Malformed model documents or misused model values."""


class UnknownAtomError(ModelError):
    pass


@dataclass(frozen=True)
class Violation:
    """First reflexivity or transitivity failure found by Preorder.validate."""

    kind: str  # "reflexivity" | "transitivity"
    witness: tuple[WorldId, ...]

    def __str__(self):
        if self.kind == "reflexivity":
            return f"missing reflexive pair for world {self.witness[0]}"
        w, u, x = self.witness
        return f"missing transitive pair ({w},{x}) implied by ({w},{u}),({u},{x})"


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


def _bits(row: int):
    """The set bits of row, ascending, one at a time: cheap on sparse rows
    and when the caller stops early, where ids() reads the whole width."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


# Preorder.reduction_pairs sorts a class minimum's cover candidates by place
# when they fill less than 1/_SCAN_RATIO of the places below it, and walks
# those places downward otherwise, so a walk takes at most _SCAN_RATIO steps
# per candidate.
_SCAN_RATIO = 8


def _closure(rows: dict[WorldId, int]) -> tuple[dict[WorldId, int],
                                               dict[WorldId, int]]:
    """Reflexive-transitive closure of bit rows in one Tarjan SCC pass.

    Returns the closed rows and, per world, its closed row less its own
    component: the components are the closure's tie classes, so on down
    rows that is the strict down row.

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
    strict: dict[WorldId, int] = {}
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
                below = row & ~tie
                for u in members:
                    closed[u] = row
                    strict[u] = below
    return closed, strict


class Preorder:
    """A binary relation over a finite carrier, intended reflexive+transitive.

    Values are immutable once built. The carrier is a world mask, and an
    order holds two row sets keyed by its worlds: per world w, its down row
    (the u with u <= w) and its strict down row (the u with u < w). The one
    constructor takes all three as they are and does not force the
    invariants: validate() reports the first violation. from_pairs,
    identity, total and restrict build through it, and so do induction and
    the dynamic rewrites. Down sets, minima, le, pairs, the reduction,
    validation, equality and hashing all read down rows. The _up property
    is a shim for the benchmark's tracer only.
    """

    __slots__ = ("carrier", "_down", "_sdown")

    def __init__(self, carrier: int, down: dict[WorldId, int],
                 strict: dict[WorldId, int]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_sdown", strict)

    def __setattr__(self, name, value):
        raise AttributeError("Preorder is immutable")

    @classmethod
    def from_pairs(cls, carrier: int,
                   pairs: Iterable[tuple[WorldId, WorldId]]) -> "Preorder":
        """The order generated by pairs (w, u), read w <= u.

        Each pair sets bit w of u's down row, and one closure pass over
        those rows gives the down rows and strict down rows. No pair end
        outside the carrier is ever shifted into a mask.
        """
        pairs = list(pairs)
        down = dict.fromkeys(ids(carrier), 0)
        if not set(chain.from_iterable(pairs)) <= down.keys():
            w, u = next((w, u) for w, u in pairs if w not in down or u not in down)
            raise ModelError(f"relation pair ({w},{u}) leaves the carrier")
        for w, u in pairs:
            down[u] |= 1 << w
        return cls(carrier, *_closure(down))

    @classmethod
    def identity(cls, carrier: int) -> "Preorder":
        worlds = ids(carrier)
        return cls(carrier, {w: 1 << w for w in worlds}, dict.fromkeys(worlds, 0))

    @classmethod
    def total(cls, carrier: int) -> "Preorder":
        worlds = ids(carrier)
        return cls(carrier, dict.fromkeys(worlds, carrier), dict.fromkeys(worlds, 0))

    @property
    def _up(self) -> dict[WorldId, int]:
        """Per world w, the mask of all u with w <= u, closed from the
        reduction's pairs on every read. Only the benchmark's tracer reads
        it (bench/tracing.py counts relation pairs from it)."""
        up = dict.fromkeys(self._down, 0)
        for w, u in self.reduction_pairs():
            up[w] |= 1 << u
        return _closure(up)[0]

    def down_rows(self, strict: bool = False) -> Mapping[WorldId, int]:
        """Per world w, the mask of all u with u <= w (u < w if strict).

        Read only.
        """
        return self._sdown if strict else self._down

    def le(self, w: WorldId, u: WorldId) -> bool:
        return bool(self._down[u] >> w & 1)

    def lt(self, w: WorldId, u: WorldId) -> bool:
        return bool(self._sdown[u] >> w & 1)

    @property
    def pairs(self) -> frozenset[tuple[WorldId, WorldId]]:
        return frozenset(
            (w, u) for u, row in self._down.items() for w in _bits(row)
        )

    def strict_pairs(self) -> frozenset[tuple[WorldId, WorldId]]:
        """The strict part: all (w,u) with w <= u and not u <= w."""
        return frozenset(
            (w, u) for u, row in self._sdown.items() for w in _bits(row)
        )

    def reduction_pairs(self) -> list[list[WorldId]]:
        """The canonical transitive reduction, as ascending pairs [w, u].

        A minimum set of generator pairs whose reflexive-transitive closure
        is this preorder. A tie class c0 < c1 < ... < ck (k >= 1) gives the
        cycle [c0,c1] ... [c(k-1),ck], [ck,c0]. Where class C' covers class C
        (C' strictly above C, no class in between), [min C, min C'] links
        them. Reflexive pairs are left out.

        Only down rows are read. The class minima, sorted by down-set size,
        are a linear extension of the order. A class minimum's candidates
        are the class minima strictly below it; the highest-placed candidate
        left is a lower cover, since anything between them would be placed
        higher and still be left. Each cover masks out its own strict down
        row, so one row is read per cover, not per candidate. The pick walks
        the extension downward when the candidates are many (a chain covers
        at once), and sorts them by place when they are few (a tree's are
        spread over the whole extension).
        """
        down, sdown = self._down, self._sdown
        ties = {w: row & ~sdown[w] for w, row in down.items()}
        minima = sorted((w for w, t in ties.items() if t & -t == 1 << w),
                        key=lambda w: down[w].bit_count())
        place = {w: i for i, w in enumerate(minima)}
        out = dict.fromkeys(down, 0)
        for w, t in ties.items():
            if t != 1 << w:
                later = t >> (w + 1) << (w + 1)
                out[w] = later & -later or t & -t  # next member, or wrap to c0
        heads = mask(minima)
        for u in minima:
            left = sdown[u] & heads
            if not left:
                continue
            bit, top = 1 << u, place[u]
            if left.bit_count() * _SCAN_RATIO < top:
                picks = sorted(_bits(left), key=place.__getitem__, reverse=True)
            else:
                picks = map(minima.__getitem__, range(top - 1, -1, -1))
            for w in picks:
                if left >> w & 1:
                    out[w] |= bit
                    left &= ~down[w]  # w is the only class minimum in its class
                    if not left:
                        break
        pairs: list[list[WorldId]] = []
        for w in sorted(out):
            for u in _bits(out[w]):
                pairs.append([w, u])
        return pairs

    def min_set(self, s: int) -> int:
        """The worlds of mask s with no strictly smaller world in s."""
        if s & ~self.carrier:
            raise ModelError(f"worlds {ids(s & ~self.carrier)} outside carrier")
        sdown = self._sdown
        return sum(1 << w for w in ids(s) if not sdown[w] & s)

    def restrict(self, keep: int) -> "Preorder":
        if keep & ~self.carrier:
            raise ModelError(f"worlds {ids(keep & ~self.carrier)} outside carrier")
        worlds = ids(keep)
        return Preorder(keep, {w: self._down[w] & keep for w in worlds},
                        {w: self._sdown[w] & keep for w in worlds})

    def validate(self) -> Optional[Violation]:
        """The first missing reflexive pair, else the first missing
        transitive one: for x and u <= x in ascending order, the lowest w
        in u's down row but not in x's."""
        for w in sorted(self._down):
            if not self.le(w, w):
                return Violation("reflexivity", (w,))
        for x in sorted(self._down):
            row = self._down[x]
            for u in _bits(row):
                missing = self._down[u] & ~row
                if missing:
                    w = (missing & -missing).bit_length() - 1
                    return Violation("transitivity", (w, u, x))
        return None

    def __eq__(self, other):
        return (isinstance(other, Preorder)
                and self.carrier == other.carrier and self._down == other._down)

    def __hash__(self):
        return hash((self.carrier, tuple(sorted(self._down.items()))))

    def __repr__(self):
        nonrefl = sorted((w, u) for (w, u) in self.pairs if w != u)
        return f"Preorder({ids(self.carrier)}, {nonrefl})"


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
    for a in atoms:
        fm.Atom(a)  # name check
    worlds: set[WorldId] = set()
    truths: dict[str, set[WorldId]] = {a: set() for a in atoms}
    if not isinstance(world_docs, list):
        raise ModelError(f"worlds must be a list of world entries, got {world_docs!r}")
    for wd in world_docs:
        if not isinstance(wd, dict) or "id" not in wd:
            raise ModelError(f"world entry must be an object with an id, got {wd!r}")
        w = wd["id"]
        if type(w) is not int or w < 0:
            raise ModelError(f"world id must be a non-negative int, got {w!r}")
        if w >> MAX_PROGRAM_ATOMS:
            raise ModelError(f"world id {w} is not below 2**{MAX_PROGRAM_ATOMS} "
                             f"= {1 << MAX_PROGRAM_ATOMS}")
        if w in worlds:
            raise ModelError(f"duplicate world id {w}")
        worlds.add(w)
        true_atoms = wd.get("true_atoms", [])
        if not isinstance(true_atoms, list):
            raise ModelError(f"world {w}: true_atoms must be a list of atoms, "
                             f"got {true_atoms!r}")
        for a in true_atoms:
            if not isinstance(a, str) or a not in truths:
                raise ModelError(f"world {w} lists unknown atom {a!r}")
            truths[a].add(w)
    wset = mask(worlds)
    val = {a: mask(ws) for a, ws in truths.items()}
    plaus = Preorder.from_pairs(wset, _checked_pairs(p_pairs, "plausibility"))
    des = Preorder.from_pairs(wset, _checked_pairs(d_pairs, "desirability"))
    intentions = frozenset(_names(doc.get("intentions", []), "intentions"))
    return AgentModel(atoms, wset, plaus, des, val, intentions)


def _names(value, field: str) -> list:
    """A field that must list strings (atom names or plan symbols)."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"{field} must be a list of names, got {value!r}")
    return value


def _checked_pairs(pairs, field: str) -> list:
    """A relation field, once it is known to list pairs [w, u] of ints.

    The test runs over the whole list at C speed; only a rejected list is
    searched again for the first pair to name in the error. An int that is
    no world id, negative ones included, is left to from_pairs, which
    reports the pair as leaving the carrier.
    """
    if not isinstance(pairs, list):
        raise ModelError(f"{field} must be a list of pairs, got {pairs!r}")
    if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int}):
        return pairs
    bad = next(p for p in pairs if not (
        type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int))
    raise ModelError(f"{field} pair {bad!r} is not two world ids")


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
