"""Finite world sets, valuations, preorders, and agent models.

Worlds are small non-negative integers whose identity is stable within a
model value: restriction keeps surviving ids, and ids are never reused.
Relations are stored densely as per-world bit rows, one int per world: a
down row (the worlds at or below w), a strict down row (those strictly
below) and an up row (the worlds at or above w). Attitudes only look
below a world, so orders loaded from documents are down-first: the
closure runs on the reversed generator pairs and gives the down rows and
the tie classes directly, and the up rows are derived on first read. A
preorder built from up rows gets its down rows, and a loaded one its up
rows, from one word-parallel bit-matrix transpose, Warren's block swap
over the rows packed into one int. A carrier whose ids spread far wider
than its size is transposed over its worlds' ranks and spread back to
ids, so the matrix stays about the carrier's size. Restriction derives
its row sets directly, upgrade and contraction derive down rows and strict
down rows from the old ones, and the reduction a document is written from
reads down rows only, so none of them transposes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import itemgetter, or_
from typing import Iterable, Mapping, Optional

from . import formulas as fm

WorldId = int


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
    """A world set as a bit mask: bit w set for each world w."""
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


def _bits(row: int):
    """The set bits of row, ascending, one at a time: cheap on sparse rows
    and when the caller stops early."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(row: int):
    """The set bits of row, ascending, picked in C: the row is written out
    lowest bit first as one byte per bit, and compress keeps the set ones.
    Faster than _bits once a row holds more than a few bits."""
    return compress(count(), format(row, "b")[::-1].encode().translate(_BIT_BYTES))


_SWAP_COLUMN_BYTES = {1: b"\xaa", 2: b"\xcc", 4: b"\xf0"}


def _swap_masks(side: int):
    """(shift, mask) for each round of _swap, largest block first.

    Round j pairs bit (r, c) with bit (r + j, c - j): the mask holds the
    cells whose row has bit j clear and whose column has bit j set. It is
    built from repeated bytes: 0xAA, 0xCC and 0xF0 below a byte, runs of
    zero and 0xFF bytes above it.
    """
    zero_row = bytes(side // 8)
    j = side // 2
    while j:
        if j < 8:
            row = _SWAP_COLUMN_BYTES[j] * (side // 8)
        else:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (side // (2 * j))
        block = row * j + zero_row * j
        yield j * (side - 1), int.from_bytes(block * (side // (2 * j)), "little")
        j //= 2


def _swap(data: bytes, side: int) -> bytes:
    """Transpose a side x side bit matrix.

    data holds side rows of side bits each, little-endian, row r at bit
    r * side. Warren's swap (Hacker's Delight, 7-3) exchanges the
    off-diagonal blocks of every 2j x 2j block for j = side/2, ..., 1, each
    round a few operations on the whole matrix as one int.
    """
    x = int.from_bytes(data, "little")
    for shift, m in _swap_masks(side):
        t = (x ^ (x >> shift)) & m
        x ^= t ^ (t << shift)
    return x.to_bytes(side * side // 8, "little")


def _side(k: int) -> int:
    """The power of two at or above k, and at least one byte."""
    return 1 << max(3, (k - 1).bit_length())


def _transpose(carrier: frozenset[WorldId],
               up: Mapping[WorldId, int]) -> dict[WorldId, int]:
    """The down rows of the up rows: bit w of down[u] iff bit u of up[w].
    Transposing is its own inverse, so down rows give up rows the same way.

    The rows become one square bit matrix that _swap transposes
    word-parallel. When the carrier is dense, row and column w of the
    matrix stand for world w. When the id span is more than four times
    wider than the carrier (both rounded up to powers of two), that matrix
    would be mostly empty, so rows and columns stand for the worlds' ranks
    instead: each up row's runs of consecutive ids are cut out of its
    binary string before the swap, and each down row's runs are spread
    back to their ids after it, zeros filling the gaps. Either way the
    matrix side is at most four times the carrier's size, rounded up.
    """
    if not carrier:
        return {}
    ids = sorted(carrier)
    span = ids[-1] + 1
    dense = _side(span) <= 4 * _side(len(ids))
    if dense:
        side, places, rows = _side(span), ids, map(up.__getitem__, ids)
    else:
        side, places = _side(len(ids)), range(len(ids))
        runs, hi = [], ids[-1]  # (lowest, highest) id of each run, top run first
        for w, below in zip(ids[::-1], ids[-2::-1] + [-2]):
            if below != w - 1:
                runs.append((w, hi))
                hi = below
        fmt = f"0{span}b"
        # a leading empty cut keeps the result a tuple when there is one run
        id_runs = itemgetter(slice(0, 0), *(slice(span - 1 - hi, span - lo)
                                            for lo, hi in runs))
        rows = (int("".join(id_runs(format(up[w], fmt))), 2) for w in ids)
    row_bytes = side // 8
    packed, free = [], 0
    for p, row in zip(places, rows):
        packed += bytes((p - free) * row_bytes), row.to_bytes(row_bytes, "little")
        free = p + 1
    matrix = _swap(b"".join(packed), side)
    down = [int.from_bytes(matrix[p * row_bytes:(p + 1) * row_bytes], "little")
            for p in places]
    if not dense:
        fmt = f"0{len(ids)}b"
        ends = accumulate(hi - lo + 1 for lo, hi in runs)
        rank_runs = itemgetter(slice(0, 0), *(slice(end - (hi - lo + 1), end)
                                              for end, (lo, hi) in zip(ends, runs)))
        pieces = [""] * (2 * len(runs) + 1)  # each run after the gap above it
        pieces[1::2] = ("0" * (above - hi - 1)
                        for above, (_, hi) in zip([span] + [lo for lo, _ in runs], runs))
        spread = []
        for row in down:
            pieces[::2] = rank_runs(format(row, fmt))
            spread.append(int("".join(pieces), 2) << ids[0])
        down = spread
    return dict(zip(ids, down))


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

    Values are immutable once built. Constructors do not force the invariants
    (validate() reports the first violation), except from_pairs(close=True),
    which takes generator pairs and closes them reflexively-transitively.

    An order built from up rows holds both row sets from the start. An
    order closed from pairs, upgraded or contracted is down-first: it holds
    its down rows and strict down rows, and transposes its up rows once, on
    their first read. Down sets, minima, le, pairs, the reduction, equality
    and hashing read down rows only.
    """

    __slots__ = ("carrier", "_down", "_sdown", "_lazy_up")

    def __init__(self, carrier: frozenset[WorldId], up: dict[WorldId, int]):
        carrier = frozenset(carrier)
        self._set_rows(carrier, _transpose(carrier, up), None, dict(up))

    @classmethod
    def _of_rows(cls, carrier: frozenset[WorldId], up: dict[WorldId, int],
                 down: dict[WorldId, int]) -> "Preorder":
        """An order from rows the caller already knows to mirror each other
        (down the transpose of up), so no transpose runs."""
        return cls._of_down(carrier, down, None, up)

    @classmethod
    def _of_down(cls, carrier: frozenset[WorldId], down: dict[WorldId, int],
                 strict: Optional[dict[WorldId, int]],
                 up: Optional[dict[WorldId, int]] = None) -> "Preorder":
        """An order from its down rows. strict=None derives the strict down
        rows from the up rows; up=None leaves the up rows to their first
        read."""
        order = object.__new__(cls)
        order._set_rows(carrier, down, strict, up)
        return order

    def _set_rows(self, carrier, down, strict, up):
        if strict is None:  # w's tie class is up[w] & down[w]
            strict = {w: down[w] & ~up[w] for w in carrier}
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_sdown", strict)
        object.__setattr__(self, "_lazy_up", up)

    def __setattr__(self, name, value):
        raise AttributeError("Preorder is immutable")

    @classmethod
    def from_pairs(cls, carrier: Iterable[WorldId],
                   pairs: Iterable[tuple[WorldId, WorldId]],
                   close: bool = True) -> "Preorder":
        """The order generated by pairs (w, u), read w <= u.

        Each pair sets bit w of u's down row. With close, one closure pass
        over those rows gives the down rows and strict down rows. Without
        it, the rows are taken as they are and the up rows transposed.
        """
        carrier = frozenset(carrier)
        pairs = list(pairs)
        if not set(chain.from_iterable(pairs)) <= carrier:
            w, u = next((w, u) for w, u in pairs
                        if w not in carrier or u not in carrier)
            raise ModelError(f"relation pair ({w},{u}) leaves the carrier")
        down = dict.fromkeys(carrier, 0)
        for w, u in pairs:
            down[u] |= 1 << w
        if close:
            return cls._of_down(carrier, *_closure(down))
        return cls._of_rows(carrier, _transpose(carrier, down), down)

    @classmethod
    def identity(cls, carrier: Iterable[WorldId]) -> "Preorder":
        carrier = frozenset(carrier)
        return cls(carrier, {w: 1 << w for w in carrier})

    @classmethod
    def total(cls, carrier: Iterable[WorldId]) -> "Preorder":
        carrier = frozenset(carrier)
        full = mask(carrier)
        return cls(carrier, {w: full for w in carrier})

    @property
    def _up(self) -> dict[WorldId, int]:
        """The up rows, transposed from the down rows on first read and
        kept from then on."""
        up = self._lazy_up
        if up is None:
            up = _transpose(self.carrier, self._down)
            object.__setattr__(self, "_lazy_up", up)
        return up

    def up_rows(self) -> Mapping[WorldId, int]:
        """Per world w, the mask of all u with w <= u. Read only."""
        return self._up

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
            (w, u) for u in self.carrier for w in _bits(self._down[u])
        )

    def strict_pairs(self) -> frozenset[tuple[WorldId, WorldId]]:
        """The strict part: all (w,u) with w <= u and not u <= w."""
        return frozenset(
            (w, u) for u in self.carrier for w in _bits(self._sdown[u])
        )

    def reduction_pairs(self) -> list[list[WorldId]]:
        """The canonical transitive reduction, as ascending pairs [w, u].

        A minimum set of generator pairs whose reflexive-transitive closure
        is this preorder. A tie class c0 < c1 < ... < ck (k >= 1) gives the
        cycle [c0,c1] ... [c(k-1),ck], [ck,c0]. Where class C' covers class C
        (C' strictly above C, no class in between), [min C, min C'] links
        them. Reflexive pairs are left out.

        Only down rows are read. The classes a class covers are found from
        above: a class minimum's lower covers are the class minima strictly
        below it, less everything strictly below any of those; the OR over
        their rows runs at C speed.
        """
        down, sdown = self._down, self._sdown
        ties = {w: down[w] & ~sdown[w] for w in self.carrier}
        minima = [w for w, t in ties.items() if t & -t == 1 << w]
        out = dict.fromkeys(self.carrier, 0)
        for w, t in ties.items():
            if t != 1 << w:
                later = t >> (w + 1) << (w + 1)
                out[w] = later & -later or t & -t  # next member, or wrap to c0
        heads = mask(minima)
        for u in minima:
            s = sdown[u] & heads
            if s:
                bit = 1 << u
                for w in _set_bits(s & ~reduce(or_, map(sdown.__getitem__, _set_bits(s)))):
                    out[w] |= bit
        pairs: list[list[WorldId]] = []
        for w in sorted(self.carrier):
            if out[w]:
                pairs += map(list, zip(repeat(w), _set_bits(out[w])))
        return pairs

    def below(self, w: WorldId) -> frozenset[WorldId]:
        """All u with u <= w."""
        return frozenset(_bits(self._down[w]))

    def strictly_below(self, w: WorldId) -> frozenset[WorldId]:
        return frozenset(_bits(self._sdown[w]))

    def min_set(self, s: Iterable[WorldId]) -> frozenset[WorldId]:
        """Members of s with no strictly smaller member of s."""
        s = frozenset(s)
        if not s <= self.carrier:
            raise ModelError(f"worlds {sorted(s - self.carrier)} outside carrier")
        smask = mask(s)
        return frozenset(w for w in s if self._sdown[w] & smask == 0)

    def restrict(self, keep: Iterable[WorldId]) -> "Preorder":
        keep = frozenset(keep)
        if not keep <= self.carrier:
            raise ModelError(f"worlds {sorted(keep - self.carrier)} outside carrier")
        kmask = mask(keep)
        up = self._lazy_up
        return Preorder._of_down(
            keep, {w: self._down[w] & kmask for w in keep},
            {w: self._sdown[w] & kmask for w in keep},
            None if up is None else {w: up[w] & kmask for w in keep})

    def validate(self) -> Optional[Violation]:
        for w in sorted(self.carrier):
            if not self.le(w, w):
                return Violation("reflexivity", (w,))
        for w in sorted(self.carrier):
            for u in sorted(_bits(self._up[w])):
                for x in sorted(_bits(self._up[u])):
                    if not self.le(w, x):
                        return Violation("transitivity", (w, u, x))
        return None

    def __eq__(self, other):
        return (isinstance(other, Preorder)
                and self.carrier == other.carrier and self._down == other._down)

    def __hash__(self):
        return hash((self.carrier, tuple(sorted(self._down.items()))))

    def __repr__(self):
        nonrefl = sorted((w, u) for (w, u) in self.pairs if w != u)
        return f"Preorder({sorted(self.carrier)}, {nonrefl})"


# ---------------------------------------------------------------------------
# Models

Valuation = Mapping[str, frozenset[WorldId]]


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
    worlds: frozenset[WorldId]
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

    def true_atoms(self, w: WorldId) -> frozenset[str]:
        return frozenset(a for a in self.atoms if w in self.valuation[a])

    def world_bits(self, w: WorldId) -> str:
        """Valuation of w as a 0/1 string in declared atom order."""
        return "".join("1" if w in self.valuation[a] else "0" for a in self.atoms)

    @cached_property
    def bits_by_world(self) -> Mapping[WorldId, str]:
        """world_bits of every world, computed together once per model
        value. Read only."""
        n = len(self.atoms)
        codes = dict.fromkeys(self.worlds, 1 << n)  # a leading 1 keeps zeros
        for i, a in enumerate(self.atoms):
            bit = 1 << (n - 1 - i)
            for w in self.valuation[a] & self.worlds:
                codes[w] |= bit
        return {w: format(code, "b")[1:] for w, code in codes.items()}

    def restrict(self, keep: Iterable[WorldId]) -> "AgentModel":
        """Intersect worlds, both orders, and the valuation with keep."""
        keep = frozenset(keep)
        if not keep <= self.worlds:
            raise ModelError(f"worlds {sorted(keep - self.worlds)} not in model")
        return dataclasses.replace(
            self,
            worlds=keep,
            plausibility=self.plausibility.restrict(keep),
            desirability=self.desirability.restrict(keep),
            valuation={a: ws & keep for a, ws in self.valuation.items()},
        )


def satisfying_worlds(f: "fm.Formula", worlds: frozenset[WorldId],
                      valuation: Valuation) -> frozenset[WorldId]:
    """Worlds satisfying a propositional formula."""
    if isinstance(f, fm.Atom):
        if f.name not in valuation:
            raise UnknownAtomError(f"unknown atom {f.name!r}")
        return frozenset(valuation[f.name]) & worlds
    if isinstance(f, fm.Top):
        return worlds
    if isinstance(f, fm.Bottom):
        return frozenset()
    if isinstance(f, fm.Not):
        return worlds - satisfying_worlds(f.child, worlds, valuation)
    if isinstance(f, fm.And):
        return (satisfying_worlds(f.left, worlds, valuation)
                & satisfying_worlds(f.right, worlds, valuation))
    if isinstance(f, fm.Or):
        return (satisfying_worlds(f.left, worlds, valuation)
                | satisfying_worlds(f.right, worlds, valuation))
    if isinstance(f, fm.Implies):
        return ((worlds - satisfying_worlds(f.left, worlds, valuation))
                | satisfying_worlds(f.right, worlds, valuation))
    raise ModelError(f"not a propositional formula: {fm.render(f)}")


# ---------------------------------------------------------------------------
# Model documents (JSON-shaped dicts)

def load_model(doc: dict) -> AgentModel:
    """Build a model from a document.

    Expected fields: atoms, worlds (id + true_atoms), plausibility and
    desirability as generator pair lists (closed reflexively-transitively
    here), and an optional intentions list.
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
    wset = frozenset(worlds)
    val = {a: frozenset(ws) for a, ws in truths.items()}
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
    return sorted(sorted(m.worlds), key=m.bits_by_world.__getitem__)


def dump_model(m: AgentModel) -> dict:
    """Serialize to the model document shape, deterministically ordered.

    Each order is written as its canonical transitive reduction; load_model
    closes it again, so the document loads back to the same model.
    """
    return {
        "atoms": list(m.atoms),
        "worlds": [
            {"id": w, "true_atoms": sorted(m.true_atoms(w))}
            for w in sorted_worlds(m)
        ],
        "plausibility": m.plausibility.reduction_pairs(),
        "desirability": m.desirability.reduction_pairs(),
        "intentions": sorted(m.intentions),
    }
