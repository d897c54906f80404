"""Reference semantics the benchmark checks mindcheck's outputs against.

Nothing here imports the engine. Formulas are nested tuples (see ``gen``),
world sets are int bit masks over world *positions* (index into a model's
``ids``), and an order is a list of "up" rows: bit j of ``up[i]`` says that
world i is at least as good as world j (``i <= j``; lower is better, as in
the engine's file format). Restriction never renumbers positions: a model
carries a mask of live worlds and every row is read through it.

The definitions follow the README: lexicographic induction from priority
graphs, B/G as truth in the minima of the condition, AdmInt, Int backed by
an adopted plan, and the four dynamic operations.
"""

from __future__ import annotations

import re


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(up: list[int], live: int) -> list[int]:
    """down[j] = {i in live : i <= j}, from up rows."""
    down = [0] * len(up)
    for i in bits(live):
        flag = 1 << i
        for j in bits(up[i] & live):
            down[j] |= flag
    return down


def close(n: int, pairs) -> list[int]:
    """Reflexive-transitive closure of generator pairs, as up rows."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    # Warshall over bit rows: after step k, paths through 0..k are closed.
    for k in range(n):
        flag, row_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & flag:
                up[i] |= row_k
    return up


class Order:
    """Up rows plus lazily built down rows, over a model's positions."""

    __slots__ = ("up", "_down", "_live")

    def __init__(self, up: list[int], live: int):
        self.up = up
        self._live = live
        self._down = None

    @property
    def down(self) -> list[int]:
        if self._down is None:
            self._down = transpose(self.up, self._live)
        return self._down

    def min_set(self, s: int) -> int:
        """Members of s with no strictly better member of s."""
        up, down = self.up, self.down
        return sum(1 << w for w in bits(s) if down[w] & ~up[w] & s == 0)


class Model:
    """Live worlds, valuation masks, the two orders and the intentions."""

    def __init__(self, ids, atoms, val, orders, intentions, live=None):
        self.ids = ids
        self.atoms = tuple(atoms)
        self.val = val                      # atom -> mask
        self.orders = orders                # "P"/"D" -> Order
        self.intentions = frozenset(intentions)
        self.live = (1 << len(ids)) - 1 if live is None else live

    def with_(self, live=None, val=None, orders=None, intentions=None):
        return Model(self.ids, self.atoms,
                     self.val if val is None else val,
                     self.orders if orders is None else orders,
                     self.intentions if intentions is None else intentions,
                     self.live if live is None else live)

    def count(self) -> int:
        return self.live.bit_count()

    def id_set(self, mask: int) -> list[int]:
        return sorted(self.ids[i] for i in bits(mask & self.live))


def model_from_doc(doc: dict) -> Model:
    """Build a reference model from a model document (ids in file order)."""
    atoms = doc["atoms"]
    ids = [w["id"] for w in doc["worlds"]]
    pos = {w: i for i, w in enumerate(ids)}
    val = {a: 0 for a in atoms}
    for i, w in enumerate(doc["worlds"]):
        for a in w["true_atoms"]:
            val[a] |= 1 << i
    n, live = len(ids), (1 << len(ids)) - 1
    orders = {
        tag: Order(close(n, [(pos[a], pos[b]) for a, b in doc[key]]), live)
        for tag, key in (("P", "plausibility"), ("D", "desirability"))
    }
    return Model(ids, atoms, val, orders, doc.get("intentions", ()))


# ---------------------------------------------------------------------------
# Propositional truth and lexicographic induction

def prop(f, val: dict, live: int) -> int:
    """Mask of live worlds satisfying a propositional formula."""
    tag = f[0]
    if tag == "atom":
        return val[f[1]] & live
    if tag == "T":
        return live
    if tag == "F":
        return 0
    if tag == "not":
        return live & ~prop(f[1], val, live)
    left, right = prop(f[1], val, live), prop(f[2], val, live)
    if tag == "and":
        return left & right
    if tag == "or":
        return left | right
    if tag == "imp":
        return (live & ~left) | right
    raise ValueError(f"not propositional: {f!r}")


def prec_closure(n: int, edges) -> list[int]:
    """higher[i]: mask of nodes that outrank node i, transitively."""
    higher = [0] * n
    changed = True
    for hi, lo in edges:
        higher[lo] |= 1 << hi
    while changed:
        changed = False
        for i in range(n):
            acc = higher[i]
            for j in bits(higher[i]):
                acc |= higher[j]
            if acc != higher[i]:
                higher[i], changed = acc, True
    return higher


def lex_order(node_exts: list[int], higher: list[int], live: int) -> list[int]:
    """Up rows of the lexicographic order a priority graph induces.

    w <= u iff every node u satisfies and w misses is compensated by a
    strictly higher node w satisfies and u misses. The test depends only on
    the two worlds' node signatures, so it runs once per signature pair.
    """
    classes: dict[int, int] = {}
    for w in bits(live):
        sig = 0
        for i, ext in enumerate(node_exts):
            if ext >> w & 1:
                sig |= 1 << i
        classes[sig] = classes.get(sig, 0) | 1 << w
    up = [0] * live.bit_length()
    for sa, wa in classes.items():
        row = 0
        for sb, wb in classes.items():
            win = sa & ~sb
            if all(higher[i] & win for i in bits(sb & ~sa)):
                row |= wb
        for w in bits(wa):
            up[w] = row
    return up


# ---------------------------------------------------------------------------
# Dynamic operations (model level)

def announce(m: Model, phi) -> Model:
    return m.with_(live=prop(phi, m.val, m.live))


def upgrade(m: Model, tag: str, phi) -> Model:
    """phi-worlds become better than all others; the rest is kept."""
    live = m.live
    sat = prop(phi, m.val, live)
    rest = live & ~sat
    old = m.orders[tag].up
    up = list(old)
    for w in bits(live):
        up[w] = (old[w] & live) | rest if sat >> w & 1 else old[w] & rest
    return m.with_(orders={**m.orders, tag: Order(up, live)})


def contract(m: Model, tag: str, phi) -> Model:
    """The best non-phi worlds join the global minimum (natural contraction)."""
    live = m.live
    order = m.orders[tag]
    counter = live & ~prop(phi, m.val, live)
    min_counter = order.min_set(counter)
    bottom = order.min_set(live) | min_counter
    up = list(order.up)
    for w in bits(live):
        up[w] = live if bottom >> w & 1 else order.up[w] & live & ~min_counter
    return m.with_(orders={**m.orders, tag: Order(up, live)})


def product_update(m: Model, plan) -> Model:
    """Keep the precondition worlds and force the post-condition literals."""
    keep = prop(plan["pre"], m.val, m.live)
    val = {a: ws & keep for a, ws in m.val.items()}
    for a, value in plan["post"].items():
        val[a] = keep if value else 0
    return m.with_(live=keep, val=val)


# ---------------------------------------------------------------------------
# Formula semantics

class Evaluator:
    """Extension of a formula in one model; plans: name -> {pre, post}."""

    def __init__(self, m: Model, plans: dict):
        self.m = m
        self.plans = plans
        self.memo: dict = {}

    def holds(self, f) -> bool:
        return self.ext(f) == self.m.live

    def ext(self, f) -> int:
        got = self.memo.get(f)
        if got is None:
            got = self.memo[f] = self._ext(f)
        return got

    def _min(self, tag: str, f) -> int:
        return self.m.orders[tag].min_set(self.ext(f))

    def _global(self, ok: bool) -> int:
        return self.m.live if ok else 0

    def _bel(self, tag, consequent, condition) -> int:
        return self._global(self._min(tag, condition) & ~self.ext(consequent) == 0)

    def _admint(self, consequent, condition) -> int:
        return self._global(
            self._bel("D", consequent, condition) != 0
            and self.ext(consequent) & self.ext(condition) != 0
            and self._bel("P", consequent, condition) == 0)

    def _ext(self, f) -> int:
        m, tag = self.m, f[0]
        live = m.live
        if tag in ("atom", "T", "F"):
            return prop(f, m.val, live)
        if tag == "not":
            return live & ~self.ext(f[1])
        if tag == "and":
            return self.ext(f[1]) & self.ext(f[2])
        if tag == "or":
            return self.ext(f[1]) | self.ext(f[2])
        if tag == "imp":
            return (live & ~self.ext(f[1])) | self.ext(f[2])
        if tag in ("box", "dia"):
            _, order_tag, strict, child = f
            order = m.orders[order_tag]
            sat = self.ext(child)
            out = 0
            for w in bits(live):
                reach = order.down[w] & live
                if strict:
                    reach &= ~order.up[w]
                if (reach & ~sat == 0) if tag == "box" else (reach & sat != 0):
                    out |= 1 << w
            return out
        if tag == "mu":
            return self._min(f[1], f[2])
        if tag == "B":
            return self._bel("P", f[1], f[2])
        if tag == "G":
            return self._bel("D", f[1], f[2])
        if tag == "AdmInt":
            return self._admint(f[1], f[2])
        if tag == "Int":
            consequent, condition = f[1], f[2]
            if not self._admint(consequent, condition):
                return 0
            for name in sorted(self.plans):
                if name not in m.intentions:
                    continue
                achieved = ("and", self.plans[name]["pre"], ("plan", name, consequent))
                if self._bel("P", achieved, condition):
                    return live
            return 0
        if tag == "ann":
            survivors = self.ext(f[1])
            if not survivors:
                return live
            inner = Evaluator(announce(m, f[1]), self.plans).ext(f[2])
            return (live & ~survivors) | inner
        if tag in ("up", "drop"):
            op = upgrade if tag == "up" else contract
            return Evaluator(op(m, f[1], f[2]), self.plans).ext(f[3])
        if tag == "plan":
            plan = self.plans[f[1]]
            executable = prop(plan["pre"], m.val, live)
            if not executable:
                return live
            inner = Evaluator(product_update(m, plan), self.plans).ext(f[2])
            return (live & ~executable) | inner
        raise ValueError(f"unknown formula {f!r}")


def _p_failure(ev: Evaluator, plan):
    """Why an adopted plan breaks P-consistency, or None: its precondition
    must be believed and its post-condition an admissible intention."""
    if not ev.holds(("B", plan["pre"], ("T",))):
        return "precondition-not-believed"
    if not ev.holds(("AdmInt", plan["post_f"], ("T",))):
        return "postcondition-not-admissible"
    return None


def p_consistency(m: Model, plans: dict):
    """First (plan, reason) breaking P-consistency of m's intentions, or None."""
    ev = Evaluator(m, plans)
    for name in sorted(m.intentions):
        reason = _p_failure(ev, plans[name])
        if reason:
            return (name, reason)
    return None


def proposition1(m: Model, plans: dict):
    """First (plan, reason) breaking the plan/goal connection, or None."""
    ev = Evaluator(m, plans)
    for name in sorted(m.intentions):
        plan = plans[name]
        if not ev.holds(("B", plan["pre"], ("T",))):
            return (name, "precondition-not-believed")
        if not ev.holds(("Int", plan["post_f"], ("T",))):
            return (name, "postcondition-not-intended")
    return None


def filter_intentions(m: Model, plans: dict) -> Model:
    """Keep exactly the adopted plans that are still P-consistent."""
    ev = Evaluator(m, plans)
    kept = {name for name in m.intentions if _p_failure(ev, plans[name]) is None}
    return m.with_(intentions=frozenset(kept))


# ---------------------------------------------------------------------------
# Parsing propositional formula text (graph nodes written by the engine)

_TOKEN = re.compile(r"\s*(->|[()~&|]|[A-Za-z][A-Za-z0-9_]*)")


def parse_prop(text: str):
    """Parse propositional concrete syntax; loops keep deep chains flat."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot tokenize {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def implication():
        left = disjunction()
        if peek() == "->":
            take()
            return ("imp", left, implication())
        return left

    def disjunction():
        acc = conjunction()
        while peek() == "|":
            take()
            acc = ("or", acc, conjunction())
        return acc

    def conjunction():
        acc = prefixed()
        while peek() == "&":
            take()
            acc = ("and", acc, prefixed())
        return acc

    def prefixed():
        negations = 0
        while peek() == "~":
            take()
            negations += 1
        tok = take()
        if tok == "(":
            f = implication()
            take(")")
        elif tok in ("T", "F"):
            f = (tok,)
        elif tok[0].islower():
            f = ("atom", tok)
        else:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        for _ in range(negations):
            f = ("not", f)
        return f

    f = implication()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return f
