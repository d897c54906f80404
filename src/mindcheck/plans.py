"""Plan libraries: atomic actions with propositional pre/post conditions.

A post-condition is a consistent conjunction of literals ("T" stands for the
empty conjunction); executing a plan overwrites exactly the atoms it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import formulas as fm


class LibraryError(Exception):
    """A malformed plan library document."""


@dataclass(frozen=True)
class Plan:
    symbol: str
    pre: fm.Formula
    post: fm.Formula

    def post_literals(self) -> dict[str, bool]:
        """Atom polarities fixed by the post-condition."""
        lits = literal_conjunction(self.post)
        assert lits is not None  # enforced at construction
        return lits


@dataclass(frozen=True)
class PlanLibrary:
    plans: Mapping[str, Plan]

    def get(self, symbol: str) -> Plan:
        try:
            return self.plans[symbol]
        except KeyError:
            raise fm.UnknownPlanError(f"unknown plan symbol {symbol!r}") from None


EMPTY_LIBRARY = PlanLibrary({})


def literal_conjunction(f: fm.Formula) -> Optional[dict[str, bool]]:
    """Decompose f as a consistent conjunction of literals, else None.

    Top is the empty conjunction; contradictory or non-literal shapes give
    None.
    """
    lits: dict[str, bool] = {}

    def collect(g) -> bool:
        if isinstance(g, fm.Top):
            return True
        if isinstance(g, fm.And):
            return collect(g.left) and collect(g.right)
        if isinstance(g, fm.Atom):
            name, value = g.name, True
        elif isinstance(g, fm.Not) and isinstance(g.child, fm.Atom):
            name, value = g.child.name, False
        else:
            return False
        if lits.get(name, value) != value:
            return False  # both polarities present
        lits[name] = value
        return True

    return lits if collect(f) else None


def make_plan(symbol: str, pre: fm.Formula, post: fm.Formula) -> Plan:
    if not fm.is_propositional(pre):
        raise LibraryError(f"plan {symbol}: precondition must be propositional")
    if literal_conjunction(post) is None:
        raise LibraryError(
            f"plan {symbol}: post-condition must be a consistent "
            f"conjunction of literals"
        )
    return Plan(symbol, pre, post)


def load_library(doc: dict) -> PlanLibrary:
    """Build a library from a document: {"plans": [{name, pre, post}]}.

    A malformed document or plan entry is a LibraryError that names the
    field.
    """
    if not isinstance(doc, dict):
        raise LibraryError(f"a library must be an object, got {type(doc).__name__}")
    entries = doc.get("plans", [])
    if not isinstance(entries, list):
        raise LibraryError(f"plans must be a list of plan entries, got {entries!r}")
    plans: dict[str, Plan] = {}
    for pd in entries:
        if not isinstance(pd, dict):
            raise LibraryError(f"plan entry must be an object, got {pd!r}")
        for field in ("name", "pre", "post"):
            if field not in pd:
                raise LibraryError(f"plan entry missing field: {field!r}")
            if not isinstance(pd[field], str):
                raise LibraryError(f"plan entry field {field!r} must be a string, "
                                   f"got {pd[field]!r}")
        name = pd["name"]
        if name in plans:
            raise LibraryError(f"duplicate plan symbol {name!r}")
        try:
            fm.Atom(name)  # plan symbols share the atom names' class
        except fm.FormulaError:
            raise LibraryError(f"bad plan symbol {name!r}") from None
        try:
            pre = fm.parse(pd["pre"])
            post = fm.parse(pd["post"])
        except fm.ParseError as exc:
            raise LibraryError(f"plan {name}: {exc}") from exc
        plans[name] = make_plan(name, pre, post)
    return PlanLibrary(plans)


def dump_library(lib: PlanLibrary) -> dict:
    return {
        "plans": [
            {"name": name, "pre": fm.render(lib.plans[name].pre),
             "post": fm.render(lib.plans[name].post)}
            for name in sorted(lib.plans)
        ]
    }


@dataclass(frozen=True)
class PlanFailure:
    """Names the adopted plan and the condition it broke."""

    plan: str
    reason: str  # precondition-not-believed | postcondition-not-admissible
    #              | postcondition-not-intended

    def __str__(self):
        return f"plan {self.plan!r}: {self.reason}"


_POST_FAILURE = {fm.AdmInt: "postcondition-not-admissible",
                 fm.Int: "postcondition-not-intended"}


def plan_failure(m, lib: PlanLibrary, symbol: str,
                 post=fm.AdmInt) -> Optional[str]:
    """Why an adopted plan breaks its condition on m, or None.

    The precondition must be believed and the post-condition must hold
    under the post attitude: AdmInt for P-consistency, Int for the
    plan/goal connection (Proposition 1).
    """
    from . import checker  # the evaluator imports this module

    plan = lib.get(symbol)
    if not checker.holds(m, lib, fm.Bel(plan.pre, fm.Top())):
        return "precondition-not-believed"
    if not checker.holds(m, lib, post(plan.post, fm.Top())):
        return _POST_FAILURE[post]
    return None


def first_plan_failure(m, lib: PlanLibrary, post) -> Optional[PlanFailure]:
    """The first of m's intentions, in symbol order, that plan_failure
    rejects under the post attitude."""
    for symbol in sorted(m.intentions):
        reason = plan_failure(m, lib, symbol, post)
        if reason is not None:
            return PlanFailure(symbol, reason)
    return None


def check_p_consistency(m, lib: PlanLibrary) -> Optional[PlanFailure]:
    """First adopted plan violating P-consistency, if any.

    Each adopted plan must have a believed precondition and an admissible
    post-condition on m.
    """
    return first_plan_failure(m, lib, fm.AdmInt)
