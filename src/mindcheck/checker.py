"""Semantic evaluation: the extension of a formula in a finite agent model.

Evaluation is bottom-up over extension masks (bit w for world w, as in
models): connectives are mask operations, and a box or diamond tests each
world's order row against its argument's mask. Mental-attitude sugar
expands to its defining A/E-prefixed form first, so attitude formulas always
come out globally uniform (extension 0 or the whole world mask) and the
per-formula memo is sound. Dynamic and plan modalities build the transformed
model and evaluate the body there; worlds the transformation removes satisfy
the modality vacuously.
"""

from __future__ import annotations

from typing import Optional

from . import dynamics as dy
from . import formulas as fm
from . import models as md
from . import plans as pl


class CheckError(Exception):
    pass


class EmptyModelError(CheckError):
    pass


def extension(m: md.AgentModel, lib: pl.PlanLibrary, f: fm.Formula) -> int:
    """The mask of the worlds of m at which f holds."""
    if not m.worlds:
        raise EmptyModelError("cannot evaluate formulas on an empty model")
    core = fm.desugar(f, lib)
    return _Evaluator(m, lib).ext(core)


def holds(m: md.AgentModel, lib: pl.PlanLibrary, f: fm.Formula) -> bool:
    """Global truth: f holds at every world of m."""
    return extension(m, lib, f) == m.worlds


class _Evaluator:
    def __init__(self, m: md.AgentModel, lib: pl.PlanLibrary):
        self.m = m
        self.lib = lib
        self.memo: dict[fm.Formula, int] = {}

    def ext(self, f: fm.Formula) -> int:
        cached = self.memo.get(f)
        if cached is None:
            cached = self.memo[f] = self._ext(f)
        return cached

    def _ext(self, f: fm.Formula) -> int:
        m = self.m
        if isinstance(f, fm.Atom):
            if f.name not in m.valuation:
                raise md.UnknownAtomError(f"unknown atom {f.name!r}")
            return m.valuation[f.name] & m.worlds
        if isinstance(f, fm.Top):
            return m.worlds
        if isinstance(f, fm.Bottom):
            return 0
        if isinstance(f, fm.Not):
            return m.worlds & ~self.ext(f.child)
        if isinstance(f, fm.And):
            return self.ext(f.left) & self.ext(f.right)
        if isinstance(f, fm.Or):
            return self.ext(f.left) | self.ext(f.right)
        if isinstance(f, fm.Implies):
            return (m.worlds & ~self.ext(f.left)) | self.ext(f.right)
        if isinstance(f, fm.A):
            return m.worlds if self.ext(f.child) == m.worlds else 0
        if isinstance(f, fm.E):
            return m.worlds if self.ext(f.child) else 0
        # rows are keyed by the carrier, m.worlds; distinct bits sum to a mask
        if isinstance(f, fm.Box):
            outside = ~self.ext(f.child)
            rows = m.order(f.order).down_rows(f.strict)
            return sum(1 << w for w, row in rows.items() if not row & outside)
        if isinstance(f, fm.Diamond):
            inside = self.ext(f.child)
            rows = m.order(f.order).down_rows(f.strict)
            return sum(1 << w for w, row in rows.items() if row & inside)
        if isinstance(f, fm.DynMod):
            return self._dynamic(f)
        if isinstance(f, fm.PlanMod):
            return self._plan_step(f)
        if isinstance(f, fm.Intends):
            return m.worlds if f.plan in m.intentions else 0
        raise CheckError(f"cannot evaluate {f!r}")

    def _dynamic(self, f: fm.DynMod) -> int:
        m = self.m
        if f.op == "announce":
            survivors = self.ext(f.argument)
            if not survivors:
                return m.worlds  # nothing to announce truthfully anywhere
            transformed = dy.announce(m, f.argument)
            return (m.worlds & ~survivors) | extension(transformed, self.lib, f.body)
        if f.op == "upgrade":
            transformed = dy.upgrade(m, f.order, f.argument)
        else:
            transformed = dy.contract(m, f.order, f.argument)
        return extension(transformed, self.lib, f.body)

    def _plan_step(self, f: fm.PlanMod) -> int:
        m = self.m
        plan = self.lib.get(f.plan)
        executable = self.ext(plan.pre)
        if not executable:
            return m.worlds  # nowhere executable, vacuously satisfied
        transformed = dy.product_update(m, self.lib, f.plan)
        return (m.worlds & ~executable) | extension(transformed, self.lib, f.body)


def check_proposition1(m: md.AgentModel,
                       lib: pl.PlanLibrary) -> Optional[pl.PlanFailure]:
    """Adopted plans must be believed executable and their goals intended.

    Returns the first plan whose precondition is not believed or whose
    post-condition is not an intention proper, or None when the connection
    between plans-as-intentions and intentions-to-be is intact.
    """
    return pl.first_plan_failure(m, lib, fm.Int)
