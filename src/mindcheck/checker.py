"""Semantic evaluation: the extension of a formula in a finite agent model.

Evaluation is bottom-up over extension masks (bit w for world w, as in
models) by models.satisfying_worlds, which hands every modal node to this
module: a box or diamond tests each tie class's row against its argument's
mask once and keeps or drops the class's members together; a strict row is
the class's row less the class. Mental-attitude sugar expands to its
defining A/E-prefixed form first, so attitude formulas always come out
globally uniform (extension 0 or the whole world mask); each node object of
the expansion is evaluated once per model, so the arguments the sugar
shares cost their size once. Dynamic and plan modalities build the
transformed model and evaluate the body there; worlds the transformation
removes satisfy the modality vacuously.
"""

from __future__ import annotations

import functools
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
    """The mask of the worlds of m at which f holds. Every atom of f must
    be one of m's, whichever branch evaluation takes."""
    if not m.worlds:
        raise EmptyModelError("cannot evaluate formulas on an empty model")
    core = fm.desugar(f, lib)
    unknown = fm.atoms_of(f) - m.valuation.keys()
    if unknown:
        raise md.UnknownAtomError(f"unknown atom {min(unknown)!r}")
    return md.satisfying_worlds(core, m.worlds, m.valuation,
                                functools.partial(_modal, m, lib))


def holds(m: md.AgentModel, lib: pl.PlanLibrary, f: fm.Formula) -> bool:
    """Global truth: f holds at every world of m."""
    return extension(m, lib, f) == m.worlds


def _modal(m: md.AgentModel, lib: pl.PlanLibrary, f: fm.Formula, ext) -> int:
    """The mask of a non-propositional core node; ext gives an operand's."""
    if isinstance(f, fm.A):
        return m.worlds if ext(f.child) == m.worlds else 0
    if isinstance(f, fm.E):
        return m.worlds if ext(f.child) else 0
    if isinstance(f, (fm.Box, fm.Diamond)):
        # a box is the dual diamond's complement; the classes cover the
        # carrier, m.worlds, and disjoint masks sum
        box = isinstance(f, fm.Box)
        inside = ext(f.child) ^ (m.worlds if box else 0)
        seen = sum(tie for row, tie in m.order(f.order).classes.items()
                   if (row & ~tie if f.strict else row) & inside)
        return m.worlds ^ seen if box else seen
    if isinstance(f, fm.DynMod):
        if f.op != "announce":
            change = dy.upgrade if f.op == "upgrade" else dy.contract
            return extension(change(m, f.order, f.argument), lib, f.body)
        survivors = ext(f.argument)
        if not survivors:
            return m.worlds  # nothing to announce truthfully anywhere
        transformed = dy.announce(m, f.argument)
        return (m.worlds & ~survivors) | extension(transformed, lib, f.body)
    if isinstance(f, fm.PlanMod):
        executable = ext(lib.get(f.plan).pre)
        if not executable:
            return m.worlds  # nowhere executable, vacuously satisfied
        transformed = dy.product_update(m, lib, f.plan)
        return (m.worlds & ~executable) | extension(transformed, lib, f.body)
    if isinstance(f, fm.Intends):
        return m.worlds if f.plan in m.intentions else 0
    raise CheckError(f"cannot evaluate {f!r}")


def check_proposition1(m: md.AgentModel,
                       lib: pl.PlanLibrary) -> Optional[pl.PlanFailure]:
    """Adopted plans must be believed executable and their goals intended.

    Returns the first plan whose precondition is not believed or whose
    post-condition is not an intention proper, or None when the connection
    between plans-as-intentions and intentions-to-be is intact.
    """
    return pl.first_plan_failure(m, lib, fm.Int)
