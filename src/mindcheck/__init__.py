"""Finite-model reasoning about preference-based BDI mental states.

Models carry one world set with plausibility and desirability preorders;
formulas of a conditional belief/goal/intention language are checked by
extension computation; mental change (announcement, radical upgrade, natural
contraction, plan execution) is available both on models and on the priority
graphs of agent programs, and the two levels commute.
"""

from .formulas import (
    Atom, Top, Bottom, Not, And, Or, Implies, A, E, Box, Diamond, Mu,
    Bel, Goal, AdmInt, Int, DynMod, PlanMod, Intends, Formula,
    ParseError, desugar, is_propositional, parse, render,
)
from .models import (
    AgentModel, ModelError, Preorder,
    Violation, dump_model, load_model, satisfying_worlds,
)
from .plans import (
    Plan, PlanFailure, PlanLibrary, check_p_consistency, dump_library,
    load_library, make_plan,
)
from .pgraph import (
    AgentProgram, PriorityGraph, ProgramError, dump_program, extract_graph,
    induce_program, induced_order, load_program, make_graph,
)
from .dynamics import (
    announce, contract, filter_intentions, graph_announce, graph_contract,
    graph_upgrade, product_update, revise_drop, upgrade,
)
from .checker import (
    EmptyModelError, check_proposition1, extension, holds,
)

__version__ = "0.1.0"
