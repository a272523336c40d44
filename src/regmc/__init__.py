"""Finite-quotient reachability and CTL analysis for register automata.

The submodules split along the pipeline: ``core`` defines automata and
their concrete semantics, ``matrices`` the finite representation of
valuation classes as a table of one marker valuation per class, ``reach``
successor computation (one relational join over table columns per
transition), reachability over the quotient and the ``LabelSet`` views
that answer node sets, ``ctl`` the branching-time checker, ``dsl`` the textual formats, and ``cli`` the command-line front
end.  ``reference`` holds the literal scan implementations used for
differential checking; it alone writes a class as a constraint system, and
only ``cli`` imports it.  ``eqlogic``, the (dis)equality reasoning, serves
those reference scans only.
"""

from __future__ import annotations

from regmc.core import (
    Action,
    Assignment,
    Atom,
    Configuration,
    ConstantTerm,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Transition,
    check_run,
    concrete_successors,
    sufficient_pool,
)
from regmc.ctl import CtlFormula, compute_ctl, model_check
from regmc.dsl import (
    ParseError,
    SourceSpan,
    parse_automaton,
    parse_formula,
    parse_repconfig,
    serialize,
)
from regmc.matrices import (
    ONE,
    ZERO,
    RepConfig,
    RepMatrix,
    canonical_valuation,
    matrix_of_valuation,
    universe,
)
from regmc.reach import QuotientGraph, post, quotient_graph, reach, reachable_set

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Assignment",
    "Atom",
    "Configuration",
    "ConstantTerm",
    "CtlFormula",
    "ONE",
    "ParameterTerm",
    "ParseError",
    "QuotientGraph",
    "RegisterAutomaton",
    "RegisterTerm",
    "RepConfig",
    "RepMatrix",
    "SourceSpan",
    "Transition",
    "ZERO",
    "canonical_valuation",
    "check_run",
    "compute_ctl",
    "concrete_successors",
    "matrix_of_valuation",
    "model_check",
    "parse_automaton",
    "parse_formula",
    "parse_repconfig",
    "post",
    "quotient_graph",
    "reach",
    "reachable_set",
    "serialize",
    "sufficient_pool",
    "universe",
]
