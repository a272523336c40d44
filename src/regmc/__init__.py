"""Finite-quotient reachability and CTL analysis for register automata.

The submodules split along the pipeline.  Without numpy: ``core`` defines
automata, their concrete semantics and the step sampler behind ``regmc
simulate``; ``classes`` the representative matrices that name valuation
classes, with their closed-form counts; ``formulas`` the CTL syntax; and
``dsl`` the textual formats.  On numpy: ``matrices`` the universe of
classes as a table of one marker valuation per class; ``reach`` successor
computation (one relational join over table columns per transition),
reachability over the quotient and the ``LabelSet`` views that answer node
sets; and ``ctl`` the branching-time checker.  ``cli`` is the command-line
front end, and imports each engine module only in the subcommands that run
it.  The literal constraint scans that judge the engine live with the
tests (``tests/reference.py`` and ``tests/eqlogic.py``), not here.

The numpy-backed names below (``post``, ``quotient_graph``, ``universe``,
``compute_ctl`` and the rest) are imported on first access, so importing
the package, or a numpy-free submodule, does not load numpy.
"""

from __future__ import annotations

import importlib
import sys
import types

from regmc.classes import (
    ONE,
    ZERO,
    RepConfig,
    RepMatrix,
    canonical_valuation,
    matrix_of_valuation,
)
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
from regmc.dsl import (
    ParseError,
    SourceSpan,
    parse_automaton,
    parse_formula,
    parse_repconfig,
    serialize,
)
from regmc.formulas import CtlFormula

__version__ = "0.1.0"

# the exports that need numpy, by the module that defines them
_ENGINE = {
    "compute_ctl": "regmc.ctl",
    "model_check": "regmc.ctl",
    "universe": "regmc.matrices",
    "QuotientGraph": "regmc.reach",
    "post": "regmc.reach",
    "quotient_graph": "regmc.reach",
    "reach": "regmc.reach",
    "reachable_set": "regmc.reach",
}


def __getattr__(name: str) -> object:
    """Import an engine export on first access (PEP 562)."""
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_ENGINE[name]), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package, whose ``reach`` is the function, as it always was.

    Importing a submodule binds it on its package.  The submodule
    ``regmc.reach`` is not bound here, so ``regmc.reach`` stays the function
    however the submodule came to be imported; it stays reachable through
    ``sys.modules`` and ``from regmc.reach import …``.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if name != "reach" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


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
