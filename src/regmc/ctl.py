"""Branching-time (CTL) property checking over the quotient graph.

Formulas speak about locations and register (dis)equalities — exactly the
observations the finite quotient preserves — under the usual boolean and
path operators with next (EX), until (EU), and always-on-some-path (EG) as
the core; the remaining operators are abbreviations expanded at
construction time.  Satisfaction sets are computed by the standard labeling
recursion: atoms compare the block and label columns of the universe table
(``matrices.universe_table``), EU is a least fixpoint of
``Z ↦ f₁ ∪ (f₀ ∩ EX Z)``, EG a greatest fixpoint of ``Z ↦ f ∩ EX Z``
started at the full labeling of ``f``.  A class satisfies a formula exactly
when every valuation in it does, so answers transfer verbatim to the
infinite concrete system; the test suite checks this against an
explicit-state checker over bounded concrete graphs.

The public operations exchange plain sets of configurations; internally a
set is one (locations × classes) boolean array, rows in declaration order
and columns in universe order, so NOT, AND and the fixpoint steps are plain
array expressions, with results memoized per structurally-equal
subformula.  Evaluation and hashing recurse over the formula, so
``model_check`` and ``compute_ctl`` refuse formulas nested deeper than
``MAX_FORMULA_DEPTH`` with ``ValueError`` before touching them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regmc.matrices import RepConfig
from regmc.reach import QuotientGraph


@dataclass(frozen=True)
class AtLocation:
    location: str


@dataclass(frozen=True)
class RegEq:
    i: int
    j: int


@dataclass(frozen=True)
class RegEqConst:
    i: int
    c: int


@dataclass(frozen=True)
class Not:
    f: CtlFormula


@dataclass(frozen=True)
class And:
    f0: CtlFormula
    f1: CtlFormula


@dataclass(frozen=True)
class EX:
    f: CtlFormula


@dataclass(frozen=True)
class EU:
    f0: CtlFormula
    f1: CtlFormula


@dataclass(frozen=True)
class EG:
    f: CtlFormula


CtlFormula = AtLocation | RegEq | RegEqConst | Not | And | EX | EU | EG

FALSE = Not(RegEq(0, 0))
TRUE = Not(FALSE)

LabelSet = set[RepConfig]


def or_(f0: CtlFormula, f1: CtlFormula) -> CtlFormula:
    return Not(And(Not(f0), Not(f1)))


def implies(f0: CtlFormula, f1: CtlFormula) -> CtlFormula:
    return Not(And(f0, Not(f1)))


def ax(f: CtlFormula) -> CtlFormula:
    return Not(EX(Not(f)))


def ef(f: CtlFormula) -> CtlFormula:
    return EU(TRUE, f)


def ag(f: CtlFormula) -> CtlFormula:
    return Not(ef(Not(f)))


def af(f: CtlFormula) -> CtlFormula:
    return Not(EG(Not(f)))


# Evaluation, structural hashing and serialization recurse over the formula
# tree; this depth keeps them well inside the interpreter's recursion limit.
MAX_FORMULA_DEPTH = 150


def formula_depth(f: CtlFormula) -> int:
    """Nesting depth of ``f``, counted iteratively and without hashing."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, (Not, EX, EG)):
            stack.append((g.f, d + 1))
        elif isinstance(g, (And, EU)):
            stack += [(g.f0, d + 1), (g.f1, d + 1)]
    return deepest


def check_depth(f: CtlFormula) -> None:
    """Raise ``ValueError`` for a formula nested deeper than ``MAX_FORMULA_DEPTH``."""
    if formula_depth(f) > MAX_FORMULA_DEPTH:
        raise ValueError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")


def _ap_masks(graph: QuotientGraph, atom: CtlFormula) -> np.ndarray:
    n = graph.ra.num_registers
    if isinstance(atom, AtLocation):
        masks = graph._empty_masks()
        masks[graph._location_index(atom.location)] = True
        return masks
    if isinstance(atom, RegEq):
        if not (0 <= atom.i < n and 0 <= atom.j < n):
            raise ValueError(f"register index out of range: {atom}")
        row = graph.table.block[:, atom.i] == graph.table.block[:, atom.j]
    elif isinstance(atom, RegEqConst):
        if not 0 <= atom.i < n:
            raise ValueError(f"register index out of range: {atom}")
        row = graph.table.label[:, atom.i] == atom.c
    else:
        raise ValueError(f"not an atomic formula: {atom}")
    return np.repeat(row[None, :], len(graph.ra.locations), axis=0)


def _eu_masks(graph: QuotientGraph, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    out = m1
    while True:
        nxt = m1 | (m0 & graph._ex_masks(out))
        if np.array_equal(nxt, out):
            return out
        out = nxt


def _eg_masks(graph: QuotientGraph, s: np.ndarray) -> np.ndarray:
    out = s
    while True:
        nxt = out & graph._ex_masks(out)
        if np.array_equal(nxt, out):
            return out
        out = nxt


def _eval(graph: QuotientGraph, f: CtlFormula, memo: dict[CtlFormula, np.ndarray]) -> np.ndarray:
    hit = memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, (AtLocation, RegEq, RegEqConst)):
        out = _ap_masks(graph, f)
    elif isinstance(f, Not):
        out = ~_eval(graph, f.f, memo)
    elif isinstance(f, And):
        out = _eval(graph, f.f0, memo) & _eval(graph, f.f1, memo)
    elif isinstance(f, EX):
        out = graph._ex_masks(_eval(graph, f.f, memo))
    elif isinstance(f, EU):
        out = _eu_masks(graph, _eval(graph, f.f0, memo), _eval(graph, f.f1, memo))
    elif isinstance(f, EG):
        out = _eg_masks(graph, _eval(graph, f.f, memo))
    else:
        raise ValueError(f"not a formula: {f!r}")
    memo[f] = out
    return out


def compute_ap(graph: QuotientGraph, atom: CtlFormula) -> LabelSet:
    """Configurations satisfying one atom; rejects non-atomic input."""
    return graph._labelset(_ap_masks(graph, atom))


def compute_not(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Complement within the graph's node set."""
    return graph._labelset(~graph._masks_of(s))


def compute_and(s0: LabelSet, s1: LabelSet) -> LabelSet:
    return s0 & s1


def compute_ex(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Configurations with at least one successor in ``s``."""
    return graph._labelset(graph._ex_masks(graph._masks_of(s)))


def compute_eu(graph: QuotientGraph, s0: LabelSet, s1: LabelSet) -> LabelSet:
    """Least fixpoint of ``Z ↦ s1 ∪ (s0 ∩ EX Z)``."""
    return graph._labelset(_eu_masks(graph, graph._masks_of(s0), graph._masks_of(s1)))


def compute_eg(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Greatest fixpoint of ``Z ↦ s ∩ EX Z``, started at ``s``."""
    return graph._labelset(_eg_masks(graph, graph._masks_of(s)))


def compute_ctl(graph: QuotientGraph, f: CtlFormula) -> LabelSet:
    """All configurations satisfying ``f``, by memoized structural labeling."""
    check_depth(f)
    return graph._labelset(_eval(graph, f, {}))


def model_check(graph: QuotientGraph, f: CtlFormula) -> bool:
    """Whether every initial-location configuration satisfies ``f``."""
    check_depth(f)
    sat = _eval(graph, f, {})
    return bool(sat[graph._location_index(graph.ra.initial)].all())
