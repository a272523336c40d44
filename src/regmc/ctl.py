"""Branching-time (CTL) property checking over the quotient graph.

Formulas speak about locations and register (dis)equalities — exactly the
observations the finite quotient preserves — under the usual boolean and
path operators with next (EX), until (EU), and always-on-some-path (EG) as
the core; the remaining operators are abbreviations expanded at
construction time.  Satisfaction sets are computed by the standard labeling
recursion: atoms compare the value columns of the universe table
(``matrices.universe_table``), EU is a least fixpoint of
``Z ↦ f₁ ∪ (f₀ ∩ EX Z)``, EG a greatest fixpoint of ``Z ↦ f ∩ EX Z``
started at the full labeling of ``f``.  A class satisfies a formula exactly
when every valuation in it does, so answers transfer verbatim to the
infinite concrete system; the test suite checks this against an
explicit-state checker over bounded concrete graphs.

A set of configurations is one (locations × classes) boolean array, rows
in declaration order and columns in universe order, so NOT, AND and the
fixpoint steps are plain array expressions, with results memoized per
structurally-equal subformula.  The public operations answer with a
read-only ``LabelSet`` view over that array, which counts, tests
membership and combines with other sets without building a configuration;
they take a view of the same graph as it is, and any other collection of
configurations by one batched lookup.  Evaluation walks each distinct node
once, with neither recursion nor recursive hashing, so a formula that
shares its subterms costs time in its size, not in its unfolded tree.
``model_check`` and ``compute_ctl`` still refuse formulas nested deeper
than ``MAX_FORMULA_DEPTH`` with ``ValueError``, the limit the parser and
the serializer keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regmc.core import RegisterAutomaton
from regmc.reach import LabelSet, QuotientGraph


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


# Structural hashing and serialization recurse over the formula tree; this
# depth keeps them well inside the interpreter's recursion limit.
MAX_FORMULA_DEPTH = 150


def _children(f: CtlFormula) -> tuple[CtlFormula, ...]:
    if isinstance(f, (Not, EX, EG)):
        return (f.f,)
    if isinstance(f, (And, EU)):
        return (f.f0, f.f1)
    return ()


def _postorder(f: CtlFormula) -> list[CtlFormula]:
    """Each distinct node of ``f`` (by identity) once, children first.

    Iterative and without hashing formulas, so a formula that shares its
    subterms costs time in its distinct nodes, not in its paths.
    """
    seen: set[int] = set()
    out: list[CtlFormula] = []
    stack: list[tuple[CtlFormula, bool]] = [(f, False)]
    while stack:
        g, done = stack.pop()
        if done:
            out.append(g)
        elif id(g) not in seen:
            seen.add(id(g))
            stack.append((g, True))
            stack += [(k, False) for k in _children(g)]
    return out


def formula_depth(f: CtlFormula) -> int:
    """Nesting depth of ``f``, counted once per distinct node."""
    height: dict[int, int] = {}
    for g in _postorder(f):
        height[id(g)] = 1 + max((height[id(k)] for k in _children(g)), default=0)
    return height[id(f)]


def check_depth(f: CtlFormula) -> None:
    """Raise ``ValueError`` for a formula nested deeper than ``MAX_FORMULA_DEPTH``."""
    if formula_depth(f) > MAX_FORMULA_DEPTH:
        raise ValueError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")


def check_atom(ra: RegisterAutomaton, atom: CtlFormula) -> None:
    """Raise ``ValueError`` for an atom that names an unknown location, a
    register index out of range, or an undeclared constant of ``ra``."""
    if isinstance(atom, AtLocation) and atom.location not in ra.locations:
        raise ValueError(f"unknown location: {atom.location}")
    regs = (atom.i, atom.j) if isinstance(atom, RegEq) else ()
    regs = (atom.i,) if isinstance(atom, RegEqConst) else regs
    if not all(0 <= i < ra.num_registers for i in regs):
        raise ValueError(f"register index out of range: {atom}")
    if isinstance(atom, RegEqConst) and atom.c not in ra.constants:
        raise ValueError(f"constant {atom.c} not declared: {atom}")


def _ap_masks(graph: QuotientGraph, atom: CtlFormula) -> np.ndarray:
    check_atom(graph.ra, atom)
    if isinstance(atom, AtLocation):
        masks = graph._empty_masks()
        masks[graph._location_index(atom.location)] = True
        return masks
    if isinstance(atom, RegEq):
        row = graph.table.values[:, atom.i] == graph.table.values[:, atom.j]
    elif isinstance(atom, RegEqConst):
        row = graph.table.values[:, atom.i] == atom.c
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


def _apply(graph: QuotientGraph, f: CtlFormula, args: list[np.ndarray]) -> np.ndarray:
    """The masks of ``f`` given the masks of its children."""
    if isinstance(f, (AtLocation, RegEq, RegEqConst)):
        return _ap_masks(graph, f)
    if isinstance(f, Not):
        return ~args[0]
    if isinstance(f, And):
        return args[0] & args[1]
    if isinstance(f, EX):
        return graph._ex_masks(args[0])
    if isinstance(f, EU):
        return _eu_masks(graph, args[0], args[1])
    if isinstance(f, EG):
        return _eg_masks(graph, args[0])
    raise ValueError(f"not a formula: {f!r}")


def _eval(graph: QuotientGraph, f: CtlFormula) -> np.ndarray:
    """The masks of ``f``, computed once per structurally distinct subformula.

    A node's key is its type and its children's keys (an atom is its own
    key), so equal subformulas share one result without the formulas'
    recursive hashing.
    """
    key_of: dict[int, int] = {}
    keys: dict[object, int] = {}
    sats: list[np.ndarray] = []
    for g in _postorder(f):
        kids = [key_of[id(k)] for k in _children(g)]
        sig = (type(g), *kids) if kids else g
        if sig not in keys:
            keys[sig] = len(sats)
            sats.append(_apply(graph, g, [sats[k] for k in kids]))
        key_of[id(g)] = keys[sig]
    return sats[key_of[id(f)]]


def compute_ap(graph: QuotientGraph, atom: CtlFormula) -> LabelSet:
    """Configurations satisfying one atom; rejects non-atomic input."""
    return LabelSet(graph, _ap_masks(graph, atom))


def compute_not(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Complement within the graph's node set."""
    return LabelSet(graph, ~graph._masks_of(s))


def compute_and(s0: LabelSet, s1: LabelSet) -> LabelSet:
    return s0 & s1


def compute_ex(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Configurations with at least one successor in ``s``."""
    return LabelSet(graph, graph._ex_masks(graph._masks_of(s)))


def compute_eu(graph: QuotientGraph, s0: LabelSet, s1: LabelSet) -> LabelSet:
    """Least fixpoint of ``Z ↦ s1 ∪ (s0 ∩ EX Z)``."""
    return LabelSet(graph, _eu_masks(graph, graph._masks_of(s0), graph._masks_of(s1)))


def compute_eg(graph: QuotientGraph, s: LabelSet) -> LabelSet:
    """Greatest fixpoint of ``Z ↦ s ∩ EX Z``, started at ``s``."""
    return LabelSet(graph, _eg_masks(graph, graph._masks_of(s)))


def compute_ctl(graph: QuotientGraph, f: CtlFormula) -> LabelSet:
    """All configurations satisfying ``f``, by memoized structural labeling."""
    check_depth(f)
    return LabelSet(graph, _eval(graph, f))


def model_check(graph: QuotientGraph, f: CtlFormula) -> bool:
    """Whether every initial-location configuration satisfies ``f``."""
    check_depth(f)
    sat = _eval(graph, f)
    return bool(sat[graph._location_index(graph.ra.initial)].all())
