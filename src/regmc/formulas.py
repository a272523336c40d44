"""CTL formula syntax, without numpy.

Formulas speak about locations and register (dis)equalities — exactly the
observations the finite quotient preserves — under the usual boolean and
path operators with next (EX), until (EU), and always-on-some-path (EG) as
the core; the remaining operators are abbreviations expanded at
construction time.  The text formats (``dsl``) need only these; the
checker (``ctl``) labels them.

``formula_depth`` walks each distinct node once, with neither recursion
nor recursive hashing, so a formula that shares its subterms costs time in
its size, not in its unfolded tree; ``check_depth`` refuses formulas
nested deeper than ``MAX_FORMULA_DEPTH``, the limit the parser, the
serializer and the checker keep.
"""

from __future__ import annotations

from dataclasses import dataclass

from regmc.core import RegisterAutomaton


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


def children(f: CtlFormula) -> tuple[CtlFormula, ...]:
    if isinstance(f, (Not, EX, EG)):
        return (f.f,)
    if isinstance(f, (And, EU)):
        return (f.f0, f.f1)
    return ()


def postorder(f: CtlFormula) -> list[CtlFormula]:
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
            stack += [(k, False) for k in children(g)]
    return out


def formula_depth(f: CtlFormula) -> int:
    """Nesting depth of ``f``, counted once per distinct node."""
    height: dict[int, int] = {}
    for g in postorder(f):
        height[id(g)] = 1 + max((height[id(k)] for k in children(g)), default=0)
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
