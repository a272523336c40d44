"""Literal-scan reference implementations that judge the engine.

These answer the universe and one-step successor questions the expensive,
transparent way: each class is read as the (dis)equality constraints its
matrix imposes (``formula_E_of_matrix``), every candidate is enumerated,
and each is tested against the defining formula with ``eqlogic``.  They
cross-check the structural enumeration in ``matrices`` and the successor
search in ``reach`` from the test suite, and no module of the package
imports them; neither of those writes a class as a formula, so the two
sides share no reasoning.  Scans are refused once the candidate count passes a fixed
limit; performance is explicitly a non-goal here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import eqlogic
from eqlogic import ConstraintSystem, Var, const, eq, ne, par, primed, reg
from regmc.classes import ONE, ZERO, RepConfig, RepMatrix, check_universe_args, universe_size
from regmc.core import Assignment, ParameterTerm, RegisterAutomaton, RegisterTerm, Term
from regmc.core import Atom as CoreAtom
from regmc.matrices import universe

SCAN_LIMIT = 1_000_000


def formula_E_of_matrix(
    m: RepMatrix, constants: Sequence[int], primed_vars: bool = False
) -> ConstraintSystem:
    """The constraint system a matrix imposes on its registers.

    Over primed variables (the post-step registers) with ``primed_vars``.
    Ranges over every index pair, diagonal included, so defects anywhere in
    the matrix — an asymmetric pair, a ``ZERO`` diagonal — surface as
    inconsistency.  Raises ``ValueError`` for an undeclared constant entry.
    """
    var = primed if primed_vars else reg
    cset = set(constants)
    atoms: list[eqlogic.Atom] = []
    for i in range(m.n):
        for j in range(m.n):
            e = m.rows[i][j]
            if e == ONE:
                atoms.append(eq(var(i), var(j)))
                atoms.extend(ne(var(i), const(c)) for c in constants)
            elif e == ZERO:
                atoms.append(ne(var(i), var(j)))
            elif e in cset:
                atoms.append(eq(var(i), var(j)))
                atoms.append(eq(var(i), const(e)))
            else:
                raise ValueError(f"entry {e} at ({i},{j}) is not a declared constant")
    return eqlogic.system(atoms)


def is_consistent_matrix(m: RepMatrix, constants: Sequence[int]) -> bool:
    """Whether the matrix describes an actual valuation class."""
    return eqlogic.is_consistent(formula_E_of_matrix(m, constants))


def var_of_term(t: Term) -> Var:
    if isinstance(t, RegisterTerm):
        return reg(t.index)
    if isinstance(t, ParameterTerm):
        return par(t.index)
    return const(t.value)


def formula_E_of_assignment(assignment: Assignment) -> ConstraintSystem:
    """One equality per binding: the post-step register equals its term."""
    return eqlogic.system(
        eq(primed(i), var_of_term(term)) for i, term in assignment.updates
    )


def system_of_guard(guard: Iterable[CoreAtom]) -> ConstraintSystem:
    """A transition guard as a constraint system over unprimed variables."""
    return eqlogic.system(
        eqlogic.Atom(var_of_term(a.left), var_of_term(a.right), a.equal) for a in guard
    )


def literal_universe(n_registers: int, constants: tuple[int, ...]) -> tuple[RepMatrix, ...]:
    """Every consistent matrix, found by scanning all ``(|C|+2)^(n²)`` candidates.

    Same members as ``universe``, in raw scan order.  Raises ``ValueError``
    once the scan would exceed ``SCAN_LIMIT`` candidates — which admits
    every ``n ≤ 3`` with at most two constants, and ``n = 4`` without
    constants, and for a negative constant.
    """
    check_universe_args(n_registers, constants)
    alphabet = (ZERO, ONE, *constants)
    if len(alphabet) ** (n_registers * n_registers) > SCAN_LIMIT:
        raise ValueError(
            f"literal scan over {len(alphabet)}^{n_registers * n_registers} "
            f"matrices exceeds the {SCAN_LIMIT} candidate limit"
        )
    out = []
    for entries in itertools.product(alphabet, repeat=n_registers * n_registers):
        m = RepMatrix(
            tuple(
                tuple(entries[i * n_registers + j] for j in range(n_registers))
                for i in range(n_registers)
            )
        )
        if is_consistent_matrix(m, constants):
            out.append(m)
    return tuple(out)


def literal_post(ra: RegisterAutomaton, config: RepConfig) -> set[RepConfig]:
    """One-step successors by testing every universe matrix per transition.

    Keeps ``⟨t.target, m2⟩`` for each transition ``t`` out of the
    configuration's location and each candidate ``m2`` such that
    ``guard ∧ E(m) ∧ assignment ∧ E'(m2)`` is consistent, where ``E`` and
    ``E'`` are ``formula_E_of_matrix`` over the registers before and after
    the step.  Raises ``ValueError`` for an unknown location, a matrix of
    the wrong size, an undeclared constant, an inconsistent matrix, or a
    universe beyond ``SCAN_LIMIT``.
    """
    constants = ra.constants
    n = ra.num_registers
    if config.location not in ra.locations:
        raise ValueError(f"unknown location: {config.location}")
    if config.matrix.n != n:
        raise ValueError("matrix size does not match the register count")
    if universe_size(n, len(constants)) > SCAN_LIMIT:
        raise ValueError(f"universe exceeds the {SCAN_LIMIT} candidate limit")
    if not is_consistent_matrix(config.matrix, constants):
        raise ValueError("matrix is not consistent")
    source = formula_E_of_matrix(config.matrix, constants)
    candidates = [
        (m2, formula_E_of_matrix(m2, constants, primed_vars=True))
        for m2 in universe(n, constants)
    ]
    out: set[RepConfig] = set()
    for t in ra.transitions:
        if t.source != config.location:
            continue
        step = eqlogic.merge(
            system_of_guard(t.guard), source, formula_E_of_assignment(t.assignment)
        )
        if not eqlogic.is_consistent(step):
            continue
        for m2, target in candidates:
            if eqlogic.is_consistent(eqlogic.merge(step, target)):
                out.add(RepConfig(t.target, m2))
    return out
