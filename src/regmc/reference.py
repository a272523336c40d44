"""Literal-scan reference implementations behind the CLI ``--oracle`` flag.

These answer the universe and one-step successor questions the expensive,
transparent way: enumerate every candidate and test it against the defining
formula.  They cross-check the optimized enumeration in ``matrices`` and the
successor search in ``reach``, both from the test suite and from the command
line.  Scans are refused once the candidate count passes a fixed limit;
performance is explicitly a non-goal here.
"""

from __future__ import annotations

import itertools

from regmc import eqlogic
from regmc.core import RegisterAutomaton
from regmc.matrices import (
    ONE,
    ZERO,
    RepConfig,
    RepMatrix,
    canonical_valuation,
    formula_E_of_assignment,
    formula_E_of_valuation,
    is_consistent_matrix,
    system_of_guard,
    universe,
    universe_size,
)

SCAN_LIMIT = 1_000_000


def literal_universe(n_registers: int, constants: tuple[int, ...]) -> tuple[RepMatrix, ...]:
    """Every consistent matrix, found by scanning all ``(|C|+2)^(n²)`` candidates.

    Same members as ``universe``, in raw scan order.  Raises ``ValueError``
    once the scan would exceed ``SCAN_LIMIT`` candidates — which admits
    every ``n ≤ 3`` with at most two constants, and ``n = 4`` without
    constants.
    """
    if n_registers < 1:
        raise ValueError("need at least one register")
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

    For each transition out of the configuration's location, builds the
    step formula — guard, source-valuation description, assignment
    equations — and keeps each candidate matrix whose canonical valuation
    is consistent with it.  Raises ``ValueError`` for an unknown location,
    an inconsistent matrix, or a universe beyond ``SCAN_LIMIT``.
    """
    constants = ra.constants
    n = ra.num_registers
    if config.location not in ra.locations:
        raise ValueError(f"unknown location: {config.location}")
    if config.matrix.n != n:
        raise ValueError("matrix size does not match the register count")
    if universe_size(n, len(constants)) > SCAN_LIMIT:
        raise ValueError(f"universe exceeds the {SCAN_LIMIT} candidate limit")
    w = canonical_valuation(config.matrix, constants)
    candidates = universe(n, constants)
    out: set[RepConfig] = set()
    for t in ra.transitions:
        if t.source != config.location:
            continue
        step = eqlogic.merge(
            system_of_guard(t.guard),
            formula_E_of_valuation(w, constants),
            formula_E_of_assignment(t.assignment),
        )
        if not eqlogic.is_consistent(step):
            continue
        for m2 in candidates:
            w2 = canonical_valuation(m2, constants)
            full = eqlogic.merge(
                step, formula_E_of_valuation(w2, constants, primed_vars=True)
            )
            if eqlogic.is_consistent(full):
                out.add(RepConfig(t.target, m2))
    return out
