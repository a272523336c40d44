"""Finite quotient of the infinite valuation space.

Two valuations are interchangeable for every guard the machine can ever
evaluate when some bijection of the alphabet fixing each declared constant
maps one onto the other.  A class of interchangeable valuations is named by
its *representative matrix*: entry ``(i, j)`` records whether registers
``i`` and ``j`` hold the same value, and whether that shared value is a
declared constant.  The matrix alphabet is ``{ZERO, ONE} ∪ C``:

* ``ZERO``  — the registers differ;
* ``ONE``   — equal, but not a constant;
* ``c ∈ C`` — equal to the constant ``c``.

There are finitely many such matrices per register count, so reachability
and branching-time questions about the infinite concrete system reduce to
the same questions over this finite universe.  This module owns its one
layout, ``universe_table``: the matrices in listing order, an index back
from matrix to position, and two (classes × registers) columns, the block
of each register and its diagonal label.  Entry ``(i, j)`` is the label of
``i`` when ``i`` and ``j`` share a block and ``ZERO`` otherwise, so every
question the successor search and the checker ask of a class is a compare
of two columns.  Universes over ``MAX_CLASSES`` classes are refused.

A matrix is *consistent* when its induced constraint system has a model —
exactly when it is the matrix of some valuation.  ``canonical_valuation``
produces the deterministic witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from regmc import eqlogic
from regmc.core import Assignment, ParameterTerm, RegisterTerm, Term
from regmc.core import Atom as CoreAtom
from regmc.eqlogic import ConstraintSystem, Var, const, eq, ne, par, primed, reg

ZERO = -1
ONE = -2

Valuation = tuple[int, ...]


@dataclass(frozen=True)
class RepMatrix:
    """A square matrix over ``{ZERO, ONE} ∪ C`` naming a valuation class."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n == 0:
            raise ValueError("empty matrix")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for e in row:
                if e < ONE:
                    raise ValueError(f"entry {e} outside the matrix alphabet")
        # CPython hashes -1 and -2 to the same value, so tuple hashing over
        # the raw alphabet collapses ZERO/ONE patterns into a handful of
        # buckets; shift entries into distinct positives and cache.
        flat = tuple(e + 3 for row in self.rows for e in row)
        object.__setattr__(self, "_hash", hash((n, flat)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]


@dataclass(frozen=True)
class RepConfig:
    """A location paired with a valuation-class matrix."""

    location: str
    matrix: RepMatrix


def matrix_of_valuation(v: Sequence[int], constants: Sequence[int]) -> RepMatrix:
    cset = set(constants)
    n = len(v)
    return RepMatrix(
        tuple(
            tuple(
                ((v[i] if v[i] in cset else ONE) if v[i] == v[j] else ZERO)
                for j in range(n)
            )
            for i in range(n)
        )
    )


def equivalent(u: Sequence[int], v: Sequence[int], constants: Sequence[int]) -> bool:
    """Whether some constant-fixing bijection of the alphabet maps u onto v.

    Holds exactly when both valuations share their equality pattern and
    agree wherever either touches a declared constant; equivalently, when
    their matrices coincide — the checks here are deliberately the direct
    ones so tests can play them against ``matrix_of_valuation``.
    """
    if len(u) != len(v):
        raise ValueError("valuations must have equal length")
    cset = set(constants)
    for i in range(len(u)):
        if (u[i] in cset or v[i] in cset) and u[i] != v[i]:
            return False
        for j in range(i + 1, len(u)):
            if (u[i] == u[j]) != (v[i] == v[j]):
                return False
    return True


def formula_E_of_matrix(m: RepMatrix, constants: Sequence[int]) -> ConstraintSystem:
    """The constraint system a matrix imposes on its registers.

    Ranges over every index pair, diagonal included, so defects anywhere in
    the matrix — an asymmetric pair, a ``ZERO`` diagonal — surface as
    inconsistency.
    """
    cset = set(constants)
    atoms: list[eqlogic.Atom] = []
    for i in range(m.n):
        for j in range(m.n):
            e = m.rows[i][j]
            if e == ONE:
                atoms.append(eq(reg(i), reg(j)))
                atoms.extend(ne(reg(i), const(c)) for c in constants)
            elif e == ZERO:
                atoms.append(ne(reg(i), reg(j)))
            elif e in cset:
                atoms.append(eq(reg(i), reg(j)))
                atoms.append(eq(reg(i), const(e)))
            else:
                raise ValueError(f"entry {e} at ({i},{j}) is not a declared constant")
    return eqlogic.system(atoms)


def formula_E_of_valuation(
    v: Sequence[int], constants: Sequence[int], primed_vars: bool = False
) -> ConstraintSystem:
    """The full (dis)equality type of a concrete valuation.

    One atom per register pair, plus — for every register — its complete
    relationship to the declared constants: pinned to one, or explicitly
    different from each.  The explicit disequalities matter: the successor
    computation conjoins this system with guard and assignment constraints,
    and omitting them would let a successor class claim a constant the
    source value visibly is not.
    """
    var = primed if primed_vars else reg
    cset = set(constants)
    atoms: list[eqlogic.Atom] = []
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            atoms.append(eq(var(i), var(j)) if v[i] == v[j] else ne(var(i), var(j)))
    for i in range(len(v)):
        if v[i] in cset:
            atoms.append(eq(var(i), const(v[i])))
        else:
            atoms.extend(ne(var(i), const(c)) for c in constants)
    return eqlogic.system(atoms)


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


def is_consistent_matrix(m: RepMatrix, constants: Sequence[int]) -> bool:
    """Whether the matrix describes an actual valuation class."""
    return eqlogic.is_consistent(formula_E_of_matrix(m, constants))


def has_valid_structure(m: RepMatrix, constants: Sequence[int]) -> bool:
    """Direct structural characterisation of consistency.

    Symmetric, no ``ZERO`` diagonal, related registers share their class
    entry, relatedness is transitive, and no two separate classes claim the
    same constant.  Agrees with ``is_consistent_matrix`` (tested
    exhaustively); implemented independently of the constraint engine.
    """
    cset = set(constants)
    n, rows = m.n, m.rows
    for i in range(n):
        if rows[i][i] == ZERO:
            return False
        for j in range(n):
            e = rows[i][j]
            if e not in (ZERO, ONE) and e not in cset:
                return False
            if rows[j][i] != e:
                return False
            if e != ZERO:
                if e != rows[i][i] or e != rows[j][j]:
                    return False
                for k in range(n):
                    if rows[j][k] != ZERO and rows[i][k] == ZERO:
                        return False
            elif rows[i][i] == rows[j][j] and rows[i][i] != ONE:
                return False  # two classes pinned to one constant
    return True


def fresh_symbols(constants: Sequence[int], count: int) -> list[int]:
    """The ``count`` smallest naturals ≥ 1 outside the constant set."""
    out: list[int] = []
    candidate = 1
    while len(out) < count:
        if candidate not in constants:
            out.append(candidate)
        candidate += 1
    return out


def canonical_valuation(m: RepMatrix, constants: Sequence[int]) -> Valuation:
    """The deterministic witness valuation of a consistent matrix.

    Register ``i`` takes its diagonal constant if it has one, else the
    ``i``-th fresh symbol; a second pass copies values leftward-to-right so
    related registers agree.  Inconsistent matrices are a caller error.
    """
    if not is_consistent_matrix(m, constants):
        raise ValueError("matrix is not consistent")
    return _witness_valuation(m, constants)


def _witness_valuation(m: RepMatrix, constants: Sequence[int]) -> Valuation:
    """``canonical_valuation`` without the consistency check.

    For matrices already known to be consistent, such as ``universe``
    members; on any other matrix the result is meaningless.
    """
    fresh = fresh_symbols(constants, m.n)
    w = [m.rows[i][i] if m.rows[i][i] != ONE else fresh[i] for i in range(m.n)]
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if m.rows[i][j] != ZERO:
                w[j] = w[i]
    return tuple(w)


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of ``range(n)`` as restricted growth strings.

    Position ``i`` names the block of register ``i``; each value may exceed
    the running maximum by at most one, which makes the naming — and hence
    the enumeration — canonical.  Lexicographic order.
    """
    s = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(s)
            return
        for b in range(mx + 2):
            s[i] = b
            yield from rec(i + 1, max(mx, b))

    return rec(1, 0)


def _block_labelings(k: int, constants: tuple[int, ...]) -> Iterator[tuple[int | None, ...]]:
    """Ways to pin blocks to constants: None = no constant, injectively otherwise."""
    for labels in itertools.product((None, *constants), repeat=k):
        pinned = [c for c in labels if c is not None]
        if len(set(pinned)) == len(pinned):
            yield labels


@cache
def _stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def universe_size(n_registers: int, num_constants: int) -> int:
    """|universe(n, C)| without materializing it.

    Sums, over partitions of the registers into k blocks, the number of ways
    to pin an injective subset of blocks to constants.
    """
    total = 0
    for k in range(1, n_registers + 1):
        pinnings = 0
        choose, arrange = 1, 1
        for j in range(min(k, num_constants) + 1):
            pinnings += choose * arrange
            choose = choose * (k - j) // (j + 1)
            arrange *= num_constants - j
        total += _stirling2(n_registers, k) * pinnings
    return total


# The largest universe ``universe_table`` enumerates: admits 10 registers
# with one constant (678570 classes), refuses 12 registers, or 11 with one
# constant (4213597 each), before any matrix is built.
MAX_CLASSES = 1_000_000


class UniverseTable(NamedTuple):
    """One universe in listing order: class ``k`` is ``matrices[k]``,
    ``block[k, i]`` is register ``i``'s block in its growth string,
    ``label[k, i]`` its diagonal entry (``ONE`` or the pinned constant), and
    ``index`` maps each matrix back to ``k``."""

    matrices: tuple[RepMatrix, ...]
    block: np.ndarray
    label: np.ndarray
    index: dict[RepMatrix, int]


@lru_cache(maxsize=None)
def _class_row(members: tuple[bool, ...], entry: int) -> tuple[int, ...]:
    """A block's matrix row: ``entry`` at its registers, ``ZERO`` elsewhere."""
    return tuple(entry if m else ZERO for m in members)


@lru_cache(maxsize=None)
def universe_table(n_registers: int, constants: tuple[int, ...]) -> UniverseTable:
    """Every consistent matrix over ``n_registers`` registers, in a fixed order.

    Enumerated as labeled set partitions — each register partition, with
    each injective partial pinning of blocks to constants — rather than by
    filtering the ``(|C|+2)^(n²)`` raw matrices.  The order (partitions in
    growth-string order, labelings with None before each declared constant)
    is deterministic and is the listing order used by the command-line
    tools.  Matrices share their row tuples.  Raises ``ValueError`` before
    enumerating anything when the universe holds more than ``MAX_CLASSES``
    classes.
    """
    if n_registers < 1:
        raise ValueError("need at least one register")
    # even without constants there are at least 2^(n-1) classes, so a
    # register count past the limit's bit length is refused without counting
    if n_registers > MAX_CLASSES.bit_length() or (
        universe_size(n_registers, len(constants)) > MAX_CLASSES
    ):
        raise ValueError(
            f"the universe over {n_registers} registers and {len(constants)} constant(s) "
            f"exceeds the {MAX_CLASSES} class limit"
        )
    matrices: list[RepMatrix] = []
    blocks: list[tuple[int, ...]] = []
    labels: list[list[int]] = []
    for rgs in _growth_strings(n_registers):
        members = [tuple(b == r for r in rgs) for b in range(max(rgs) + 1)]
        for pins in _block_labelings(len(members), constants):
            diag = [ONE if c is None else c for c in pins]
            rows = [_class_row(m, d) for m, d in zip(members, diag)]
            matrices.append(RepMatrix(tuple(rows[b] for b in rgs)))
            blocks.append(rgs)
            labels.append([diag[b] for b in rgs])
    return UniverseTable(
        tuple(matrices),
        np.array(blocks, dtype=np.int8).reshape(-1, n_registers),
        np.array(labels, dtype=np.int64).reshape(-1, n_registers),
        {m: k for k, m in enumerate(matrices)},
    )


def universe(n_registers: int, constants: tuple[int, ...]) -> tuple[RepMatrix, ...]:
    """The matrices of ``universe_table``, in its listing order."""
    return universe_table(n_registers, constants).matrices
