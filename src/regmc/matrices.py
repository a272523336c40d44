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

A matrix is *consistent* when it is the matrix of some valuation;
``has_valid_structure`` decides this from the entries alone, and
``canonical_valuation`` produces the deterministic witness.  Reading a
class as a system of (dis)equality constraints is left to the literal
reference scans (``reference``): nothing here imports the constraint
engine or the automaton model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

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


def has_valid_structure(m: RepMatrix, constants: Sequence[int]) -> bool:
    """Direct structural characterisation of consistency.

    Symmetric, no ``ZERO`` diagonal, related registers share their class
    entry, relatedness is transitive, and no two separate classes claim the
    same constant.  Agrees with ``reference.is_consistent_matrix`` (tested
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
    related registers agree.  Raises ``ValueError`` for an inconsistent
    matrix.
    """
    if not has_valid_structure(m, constants):
        raise ValueError("matrix is not consistent")
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


def check_universe_args(n_registers: int, constants: Sequence[int]) -> None:
    """Raise ``ValueError`` unless there is a register and every constant is a
    natural; a negative one would collide with ``ZERO`` or ``ONE``."""
    if n_registers < 1:
        raise ValueError("need at least one register")
    negative = [c for c in constants if c < 0]
    if negative:
        raise ValueError(f"constants must be naturals, got {negative[0]}")


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
    enumerating anything for a negative constant, or when the universe
    holds more than ``MAX_CLASSES`` classes.
    """
    check_universe_args(n_registers, constants)
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
