"""Valuation classes as representative matrices, without numpy.

Two valuations are interchangeable for every guard the machine can ever
evaluate when some bijection of the alphabet fixing each declared constant
maps one onto the other.  A class of interchangeable valuations is named by
its *representative matrix*: entry ``(i, j)`` records whether registers
``i`` and ``j`` hold the same value, and whether that shared value is a
declared constant.  The matrix alphabet is ``{ZERO, ONE} ∪ C``:

* ``ZERO``  — the registers differ;
* ``ONE``   — equal, but not a constant;
* ``c ∈ C`` — equal to the constant ``c``.

A matrix is *consistent* when it is the matrix of some valuation, and
``has_valid_structure`` decides this by the round trip: the matrix of its
marker valuation (``marker_valuation``) is the matrix itself.
``canonical_valuation`` produces the deterministic witness.  The closed
forms ``extension_count`` and ``universe_size`` count classes without
building any, so a universe over ``MAX_CLASSES`` classes is refused before
any work (``checked_universe_size``).

This module is the numpy-free half of the class layout: the text formats
and ``regmc simulate`` need only these names.  The universe as a table of
value columns is ``matrices``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

ZERO = -1
ONE = -2

Valuation = tuple[int, ...]


# A matrix's hash folds one code per row, mod 2^64: the first column that
# holds the row's diagonal entry, and that entry.  For a class the pair is
# the register's first block member and its label.
_HASH_MUL = 0x9E3779B97F4A7C15


def _matrix_hash(rows: tuple[tuple[int, ...], ...]) -> int:
    n = h = len(rows)
    for i, row in enumerate(rows):
        h = (h * _HASH_MUL + row.index(row[i]) + (n + 1) * (row[i] + 3)) % 2**64
    return h - 2**64 if h >= 2**63 else h


@dataclass(frozen=True, slots=True)
class RepMatrix:
    """A square matrix over ``{ZERO, ONE} ∪ C`` naming a valuation class."""

    rows: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rows or any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("matrix must be square and nonempty")
        if any(e < ONE for row in self.rows for e in row):
            raise ValueError(f"entry {min(map(min, self.rows))} outside the matrix alphabet")
        object.__setattr__(self, "_hash", _matrix_hash(self.rows))

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
    rows = tuple(tuple((x if x in cset else ONE) if x == y else ZERO for y in v) for x in v)
    return RepMatrix(rows)


def has_valid_structure(m: RepMatrix, constants: Sequence[int]) -> bool:
    """Whether ``m`` is consistent, by the round trip: it is the matrix of
    its own marker valuation (``marker_valuation``), as a consistent matrix
    is, and an inconsistent one is the matrix of no valuation.  Agrees with
    ``is_consistent_matrix`` of the tests' constraint scans
    (``tests/reference.py``, tested exhaustively)."""
    return matrix_of_valuation(marker_valuation(m), constants) == m


def is_class(m: RepMatrix, n_registers: int, constants: Sequence[int]) -> bool:
    """Whether ``m`` is a member of the universe over ``n_registers``
    registers and ``constants``."""
    return m.n == n_registers and has_valid_structure(m, constants)


def fresh_symbols(constants: Sequence[int], count: int) -> list[int]:
    """The ``count`` smallest naturals ≥ 1 outside the constant set."""
    return list(itertools.islice((c for c in itertools.count(1) if c not in constants), count))


def marker_valuation(m: RepMatrix) -> Valuation:
    """``m`` read as a marker valuation, the engine's one form of a class:
    register ``i`` holds its diagonal entry when that is a constant, and
    otherwise ``-1`` minus its first related register (the first ``ONE``
    of its row).  A class's matrix is ``matrix_of_valuation`` of it; any
    other matrix gets some valuation whose class differs from it.  That
    round trip is what a class is, for ``has_valid_structure`` and, in bulk
    through ``build_matrices``, for ``UniverseTable.positions``."""
    return tuple(row[i] if row[i] != ONE else -1 - row.index(ONE) for i, row in enumerate(m.rows))


def canonical_valuation(m: RepMatrix, constants: Sequence[int]) -> Valuation:
    """The deterministic witness valuation of a consistent matrix: its
    marker valuation with marker ``-1 - j`` replaced by fresh symbol ``j``.
    Raises ``ValueError`` for an inconsistent matrix.
    """
    if not has_valid_structure(m, constants):
        raise ValueError("matrix is not consistent")
    fresh = fresh_symbols(constants, m.n)
    return tuple(x if x >= 0 else fresh[-1 - x] for x in marker_valuation(m))


def block_text(members: list[int], label: int, registers: tuple[str, ...]) -> str:
    """One block of a class as the text formats write it, from its members
    and their ``label``: the constant they hold, or below 0 when unpinned."""
    pin = f"={label}" if label >= 0 else ""
    return "{" + " ".join(registers[j] + pin for j in members) + "}"


def _stirling2(n: int, k: int) -> int:
    """Partitions of ``n`` items into ``k`` blocks, by inclusion–exclusion."""
    signed = ((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return sum(signed) // math.factorial(k)


@lru_cache(maxsize=None)
def extension_count(blocks: int, pinned: int, released: int, num_constants: int) -> int:
    """The classes over ``released`` more registers that extend one class of
    ``blocks`` blocks, ``pinned`` of them pinned to constants.

    Of the released registers, ``t`` open new blocks and the rest each join
    one of the ``blocks`` old ones (a used constant is one of those); the
    ``t`` form ``j`` new blocks, of which ``i`` take distinct unused
    constants.
    """
    free = num_constants - pinned
    return sum(
        math.comb(released, t)
        * blocks ** (released - t)
        * _stirling2(t, j)
        * math.comb(j, i)
        * math.perm(free, i)
        for t in range(released + 1)
        for j in range(t + 1)
        for i in range(min(j, free) + 1)
    )


def universe_size(n_registers: int, num_constants: int) -> int:
    """|universe(n, C)| without materializing it: the extensions of the one
    class over no registers."""
    return extension_count(0, 0, n_registers, num_constants)


# The largest universe ``matrices.universe_table`` enumerates: admits 10
# registers with one constant (678570 classes), refuses 12 registers, or 11
# with one constant (4213597 each), before any matrix is built.
MAX_CLASSES = 1_000_000


def check_universe_args(n_registers: int, constants: Sequence[int]) -> None:
    """Raise ``ValueError`` unless there is a register and the constants are
    distinct naturals below 2^63; a negative one would collide with ``ZERO``
    or ``ONE``, and a larger one fits no table column."""
    if n_registers < 1:
        raise ValueError("need at least one register")
    negative = [c for c in constants if c < 0]
    if negative:
        raise ValueError(f"constants must be naturals, got {negative[0]}")
    huge = [c for c in constants if c >= 2**63]
    if huge:
        raise ValueError(f"constants must be below 2**63, got {huge[0]}")
    if len(set(constants)) != len(constants):
        raise ValueError("duplicate constants")


def checked_universe_size(n_registers: int, constants: Sequence[int]) -> int:
    """``universe_size`` of valid universe arguments (``check_universe_args``),
    or ``ValueError`` past ``MAX_CLASSES`` classes."""
    check_universe_args(n_registers, constants)
    # even without constants there are at least 2^(n-1) classes, so a
    # register count past the limit's bit length is refused without counting
    size = MAX_CLASSES + 1
    if n_registers <= MAX_CLASSES.bit_length():
        size = universe_size(n_registers, len(constants))
    if size > MAX_CLASSES:
        raise ValueError(
            f"the universe over {n_registers} registers and {len(constants)} constant(s) "
            f"exceeds the {MAX_CLASSES} class limit"
        )
    return size
