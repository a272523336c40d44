"""The universe of valuation classes as numpy value columns.

A class is named by its representative matrix (``classes``, which also
holds the consistency check, the witness valuation and the closed-form
class counts; they are re-exported here).  There are finitely many such
matrices per register count, so reachability and branching-time questions
about the infinite concrete system reduce to the same questions over this
finite universe.  This module owns its one layout, ``universe_table``: one
*marker valuation* per class in listing order, in which a register pinned
to a constant holds it and each unpinned block holds its own negative
marker.  Entry ``(i, j)`` is ``ZERO`` when the values of ``i`` and ``j``
differ, and otherwise the value when it is a constant, else ``ONE``; so
every question the successor search and the checker ask of a class is a
compare of value columns.  ``RepMatrix`` objects and listing lines are
built from table rows only where a caller reads them, and a matrix is
located by one sorted search over the table's rank keys.  The rank key is
one formula over any valuation (``class_keys``), so the sub-matrix of a
class over some of its registers is found the same way in the smaller
table.  Universes over ``MAX_CLASSES`` classes are refused.

Reading a class as a system of (dis)equality constraints is left to the
literal reference scans (``reference``): nothing here imports the
constraint engine or the automaton model.
"""

from __future__ import annotations

import collections
import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# the numpy-free names are re-exported, so callers keep one import
from regmc.classes import (  # noqa: F401
    _HASH_MUL,
    MAX_CLASSES,
    ONE,
    ZERO,
    RepConfig,
    RepMatrix,
    Valuation,
    block_text,
    canonical_valuation,
    check_universe_args,
    checked_universe_size,
    extension_count,
    fresh_symbols,
    has_valid_structure,
    is_class,
    matrix_of_valuation,
    universe_size,
)

_CHUNK = 8192  # classes built or keyed at once
_FIRST_CHUNK = 64  # ``doubling_chunks`` starts here and doubles up to ``_CHUNK``


def value_dtype(n_registers: int, constants: Sequence[int]) -> np.dtype:
    """The smallest signed type that holds ``-1 - n`` and every constant."""
    return np.result_type(*(np.min_scalar_type(-1 - c) for c in (n_registers, *constants)))


def matrix_entries(matrices: Sequence[RepMatrix], n_registers: int) -> np.ndarray:
    """The entries of ``n_registers``-square matrices as one (matrices, n, n) array."""
    n = n_registers
    rows = itertools.chain.from_iterable(m.rows for m in matrices)
    given = np.fromiter(itertools.chain.from_iterable(rows), np.int64, len(matrices) * n * n)
    return given.reshape(-1, n, n)


def marker_rows(entries: np.ndarray) -> np.ndarray:
    """Each class of ``entries`` (``matrix_entries``) read as a marker
    valuation: a register holds its diagonal constant, or else ``-1`` minus
    its first related register (its row's first nonzero entry).  The rows
    have the keys (``class_keys``) of their classes."""
    n = entries.shape[1]
    diag = entries.reshape(-1, n * n)[:, :: n + 1]
    return np.where(diag == ONE, -1 - (entries != ZERO).argmax(axis=2), diag)


def diagonal_entries(values: np.ndarray) -> np.ndarray:
    """The matrix diagonal of marker valuations (``UniverseTable.values``):
    a value that is a constant, else ``ONE`` for a block marker."""
    return np.where(values >= 0, values, ONE).astype(np.int64)


def _row_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each register's matrix row in the classes ``values`` as one code: the
    bitmask of the registers sharing its value, times the label count, plus
    its label's index in ``labels``, the distinct diagonal entries
    (``diagonal_entries``) in ascending order.  Returns the (classes, n, n)
    equality of the value columns, the (classes, n) codes and ``labels``."""
    n = values.shape[1]
    same = values[:, :, None] == values[:, None, :]
    labels, lab = np.unique(diagonal_entries(values), return_inverse=True)
    codes = (same * (1 << np.arange(n))).sum(axis=2) * len(labels) + lab.reshape(values.shape)
    return same, codes, labels


_set_rows = RepMatrix.rows.__set__  # type: ignore[attr-defined]
_set_hash = RepMatrix._hash.__set__  # type: ignore[attr-defined]


def build_matrices(values: np.ndarray) -> list[RepMatrix]:
    """The matrices of table rows ``values``, built unchecked: equal rows
    share one tuple, and the hashes are one numpy fold (``_matrix_hash``)."""
    n = values.shape[1]
    if not len(values):
        return []
    same, codes, labels = _row_codes(values)
    rows, ids = np.unique(codes, return_inverse=True)
    width = len(labels)
    shared = np.fromiter(
        (tuple(int(labels[r % width]) if r // width >> j & 1 else ZERO for j in range(n)) for r in rows.tolist()),
        dtype=object,
        count=len(rows),
    )
    # the fold unrolled: n and the row codes, weighted by powers of _HASH_MUL
    label = labels[codes % width]
    folded = np.column_stack((np.full(len(values), n), same.argmax(axis=2) + (n + 1) * (label + 3)))
    weights = np.array([pow(_HASH_MUL, k, 2**64) for k in range(n, -1, -1)], dtype=np.uint64)
    h = (folded.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    # the slots are set through their descriptors, past the frozen __setattr__
    out = list(map(object.__new__, itertools.repeat(RepMatrix, len(values))))
    matrix_rows = map(tuple, shared[ids.reshape(-1, n)].tolist())
    collections.deque(map(_set_rows, out, matrix_rows), maxlen=0)
    collections.deque(map(_set_hash, out, h.view(np.int64).tolist()), maxlen=0)
    return out


def doubling_chunks(ks: Sequence[int]) -> Iterator[Sequence[int]]:
    """``ks`` in order, a chunk at a time.  The chunks double from
    ``_FIRST_CHUNK`` to ``_CHUNK``, so that the first few cost little."""
    lo, size = 0, _FIRST_CHUNK
    while lo < len(ks):
        yield ks[lo : lo + size]
        lo, size = lo + size, min(2 * size, _CHUNK)


def iter_matrices(values: np.ndarray, ks: np.ndarray | None = None) -> Iterator[RepMatrix]:
    """The matrices of rows ``ks`` (all by default) of the marker valuations
    ``values``, in order, built ``doubling_chunks`` at a time."""
    for chunk in doubling_chunks(np.arange(len(values)) if ks is None else ks):
        yield from build_matrices(values[chunk])


def classes_lines(values: np.ndarray, registers: tuple[str, ...]) -> Iterator[str]:
    """``dsl.classes_text`` of each row of ``values`` (``UniverseTable.values``), in order.

    Each block is one piece, coded by its members and diagonal entry
    (``_row_codes``) and kept at its first register; numpy codes a chunk of
    rows at once, each distinct piece is written once, and a line joins its
    row's pieces.
    """
    n = values.shape[1]
    for chunk in np.split(values, range(_CHUNK, len(values), _CHUNK)):
        same, pieces, labels = _row_codes(chunk)
        pieces = np.where(same.argmax(axis=2) == np.arange(n), pieces, 0)  # 0: no members
        distinct, ids = np.unique(pieces, return_inverse=True)
        members, label = np.divmod(distinct, len(labels))
        texts = [
            f" {block_text([j for j in range(n) if m >> j & 1], d, registers)}" if m else ""
            for m, d in zip(members.tolist(), labels[label].tolist())
        ]
        for row in ids.reshape(chunk.shape).tolist():
            yield "".join([texts[p] for p in row])[1:]


class UniverseTable(NamedTuple):
    """One universe in listing order, as one value row per class.

    ``values[k]`` is class ``k``'s marker valuation: a register pinned to a
    constant holds it, and one of unpinned block ``b`` of the growth string
    holds ``-1 - b``, never a declared constant.  Two registers share a
    value exactly when they are related, so every question asked of a class
    is a compare of value columns.  The dtype is the smallest signed one
    that holds every constant and ``-1 - n``.  ``key[k]`` is the class's
    growth string followed by its registers' pinning codes, read as one
    mixed-radix number, ascending in ``k``.
    """

    values: np.ndarray
    key: np.ndarray
    constants: tuple[int, ...]

    def positions(self, matrices: Sequence[RepMatrix]) -> np.ndarray:
        """Each matrix's class position, or -1 where it is not a class here.

        A matrix is read as its marker row (``marker_rows``); one sorted
        search finds that row's key, and the hit stands only if the matrix
        equals the table row it names, entry for entry.
        """
        n = self.values.shape[1]
        found = dict.fromkeys(matrices, -1)
        square = [m for m in found if m.n == n]
        if square:
            given = matrix_entries(square, n)
            keys = class_keys(marker_rows(given), self.constants)
            pos = np.minimum(np.searchsorted(self.key, keys), len(self.key) - 1)
            values = self.values[pos]
            label = diagonal_entries(values)[:, :, None]
            named = np.where(values[:, :, None] == values[:, None, :], label, ZERO)
            hit = (self.key[pos] == keys) & (named == given).all(axis=(1, 2))
            found.update(zip(square, np.where(hit, pos, -1).tolist()))
        return np.array([found[m] for m in matrices], dtype=np.int64)

    def projection_keys(self, registers: Sequence[int]) -> np.ndarray:
        """Each class's sub-matrix over ``registers``, as its key in the
        universe over that many registers (``class_keys``), computed a chunk
        of classes at a time."""
        return np.concatenate(
            [
                class_keys(self.values[lo : lo + _CHUNK, registers], self.constants)
                for lo in range(0, len(self.key), _CHUNK)
            ]
        )


def _key_weights(n_registers: int, num_constants: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights that read a growth string and a pinning-code string as
    one mixed-radix key: digit ``i`` of the growth string has radix
    ``i + 1``, and each pinning code radix ``num_constants + 1``.  Raises
    ``ValueError`` when the keys would not fit in 63 bits."""
    n, base = n_registers, num_constants + 1
    if math.factorial(n) * base**n > 2**63:
        raise ValueError(
            f"{n} registers and {num_constants} constant(s) are too many to rank classes"
        )
    growth = [math.prod(range(i + 2, n + 1)) * base**n for i in range(n)]
    pins = [base ** (n - 1 - i) for i in range(n)]
    return np.array(growth, dtype=np.int64), np.array(pins, dtype=np.int64)


def class_keys(values: np.ndarray, constants: Sequence[int]) -> np.ndarray:
    """The ``UniverseTable.key`` of each row of ``values`` read as a valuation.

    Columns holding one value share a block, and a value that is a declared
    constant pins its block to it; any other value is a fresh one.  Rows of
    the table's own ``values`` give back its keys, and a selection of their
    columns gives the keys of their sub-matrices in the smaller table.
    """
    # one contiguous array per register: the scans below run down columns
    cols = np.ascontiguousarray(values.T)
    n, rows = cols.shape
    growth = np.zeros((n, rows), dtype=np.int8)  # digits stay below the register count
    blocks = np.ones(rows, dtype=np.int8)
    for i in range(1, n):
        # registers of one value hold one growth digit, below the blocks
        # begun so far: the least over the earlier matches and that count
        # is the digit, a new block when nothing matches
        np.minimum.reduce(np.where(cols[:i] == cols[i], growth[:i], blocks), axis=0, out=growth[i])
        blocks += growth[i] == blocks
    # a constant's pinning code is its position plus one, 0 for any other value
    codes = np.zeros(cols.shape, dtype=np.min_scalar_type(len(constants)))
    for p, c in enumerate(constants):
        codes[cols == c] = p + 1
    by_growth, by_pin = _key_weights(n, len(constants))
    return by_growth @ growth + by_pin @ codes


@lru_cache(maxsize=None)
def universe_table(n_registers: int, constants: tuple[int, ...]) -> UniverseTable:
    """Every consistent matrix over ``n_registers`` registers, in listing order.

    Restricted growth strings in lexicographic order, grown a register at a
    time by repeating each string ``max + 2`` times with ``0 .. max + 1``
    appended (Knuth, TAOCP 4A §7.2.1.5), each expanded by the injective
    partial pinnings of its blocks (code 0 for none, then the constants as
    declared, in lexicographic order).  The value and key columns are
    gathered one register at a time, so no (classes × registers) index is
    ever held.  Raises ``ValueError`` before any work for a negative,
    repeated or too large constant, or past ``MAX_CLASSES``.
    """
    checked_universe_size(n_registers, constants)
    m = len(constants)
    rgs, top = np.zeros((1, 1), dtype=np.int8), np.zeros(1, dtype=np.int64)
    for _ in range(n_registers - 1):
        fan = top + 2
        digit = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
        rgs = np.column_stack((np.repeat(rgs, fan, axis=0), digit.astype(np.int8)))
        top = np.maximum(np.repeat(top, fan), digit)
    # the pinnings of every block count, as one zero-padded table of codes
    # and one of the values they give each block; those of k + 1 blocks
    # extend each of k blocks by every code, in order, that is 0 or unused
    codes = np.arange(m + 1, dtype=np.min_scalar_type(m))
    pins = [np.zeros((1, 0), dtype=codes.dtype)]
    for _ in range(n_registers):
        grown = np.column_stack((np.repeat(pins[-1], m + 1, axis=0), np.tile(codes, len(pins[-1]))))
        unused = ~(grown[:, :-1] == grown[:, -1:]).any(axis=1)
        pins.append(grown[(grown[:, -1] == 0) | unused])
    sizes = np.array([len(p) for p in pins[1:]])
    padded = np.concatenate([np.pad(p, ((0, 0), (0, n_registers - p.shape[1]))) for p in pins[1:]])
    del pins, grown, unused
    dtype = value_dtype(n_registers, constants)
    pinned = np.array([0, *constants], dtype=dtype)[padded]
    marks = np.where(padded == 0, -1 - np.arange(n_registers, dtype=dtype), pinned)
    starts = np.cumsum(sizes) - sizes
    count = sizes[top]
    part = np.repeat(np.arange(len(rgs), dtype=np.int32), count)
    at = (np.arange(len(part)) - (np.cumsum(count) - count - starts[top])[part]) * n_registers
    values = np.empty((len(part), n_registers), dtype=dtype)
    by_growth, by_pin = _key_weights(n_registers, m)
    key = (rgs @ by_growth)[part]
    for i in range(n_registers):
        cell = at + rgs[part, i]
        values[:, i] = marks.ravel()[cell]
        key += by_pin[i] * padded.ravel()[cell]
    return UniverseTable(values, key, constants)


@lru_cache(maxsize=None)
def universe(n_registers: int, constants: tuple[int, ...]) -> tuple[RepMatrix, ...]:
    """The matrices of ``universe_table``, in its listing order."""
    return tuple(iter_matrices(universe_table(n_registers, constants).values))
