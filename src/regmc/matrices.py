"""The universe of valuation classes as numpy value columns.

A class is named by its representative matrix (``classes``, which also
holds the consistency check, the witness valuation and the closed-form
class counts).  There are finitely many such
matrices per register count, so reachability and branching-time questions
about the infinite concrete system reduce to the same questions over this
finite universe.  This module owns its one layout, ``universe_table``: one
*marker valuation* per class in listing order, in which a register pinned
to a constant holds it and each unpinned block holds its own negative
marker.  Entry ``(i, j)`` is ``ZERO`` when the values of ``i`` and ``j``
differ, and otherwise the value when it is a constant, else ``ONE``; so
every question the successor search and the checker ask of a class is a
compare of value columns.  ``RepMatrix`` objects and listing lines are
built from table rows only where a caller reads them (``build_matrices``).
The rank key is one formula over any valuation (``class_keys``), so one
sorted search of the keys finds a valuation's class
(``UniverseTable.position``), and a class's sub-valuation over some of
its registers is found the same way in the smaller table.  A matrix is
found by its marker valuation once ``classes.is_class`` has accepted it.
Universes over ``MAX_CLASSES`` classes are refused.

Reading a class as a system of (dis)equality constraints is left to the
tests' literal scans (``tests/reference.py``): nothing here imports
constraint reasoning or the automaton model.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from regmc.classes import (
    _HASH_MUL,
    ONE,
    ZERO,
    RepMatrix,
    block_text,
    checked_universe_size,
)

# Unread here: the benchmark (``perfbench/child.py`` and
# ``perfbench/make_record.py``) imports these two from this module.
from regmc.classes import RepConfig, matrix_of_valuation  # noqa: F401

# The bytes of the widest temporary of one chunk of a pass over rows: each
# pass takes as many rows at once as keep it within this (``chunk_rows``),
# so its scratch memory is fixed whatever the row count.
_BUDGET = 1 << 16


def chunk_rows(entries: int) -> int:
    """Rows per chunk of a pass whose widest temporary holds ``entries``
    8-byte entries per row."""
    return max(1, _BUDGET // (8 * entries))


def value_dtype(n_registers: int, constants: Sequence[int]) -> np.dtype:
    """The smallest signed type that holds ``-1 - n`` and every constant."""
    return np.result_type(*(np.min_scalar_type(-1 - c) for c in (n_registers, *constants)))


def distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending.  (``np.unique`` does the same
    but imports ``numpy.ma`` on first use, which every process would pay.)"""
    x = np.sort(x)
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))


def first_of_each(keys: np.ndarray) -> np.ndarray:
    """Where each distinct value of ``keys`` first occurs, by value."""
    order = np.argsort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    return order[first]


@lru_cache(maxsize=None)
def _bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bits of an ``n``-register mask, as int64 and as float64 (exact,
    and the dtype whose dot product is fast)."""
    bits = 1 << np.arange(n, dtype=np.int64)
    return bits, bits.astype(np.float64)


class _RowCodes:
    """Each register's matrix row in marker valuations as one int64 code.

    A row is fixed by the registers sharing the register's value and by its
    label, the diagonal entry: the code is the label's rank in ``labels``
    (``ONE``, then the declared constants in ascending order) shifted past
    ``n`` bits, or'ed with the members' bitmask.  Up to 31 registers.
    """

    def __init__(self, n: int, constants: Sequence[int]):
        if n > 31:
            raise ValueError(f"rows over {n} registers are not coded")
        self.n = n
        self.labels = np.array([ONE, *sorted(constants)], dtype=np.int64)
        self._bits, self._fbits = _bits(n)

    def of(self, cols: np.ndarray) -> np.ndarray:
        """The (n, rows) codes of value columns ``cols``.  The columns are
        compared with all columns a group at a time, sized so that no
        temporary holds more than ``_BUDGET`` bytes."""
        n, rows = cols.shape
        masks = np.empty(cols.shape)
        # registers compared at once: the product casts their compares to float64
        step = chunk_rows(n * rows)
        for lo in range(0, n, step):
            masks[lo : lo + step] = self._fbits @ (cols[lo : lo + step, None] == cols)
        codes = np.where(cols >= 0, self.labels.searchsorted(cols), 0) << self.n
        codes |= masks.astype(np.int64)
        return codes

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (codes, n) members and the labels of ``codes``."""
        return (codes[:, None] & self._bits) != 0, self.labels[codes >> self.n]


_SENTINEL = np.iinfo(np.int64).max  # above every row code


class _Interned:
    """What ``make`` gives for each row code of one call, made once per code.

    ``keys`` holds the codes seen so far in ascending order, then a
    sentinel; ``objects`` and ``terms`` hold the object and the uint64 term
    ``make`` gave for each.  A chunk's codes are found by one sorted search,
    and only the codes not seen before are deduplicated and made.
    """

    def __init__(self, make: Callable[[np.ndarray], tuple[Iterable[object], np.ndarray]]):
        self.make = make
        self.keys = np.array([_SENTINEL])
        self.objects = np.array([None])
        self.terms = np.zeros(1, dtype=np.uint64)

    def positions(self, codes: np.ndarray) -> np.ndarray:
        """Where each of ``codes`` is in ``keys``, making the new ones."""
        pos = self.keys.searchsorted(codes)
        new = codes[self.keys[pos] != codes]
        if not len(new):
            return pos
        new = distinct(new)
        objects, terms = self.make(new)
        keys = np.concatenate((self.keys, new))
        order = keys.argsort()
        self.keys = keys[order]
        made = np.fromiter(objects, dtype=object, count=len(new))
        self.objects = np.concatenate((self.objects, made))[order]
        self.terms = np.concatenate((self.terms, terms))[order]
        return self.keys.searchsorted(codes)


@lru_cache(maxsize=None)
def _hash_weights(n: int) -> tuple[np.uint64, np.ndarray]:
    """``_matrix_hash`` unrolled over ``n`` rows: ``h = n``, then ``h *
    _HASH_MUL + term`` for each row in turn, is the first return plus the
    row terms weighted by the (n, 1) second, mod 2^64."""
    powers = [pow(_HASH_MUL, k, 2**64) for k in range(n, -1, -1)]
    return np.uint64(n * powers[0] % 2**64), np.array(powers[1:], dtype=np.uint64)[:, None]


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic garbage collector off for a bulk build of objects that
    hold no cycles; collections between them would only re-scan a growing
    heap (each full one scans every tracked object) and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_set_rows = RepMatrix.rows.__set__  # type: ignore[attr-defined]
_set_hash = RepMatrix._hash.__set__  # type: ignore[attr-defined]


def build_matrices(values: np.ndarray, constants: Sequence[int]) -> list[RepMatrix]:
    """The matrices of marker valuations ``values`` (``UniverseTable.values``,
    ``marker_valuation``) over declared ``constants``, built unchecked a
    chunk of rows at a time.

    Each register's row is read from its code (``_RowCodes``), computed
    from compares of value columns, so no temporary holds more than n
    entries per row of a chunk (``chunk_rows``).  Equal rows are one tuple
    for the whole call (``_Interned``), and a class's tuple of rows is
    zipped from per-register columns of them.  The hash (``_matrix_hash``) sums each
    row's term, its first member plus ``n + 1`` times its label plus 3,
    weighted by powers of ``_HASH_MUL`` in uint64.
    """
    n = values.shape[1]
    codes = _RowCodes(n, constants)

    def make(new: np.ndarray) -> tuple[Iterable[tuple[int, ...]], np.ndarray]:
        members, labels = codes.decode(new)
        rows = np.where(members, labels[:, None], ZERO).tolist()
        terms = members.argmax(axis=1).astype(np.uint64)
        terms += np.uint64(n + 1) * (labels.astype(np.uint64) + np.uint64(3))  # wraps as mod 2^64
        return map(tuple, rows), terms

    rows = _Interned(make)
    start, weights = _hash_weights(n)
    out: list[RepMatrix] = []
    step = chunk_rows(n)
    with _collector_paused():
        for lo in range(0, len(values), step):
            cols = np.ascontiguousarray(values[lo : lo + step].T)
            pos = rows.positions(codes.of(cols))
            h = (rows.terms[pos] * weights).sum(axis=0, dtype=np.uint64) + start
            # the slots are set through their descriptors, past the frozen __setattr__
            chunk = list(map(object.__new__, itertools.repeat(RepMatrix, cols.shape[1])))
            collections.deque(map(_set_rows, chunk, zip(*rows.objects[pos].tolist())), maxlen=0)
            collections.deque(map(_set_hash, chunk, h.view(np.int64).tolist()), maxlen=0)
            out += chunk
    return out


def classes_lines(
    values: np.ndarray, constants: Sequence[int], registers: tuple[str, ...]
) -> Iterator[str]:
    """``dsl.classes_text`` of each row of ``values`` (``UniverseTable.values``
    over declared ``constants``), in order.

    Each block is one piece, coded by its members and label (``_RowCodes``)
    and kept at its first register; the other registers get the empty piece
    (code 0).  Each distinct piece is written once per call (``_Interned``),
    and a line joins its row's pieces, a chunk of rows (``chunk_rows``) at
    a time.
    """
    n = values.shape[1]
    codes = _RowCodes(n, constants)

    def make(new: np.ndarray) -> tuple[Iterable[str], np.ndarray]:
        members, labels = codes.decode(new)
        texts = [
            " " + block_text(np.flatnonzero(m).tolist(), label, registers) if code else ""
            for code, m, label in zip(new.tolist(), members, labels.tolist())
        ]
        return texts, np.zeros(len(texts), dtype=np.uint64)

    pieces = _Interned(make)
    bits = _bits(n)[0][:, None]
    step = chunk_rows(n)
    for lo in range(0, len(values), step):
        c = codes.of(np.ascontiguousarray(values[lo : lo + step].T))
        c[(c & -c) != bits] = 0  # the lowest mask bit is the block's first member
        pos = pieces.positions(c)
        for line in map("".join, zip(*pieces.objects[pos].tolist())):
            yield line[1:]


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

    def position(self, valuation: Sequence[int]) -> int:
        """The position of ``valuation``'s class: one sorted search of its
        key (``class_keys``), which every valuation over as many registers
        has."""
        return int(self.key.searchsorted(class_keys(np.array([valuation]), self.constants)[0]))

    def groups(self, registers: tuple[int, ...]) -> np.ndarray:
        """Each class's sub-matrix over ``registers`` as its position in the
        universe over that many registers (the one class over none), as
        int32, a chunk of classes at a time.  Over every register, in
        order, each class is its own group."""
        if registers == tuple(range(self.values.shape[1])):
            return np.arange(len(self.key), dtype=np.int32)
        out = np.zeros(len(self.key), dtype=np.int32)
        if registers:
            keys = universe_table(len(registers), self.constants).key
            # ``class_keys`` holds one int64 key and a few register columns
            # of the values' type and of bytes per row
            step = chunk_rows(max(1, len(registers) * self.values.itemsize // 8))
            for lo in range(0, len(out), step):
                sub = class_keys(self.values[lo : lo + step, registers], self.constants)
                out[lo : lo + step] = np.searchsorted(keys, sub)
        return out


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
    # einsum casts the digits to int64 a buffer at a time, where ``@`` would
    # first copy all of them: the temporaries stay at bytes per register
    return np.einsum("i,ij->j", by_growth, growth) + np.einsum("i,ij->j", by_pin, codes)


@lru_cache(maxsize=None)
def universe_table(n_registers: int, constants: tuple[int, ...]) -> UniverseTable:
    """Every consistent matrix over ``n_registers`` registers, in listing order.

    Restricted growth strings in lexicographic order, grown a register at a
    time by repeating each string ``max + 2`` times with ``0 .. max + 1``
    appended (Knuth, TAOCP 4A §7.2.1.5), each expanded by the injective
    partial pinnings of its blocks (code 0 for none, then the constants as
    declared, in lexicographic order).  The value and key columns are
    gathered a chunk of classes (``chunk_rows``) and one register at a
    time, so no index or temporary is longer than such a chunk.  Raises
    ``ValueError`` before any work for a negative, repeated or too large
    constant, or past ``MAX_CLASSES``.
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
    marks = np.array([0, *constants], dtype=dtype)[padded]
    np.copyto(marks, -1 - np.arange(n_registers, dtype=dtype), where=padded == 0)
    # growth string g owns classes ends[g] - count[g] .. ends[g] - 1, and
    # class k of them takes pinning row k + offset[g] of its block count
    count = sizes[top]
    ends = np.cumsum(count)
    offset = (np.cumsum(sizes) - sizes)[top] - (ends - count)
    by_growth, by_pin = _key_weights(n_registers, m)
    growth_key = rgs @ by_growth
    values = np.empty((ends[-1], n_registers), dtype=dtype)
    key = np.empty(ends[-1], dtype=np.int64)
    step = chunk_rows(1)  # the temporaries are index columns
    for lo in range(0, len(key), step):
        k = np.arange(lo, min(lo + step, len(key)))
        g = ends.searchsorted(k, side="right")
        at = (k + offset[g]) * n_registers  # the pinning row, flat
        key[lo : lo + step] = growth_key[g]
        for i in range(n_registers):
            cell = at + rgs[g, i]
            values[lo : lo + step, i] = marks.take(cell)
            key[lo : lo + step] += by_pin[i] * padded.take(cell)
    return UniverseTable(values, key, constants)


@lru_cache(maxsize=None)
def universe(n_registers: int, constants: tuple[int, ...]) -> tuple[RepMatrix, ...]:
    """The matrices of ``universe_table``, in its listing order."""
    return tuple(build_matrices(universe_table(n_registers, constants).values, constants))
