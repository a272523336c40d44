"""Valuation classes, their matrices, and the finite universe."""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gens import NOT_A_FIGURE_ONE_CLASS, havoc
from oracles import enumerate_universe, equivalent
from regmc import dsl
from regmc.core import Assignment, ConstantTerm, ParameterTerm, RegisterAutomaton, RegisterTerm
from eqlogic import Atom, const, par, primed, reg
from regmc.classes import (
    MAX_CLASSES,
    ONE,
    ZERO,
    RepConfig,
    RepMatrix,
    canonical_valuation,
    extension_count,
    fresh_symbols,
    has_valid_structure,
    is_class,
    marker_valuation,
    matrix_of_valuation,
    universe_size,
)
from regmc.matrices import build_matrices, class_keys, classes_lines, universe, universe_table
from reference import formula_E_of_assignment, formula_E_of_matrix, is_consistent_matrix


def mat(*rows: tuple[int, ...]) -> RepMatrix:
    return RepMatrix(tuple(tuple(r) for r in rows))


def normalized(atoms: tuple[Atom, ...]) -> set[tuple[frozenset, bool]]:
    """Atoms up to argument order, so x1!=x2 and x2!=x1 coincide."""
    return {(frozenset((a.lhs, a.rhs)), a.equal) for a in atoms}


def test_matrix_of_valuation_patterns():
    assert matrix_of_valuation((7, 7), (2,)) == mat((ONE, ONE), (ONE, ONE))
    assert matrix_of_valuation((1, 3), (2,)) == mat((ONE, ZERO), (ZERO, ONE))
    assert matrix_of_valuation((2, 3), (2,)) == mat((2, ZERO), (ZERO, ONE))
    assert matrix_of_valuation((1, 2, 2), ()) == mat(
        (ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, ONE, ONE)
    )


def test_matrix_validation():
    with pytest.raises(ValueError):
        RepMatrix(((ONE, ZERO),))
    with pytest.raises(ValueError):
        RepMatrix(((-3,),))
    with pytest.raises(ValueError):
        RepMatrix(())


def test_equivalent_matches_matrix_equality():
    assert equivalent((1, 2, 2), (5, 9, 9), ())
    assert not equivalent((1, 2, 2), (1, 2, 3), ())
    assert equivalent((2, 3), (2, 4), (2,))
    assert not equivalent((2, 3), (4, 3), (2,))  # u touches the constant, v does not
    with pytest.raises(ValueError):
        equivalent((1,), (1, 2), ())
    rng = random.Random(7)
    for _ in range(500):
        constants = tuple(sorted(rng.sample(range(3), rng.randrange(3))))
        n = rng.randrange(1, 5)
        u = tuple(rng.randrange(6) for _ in range(n))
        v = tuple(rng.randrange(6) for _ in range(n))
        assert equivalent(u, v, constants) == (
            matrix_of_valuation(u, constants) == matrix_of_valuation(v, constants)
        )


def test_matrix_invariant_under_constant_fixing_bijection():
    rng = random.Random(11)
    domain = list(range(8))
    for _ in range(300):
        constants = tuple(sorted(rng.sample(range(4), rng.randrange(3))))
        moved = [d for d in domain if d not in constants]
        image = moved[:]
        rng.shuffle(image)
        pi = dict(zip(moved, image)) | {c: c for c in constants}
        v = tuple(rng.choice(domain) for _ in range(rng.randrange(1, 5)))
        w = tuple(pi[x] for x in v)
        assert matrix_of_valuation(w, constants) == matrix_of_valuation(v, constants)
        assert equivalent(v, w, constants)


def test_formula_of_matrix_examples():
    got = formula_E_of_matrix(mat((ONE,)), (5,))
    assert normalized(got.atoms()) == {
        (frozenset((reg(0),)), True),
        (frozenset((reg(0), const(5))), False),
    }
    got = formula_E_of_matrix(mat((2, ZERO), (ZERO, ONE)), (2,))
    assert normalized(got.atoms()) == {
        (frozenset((reg(0),)), True),
        (frozenset((reg(0), const(2))), True),
        (frozenset((reg(0), reg(1))), False),
        (frozenset((reg(1),)), True),
        (frozenset((reg(1), const(2))), False),
    }
    with pytest.raises(ValueError):
        formula_E_of_matrix(mat((9,)), (2,))  # 9 is not a declared constant


def test_consistency_examples():
    assert not is_consistent_matrix(mat((ZERO,)), ())
    c = 3
    assert not is_consistent_matrix(mat((c, ONE), (ONE, c)), (c,))
    assert not is_consistent_matrix(mat((c, ONE), (c, c)), (c,))
    assert not is_consistent_matrix(mat((c, c), (ONE, c)), (c,))
    assert is_consistent_matrix(mat((c, c), (c, c)), (c,))
    assert is_consistent_matrix(
        mat((ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, ONE, ONE)), ()
    )
    # two separate classes may not claim the same constant
    assert not is_consistent_matrix(mat((2, ZERO), (ZERO, 2)), (2,))


def test_structure_agrees_with_consistency_exhaustive():
    cases = [((), 3), ((0,), 3), ((0, 2), 2)]
    for constants, max_n in cases:
        alphabet = (ZERO, ONE, *constants)
        for n in range(1, max_n + 1):
            for entries in itertools.product(alphabet, repeat=n * n):
                m = RepMatrix(
                    tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
                )
                assert is_consistent_matrix(m, constants) == has_valid_structure(
                    m, constants
                ), m.rows


def test_formula_of_matrix_over_primed_registers():
    got = formula_E_of_matrix(mat((ONE, ONE), (ONE, ONE)), (), primed_vars=True)
    assert normalized(got.atoms()) == {
        (frozenset((primed(0),)), True),
        (frozenset((primed(1),)), True),
        (frozenset((primed(0), primed(1))), True),
    }
    # a register away from every constant says so explicitly
    got = formula_E_of_matrix(mat((0, ZERO), (ZERO, ONE)), (0, 7), primed_vars=True)
    assert normalized(got.atoms()) == {
        (frozenset((primed(0),)), True),
        (frozenset((primed(0), const(0))), True),
        (frozenset((primed(0), primed(1))), False),
        (frozenset((primed(1),)), True),
        (frozenset((primed(1), const(0))), False),
        (frozenset((primed(1), const(7))), False),
    }
    # the same system as over unprimed registers, variable for variable
    to_primed = {reg(i): primed(i) for i in range(3)}
    for m in universe(3, (0,)):
        renamed = {
            (frozenset(to_primed.get(v, v) for v in pair), equal)
            for pair, equal in normalized(formula_E_of_matrix(m, (0,)).atoms())
        }
        assert normalized(formula_E_of_matrix(m, (0,), primed_vars=True).atoms()) == renamed
    with pytest.raises(ValueError):
        formula_E_of_matrix(mat((9,)), (2,), primed_vars=True)


def test_formula_of_assignment():
    swap = Assignment(((0, RegisterTerm(1)), (1, RegisterTerm(0))))
    assert normalized(formula_E_of_assignment(swap).atoms()) == {
        (frozenset((primed(0), reg(1))), True),
        (frozenset((primed(1), reg(0))), True),
    }
    a = Assignment(((0, ParameterTerm(1)), (2, ConstantTerm(4))))
    assert normalized(formula_E_of_assignment(a).atoms()) == {
        (frozenset((primed(0), par(1))), True),
        (frozenset((primed(2), const(4))), True),
    }
    assert formula_E_of_assignment(Assignment(())).atoms() == ()


def test_canonical_valuation_golden():
    assert canonical_valuation(
        mat((ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, ONE, ONE)), ()
    ) == (1, 2, 2)
    assert canonical_valuation(mat((ONE, ONE), (ONE, ONE)), (2,)) == (1, 1)
    assert canonical_valuation(mat((2, ZERO), (ZERO, ONE)), (2,)) == (2, 3)
    assert canonical_valuation(mat((7,)), (7,)) == (7,)
    assert canonical_valuation(mat((ONE, ZERO), (ZERO, ONE)), (1, 2)) == (3, 4)
    with pytest.raises(ValueError):
        canonical_valuation(mat((ZERO,)), ())
    # the non-classes of figure one that have two registers, as for post;
    # canonical_valuation takes no register count, so a one-register matrix
    # is a class of its own
    for m in NOT_A_FIGURE_ONE_CLASS:
        if m.n == 2:
            with pytest.raises(ValueError):
                canonical_valuation(m, (2,))
    with pytest.raises(ValueError):
        canonical_valuation(mat((2, ZERO), (ZERO, 2)), (2,))  # two blocks pinned to 2


def test_fresh_symbols():
    assert fresh_symbols((0,), 3) == [1, 2, 3]
    assert fresh_symbols((2,), 3) == [1, 3, 4]
    assert fresh_symbols((1, 2), 2) == [3, 4]
    assert fresh_symbols((), 0) == []


def test_roundtrip_over_universe():
    for constants in [(), (2,), (0, 2)]:
        for n in range(1, 5):
            for m in universe(n, constants):
                assert is_consistent_matrix(m, constants)
                assert matrix_of_valuation(canonical_valuation(m, constants), constants) == m


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    st.sets(st.integers(min_value=0, max_value=3), max_size=2),
)
def test_canonical_valuation_is_equivalent_witness(vals, consts):
    constants = tuple(sorted(consts))
    v = tuple(vals)
    m = matrix_of_valuation(v, constants)
    w = canonical_valuation(m, constants)
    assert equivalent(v, w, constants)
    assert matrix_of_valuation(w, constants) == m


def test_universe_matches_brute_force_image():
    for constants in [(), (0,), (0, 2)]:
        for n in range(1, 4):
            pool = list(constants) + fresh_symbols(constants, n)
            image = {
                matrix_of_valuation(v, constants)
                for v in itertools.product(pool, repeat=n)
            }
            members = universe(n, constants)
            assert len(set(members)) == len(members)
            assert set(members) == image


def stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def expected_universe_size(n: int, num_constants: int) -> int:
    """Partitions of the registers, times injective partial pinnings of blocks."""
    total = 0
    for k in range(1, n + 1):
        pinnings = sum(
            math.comb(k, j) * math.perm(num_constants, j)
            for j in range(min(k, num_constants) + 1)
        )
        total += stirling2(n, k) * pinnings
    return total


def test_universe_counts():
    assert len(universe(2, (2,))) == 5
    assert len(universe(3, (0,))) == 15
    assert len(universe(4, (0,))) == 52
    assert len(universe(6, (0,))) == 877
    assert len(universe(8, (0,))) == 21147
    for n in range(1, 6):
        for constants in [(), (0,), (0, 2)]:
            assert len(universe(n, constants)) == expected_universe_size(n, len(constants))
    assert expected_universe_size(8, 1) == 21147


@pytest.mark.parametrize("constants", [(), (0,), (0, 5), (0, 5, 7)])
def test_extension_count_matches_the_universe(constants):
    # the classes over n registers that agree with one class over the first
    # q, counted in the full table, against the closed form
    for n in range(1, 6):
        values = universe_table(n, constants).values
        for q in range(n + 1):
            keys = class_keys(values[:, :q], constants)
            for key in set(keys.tolist()):
                row = values[keys.tolist().index(key), :q].tolist()
                blocks, pinned = len(set(row)), len({v for v in row if v in constants})
                want = int(np.count_nonzero(keys == key))
                assert extension_count(blocks, pinned, n - q, len(constants)) == want, (n, row)


def test_universe_order_is_frozen():
    assert universe(2, (2,)) == (
        mat((ONE, ONE), (ONE, ONE)),
        mat((2, 2), (2, 2)),
        mat((ONE, ZERO), (ZERO, ONE)),
        mat((ONE, ZERO), (ZERO, 2)),
        mat((2, ZERO), (ZERO, ONE)),
    )


def test_universe_table_memory_is_bounded_by_the_table():
    # 700 constants over two registers: 491402 classes, nearly all of them
    # injective pinnings, which as code tuples would outweigh the table
    # several times over before any array is built; gathered a chunk of
    # classes at a time, the build peaks near twice the table
    constants = tuple(range(700))
    tracemalloc.start()
    try:
        table = universe_table.__wrapped__(2, constants)  # uncached: measure the build
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.key) == universe_size(2, len(constants))
    assert (np.diff(table.key) > 0).all()  # ascending keys: lexicographic order
    budget = 3 * (table.values.nbytes + table.key.nbytes)
    assert peak < budget, (peak, budget)


@pytest.mark.parametrize("constants", [(), (0,), (0, 5)])
def test_universe_table_matches_matrices(constants):
    for n in range(1, 7):
        table = universe_table(n, constants)
        matrices = universe(n, constants)
        assert table.values.shape == (len(matrices), n)
        for k, m in enumerate(matrices):
            for i in range(n):
                diagonal = table.values[k, i] if table.values[k, i] >= 0 else ONE
                assert diagonal == m.entry(i, i)
                for j in range(n):
                    assert (table.values[k, i] == table.values[k, j]) == (m.entry(i, j) != ZERO)
        assert table.positions(matrices).tolist() == list(range(len(matrices)))
        assert len(set(matrices)) == len(matrices)


@pytest.mark.parametrize("constants", [(), (0,), (0, 5), (3, 1, 2)])
def test_universe_table_matches_recursive_enumerator(constants):
    # (3, 1, 2) is unsorted: pinnings follow the declared order
    rng = random.Random(29)
    for n in range(1, 8):
        table = universe_table(n, constants)
        block, label, want = enumerate_universe(n, constants)
        # the marker valuation: a pinned register holds its constant, and
        # unpinned block b holds -1 - b
        markers = np.where(label == ONE, -1 - block.astype(np.int64), label)
        assert table.values.dtype == np.int8
        assert np.array_equal(table.values, markers)
        assert np.array_equal(table.key, class_keys(markers, constants))
        built = universe(n, constants)
        assert [m.rows for m in built] == [m.rows for m in want]
        for m in built:
            checked = RepMatrix(m.rows)
            assert m == checked and hash(m) == hash(checked)
        # the hash names the class, so no two classes share one
        assert len({hash(m) for m in built}) == len(built)
        assert table.positions(want).tolist() == list(range(len(want)))
        ks = np.array(sorted(rng.sample(range(len(want)), min(len(want), 40))))
        assert build_matrices(table.values[ks], constants) == [built[k] for k in ks]


@pytest.mark.parametrize(
    "constants, dtype", [((127,), np.int8), ((128,), np.int16), ((2**63 - 1,), np.int64)]
)
def test_value_dtype_holds_the_constants(constants, dtype):
    for n in range(1, 6):
        table = universe_table(n, constants)
        assert table.values.dtype == dtype
        assert table.values.max() == constants[0] and table.values.min() == -n
        assert np.array_equal(class_keys(table.values, constants), table.key)
        matrices = universe(n, constants)
        assert table.positions(matrices).tolist() == list(range(len(matrices)))
        assert build_matrices(table.values[::-1], constants) == list(matrices[::-1])


def assert_built_as_checked(values: np.ndarray, constants: tuple[int, ...]) -> None:
    """``build_matrices`` of marker valuations gives, row for row, the
    matrices the checked constructor builds from the same valuations."""
    built = build_matrices(values, constants)
    want = [matrix_of_valuation(row, constants) for row in values.tolist()]
    assert [m.rows for m in built] == [m.rows for m in want]
    assert built == want
    assert [hash(m) for m in built] == [hash(m) for m in want]


def test_build_matrices_reads_first_register_markers():
    # ``marker_valuation`` marks a block by -1 minus its first register,
    # where the table numbers blocks in order of appearance
    rng = random.Random(5)
    for n, constants in [(1, ()), (1, (0,)), (4, ()), (5, (0, 7)), (7, (3,))]:
        alphabet = [*constants, 1, 2, 4, 5, 6][: n + len(constants)]
        valuations = [tuple(rng.choice(alphabet) for _ in range(n)) for _ in range(60)]
        matrices = [matrix_of_valuation(v, constants) for v in valuations]
        values = np.array([marker_valuation(m) for m in matrices])
        assert_built_as_checked(values, constants)
        assert build_matrices(values, constants) == matrices


def test_build_matrices_on_post_rows(monkeypatch):
    # ``post`` extends its images by one column per released register, over
    # 12 registers: past the universe limit, so no table holds these rows
    reach_module = importlib.import_module("regmc.reach")
    ra = havoc(12, kept=9)
    rows = []
    monkeypatch.setattr(
        reach_module, "build_matrices", lambda v, c: rows.append(v) or build_matrices(v, c)
    )
    distinct = RepConfig("q", matrix_of_valuation(tuple(range(1, 13)), ra.constants))
    successors = reach_module.post(ra, distinct)
    assert sum(map(len, rows)) == len(successors) > 1
    for values in rows:
        assert values.shape[1] == 12
        assert_built_as_checked(values, ra.constants)


@pytest.mark.parametrize(
    "constants", [(127,), (128,), (2**63 - 1,), (0, 127, 128), (5, 2**62, 2**63 - 1)]
)
def test_build_matrices_at_the_dtype_edges(constants):
    rng = np.random.default_rng(len(constants))
    for n in (1, 2, 3, 6):
        table = universe_table(n, constants)
        assert_built_as_checked(table.values, constants)
        # rows in no listing order, with repeats, in one call
        picked = table.values[rng.integers(0, len(table.values), size=200)]
        assert_built_as_checked(picked, constants)


@pytest.mark.parametrize("n", range(2, 6))
def test_label_codes_rank_constants_of_any_size(n):
    # a label is coded by its rank among ``ONE`` and the declared
    # constants, so codes stay small whatever the constants: 3 and 2**62,
    # which as values would not fit above the n mask bits of an int64
    # code, are told apart within one call
    constants = (3, 2**62)
    table = universe_table(n, constants)
    assert_built_as_checked(table.values, constants)
    names = tuple(f"x{i + 1}" for i in range(n))
    lines = list(classes_lines(table.values, constants, names))
    want = [matrix_of_valuation(row, constants) for row in table.values.tolist()]
    assert lines == [dsl.classes_text(m, names) for m in want]


def test_build_matrices_memory_is_bounded_by_its_columns():
    # an 8192-row chunk of the 9-register table: a (rows, n, n) int64
    # product alone is n times an (n, rows) int64 column set
    values = universe_table(9, (0,)).values[:8192]
    column_set = values.size * 8
    build_matrices(values[:8], (0,))  # caches, outside the measurement
    tracemalloc.start()
    try:
        built = build_matrices(values, (0,))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built) == len(values)
    assert peak - kept < 4 * column_set, (peak, kept, column_set)


def test_build_matrices_scratch_does_not_grow_with_the_rows():
    # the working memory beyond the built matrices (peak minus kept) is one
    # chunk's, whether the call builds a tenth of the 8-register table or
    # all of it
    values = universe_table(8, (0,)).values
    build_matrices(values[:8], (0,))  # caches, outside the measurement

    def scratch(rows: int) -> int:
        tracemalloc.start()
        try:
            built = build_matrices(values[:rows], (0,))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(built) == rows
        return peak - kept

    few, every = scratch(2048), scratch(len(values))
    assert every < 1.5 * few, (few, every)
    assert every < 1 << 18, every


def test_lookup_memory_is_bounded_by_a_chunk():
    # five 8192-matrix chunks of the 9-register table: read whole, the
    # batch's (matrices, n, n) int64 entries alone would be five times one
    # chunk's, and the lookup then builds a second such array to compare
    table = universe_table(9, (0,))
    chunk_entries = 8192 * 9 * 9 * 8
    matrices = build_matrices(table.values[: 5 * 8192], (0,))
    table.positions(matrices[:8])  # caches, outside the measurement
    tracemalloc.start()
    try:
        found = table.positions(matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.tolist() == list(range(len(matrices)))
    assert peak < 6 * chunk_entries, (peak, chunk_entries)


def test_lookup_refuses_non_classes():
    table = universe_table(2, (2,))
    assert table.positions(NOT_A_FIGURE_ONE_CLASS).tolist() == [-1] * len(NOT_A_FIGURE_ONE_CLASS)
    # classes of other universes: other sizes, other constants
    for other in [universe(1, (2,)), universe(3, (2,)), universe(2, (5,)), universe(2, (2, 5))]:
        ks = table.positions(other)
        assert all((k >= 0) == (m in universe(2, (2,))) for k, m in zip(ks, other))
    assert table.positions(universe(2, (2, 5))).tolist() == [0, 1, -1, 2, 3, -1, 4, -1, -1, -1]
    # near misses: the first related registers and the diagonal name a class,
    # one off-diagonal entry does not
    three = universe_table(3, (2,))
    missed = [
        mat((2, 2, ZERO), (2, 2, ZERO), (ZERO, ZERO, ONE)),
        mat((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)),
    ]
    near = [
        mat((2, 2, ZERO), (2, 2, 2), (ZERO, ZERO, ONE)),
        mat((ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, ZERO, ONE)),
    ]
    assert -1 not in three.positions(missed).tolist()
    assert three.positions(near).tolist() == [-1, -1]


@pytest.mark.parametrize("constants", [(), (0,)], ids=["none", "one"])
def test_undeclared_constants_make_no_class(constants):
    # every 1- and 2-register matrix with an entry 7, a constant the
    # universe does not declare, anywhere
    alphabet = (ZERO, ONE, *constants, 7)
    for n in (1, 2):
        ra = RegisterAutomaton(constants, tuple(f"x{i + 1}" for i in range(n)), (), ("q",), "q", ())
        table = universe_table(n, constants)
        held = [
            RepMatrix(tuple(entries[i * n : (i + 1) * n] for i in range(n)))
            for entries in itertools.product(alphabet, repeat=n * n)
            if 7 in entries
        ]
        assert len(held) == len(alphabet) ** (n * n) - (len(alphabet) - 1) ** (n * n)
        for m in held:
            assert not has_valid_structure(m, constants), m.rows
            assert not is_class(m, n, constants), m.rows
            with pytest.raises(ValueError):
                dsl.serialize(RepConfig("q", m), ra)
        assert table.positions(held).tolist() == [-1] * len(held)


@pytest.mark.parametrize("constants", [(), (0,), (3, 1, 2)], ids=["none", "one", "three"])
def test_lookup_finds_exactly_the_classes(constants):
    # seeded random matrices over ZERO, ONE, the declared constants and one
    # undeclared value (7): a class, the same class with one entry redrawn
    # (often the same marker valuation, so the same key), a matrix drawn
    # entry by entry, and a class over one register more
    rng = random.Random(41 + len(constants))
    alphabet = [ZERO, ONE, *constants, 7]
    key_hits = 0
    for n in range(1, 6):
        table = universe_table(n, constants)
        classes = universe(n, constants)
        matrices = [matrix_of_valuation(tuple(range(1, n + 2)), constants)]
        for _ in range(200):
            m = rng.choice(classes)
            rows = [list(row) for row in m.rows]
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(alphabet)
            drawn = [[rng.choice(alphabet) for _ in range(n)] for _ in range(n)]
            matrices += [m, mat(*rows), mat(*drawn)]
        found = table.positions(matrices).tolist()
        for m, k in zip(matrices, found):
            assert (k >= 0) == is_class(m, n, constants), (m, k)
            if k >= 0:
                assert build_matrices(table.values[[k]], constants) == [m]
        # non-classes of this size whose marker valuation has a class's key:
        # only the comparison with the built matrix turns them away
        square = [m for m, k in zip(matrices, found) if m.n == n and k < 0]
        keys = class_keys(np.array([marker_valuation(m) for m in square]).reshape(-1, n), constants)
        key_hits += int(np.isin(keys, table.key).sum())
    assert key_hits >= 100, key_hits


def test_ten_register_table_in_budget():
    # measured in a fresh process, so neither the cache nor this process's
    # memory counts.  Linux carries peak RSS across exec, and a spawned
    # child starts from its parent's peak, so a small intermediate process
    # starts the measured one.
    code = (
        "import json, resource, time\n"
        "from regmc.matrices import universe_table\n"
        "t = time.perf_counter()\n"
        "table = universe_table(10, (0,))\n"
        "wall = time.perf_counter() - t\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps([len(table.key), wall, rss_mb]))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    relay = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    done = subprocess.run(
        [sys.executable, "-c", relay, code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    count, wall, rss_mb = json.loads(done.stdout)
    assert count == 678570
    assert wall < 2.0, wall
    assert rss_mb < 100, rss_mb


def test_universe_refuses_repeated_constants():
    with pytest.raises(ValueError, match="duplicate"):
        universe_table(2, (0, 0))


def test_universe_refuses_negative_constants():
    for constants in [(-1,), (-2,), (0, -3)]:
        with pytest.raises(ValueError, match="naturals"):
            universe_table(2, constants)


def test_universe_refuses_constants_past_64_bits():
    for constants in [(2**63,), (0, 10**20)]:
        with pytest.raises(ValueError, match="below 2"):
            universe_table(2, constants)


def test_universe_size_limit():
    # decided from the count alone: no refused universe is enumerated here
    assert universe_size(10, 1) == 678570 <= MAX_CLASSES
    assert universe_size(9, 1) == 115975
    assert universe_size(12, 0) == universe_size(11, 1) == 4213597 > MAX_CLASSES
    for n, constants in [(12, ()), (11, (0,)), (40, ())]:
        with pytest.raises(ValueError, match="class limit"):
            universe_table(n, constants)
        with pytest.raises(ValueError, match="class limit"):
            universe(n, constants)
