"""Valuation classes, their matrices, and the finite universe."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmc.core import Assignment, ConstantTerm, ParameterTerm, RegisterTerm
from regmc.eqlogic import Atom, const, eq, ne, par, primed, reg
from regmc.matrices import (
    MAX_CLASSES,
    ONE,
    ZERO,
    RepMatrix,
    canonical_valuation,
    equivalent,
    formula_E_of_assignment,
    formula_E_of_matrix,
    formula_E_of_valuation,
    fresh_symbols,
    has_valid_structure,
    is_consistent_matrix,
    matrix_of_valuation,
    universe,
    universe_size,
    universe_table,
)


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


def test_formula_of_valuation():
    got = formula_E_of_valuation((1, 2, 2), ())
    assert normalized(got.atoms()) == {
        (frozenset((reg(0), reg(1))), False),
        (frozenset((reg(0), reg(2))), False),
        (frozenset((reg(1), reg(2))), True),
    }
    got = formula_E_of_valuation((5, 5), (), primed_vars=True)
    assert normalized(got.atoms()) == {(frozenset((primed(0), primed(1))), True)}
    got = formula_E_of_valuation((0,), (0,))
    assert normalized(got.atoms()) == {(frozenset((reg(0), const(0))), True)}
    # a register away from every constant says so explicitly
    got = formula_E_of_valuation((3,), (0, 7))
    assert normalized(got.atoms()) == {
        (frozenset((reg(0), const(0))), False),
        (frozenset((reg(0), const(7))), False),
    }


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


def test_universe_order_is_frozen():
    assert universe(2, (2,)) == (
        mat((ONE, ONE), (ONE, ONE)),
        mat((2, 2), (2, 2)),
        mat((ONE, ZERO), (ZERO, ONE)),
        mat((ONE, ZERO), (ZERO, 2)),
        mat((2, ZERO), (ZERO, ONE)),
    )


@pytest.mark.parametrize("constants", [(), (0,), (0, 5)])
def test_universe_table_matches_matrices(constants):
    for n in range(1, 7):
        table = universe_table(n, constants)
        assert table.block.shape == table.label.shape == (len(table.matrices), n)
        for k, m in enumerate(table.matrices):
            for i in range(n):
                assert table.label[k, i] == m.entry(i, i)
                for j in range(n):
                    assert (table.block[k, i] == table.block[k, j]) == (m.entry(i, j) != ZERO)
            assert table.index[m] == k
        assert len(table.index) == len(table.matrices)


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
