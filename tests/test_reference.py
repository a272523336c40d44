"""The literal-scan references agree with the combinatorial constructions."""

from __future__ import annotations

import random

import pytest

from gens import NOT_A_FIGURE_ONE_CLASS, random_automaton
from regmc.classes import ONE, RepConfig, RepMatrix
from regmc.matrices import universe
from reference import literal_post, literal_universe, universe_size


def test_literal_universe_single_register():
    assert literal_universe(1, ()) == (RepMatrix(((ONE,),)),)
    assert [m.rows for m in literal_universe(1, (7,))] == [((ONE,),), ((7,),)]


def test_literal_universe_matches_construction():
    for n in (1, 2, 3):
        for constants in ((), (0,), (0, 2)):
            lit = literal_universe(n, constants)
            built = universe(n, constants)
            assert set(lit) == set(built)
            assert len(lit) == len(built) == universe_size(n, len(constants))


def test_literal_universe_guards():
    with pytest.raises(ValueError):
        literal_universe(0, ())
    for constants in [(-1,), (-2,), (0, -3)]:
        with pytest.raises(ValueError, match="naturals"):
            literal_universe(2, constants)
    with pytest.raises(ValueError):
        literal_universe(4, (0, 1, 2))  # 5^16 candidates


def test_universe_size_matches_materialization():
    for n in (1, 2, 3, 4):
        for k in (0, 1, 2):
            constants = tuple(range(k))
            assert universe_size(n, k) == len(universe(n, constants))


def test_literal_post_agrees_with_post():
    from regmc.reach import post

    rng = random.Random(31)
    for _ in range(40):
        ra = random_automaton(rng)
        node = RepConfig(
            rng.choice(ra.locations), rng.choice(universe(ra.num_registers, ra.constants))
        )
        assert literal_post(ra, node) == post(ra, node)


def test_literal_post_validation(fig):
    from regmc.classes import ZERO

    ident = RepMatrix(((ONE, ZERO), (ZERO, ONE)))
    with pytest.raises(ValueError):
        literal_post(fig, RepConfig("nowhere", ident))
    with pytest.raises(ValueError):
        literal_post(fig, RepConfig("l0", RepMatrix(((ONE,),))))
    with pytest.raises(ValueError):
        literal_post(fig, RepConfig("l0", RepMatrix(((ZERO, ZERO), (ZERO, ZERO)))))
    for m in NOT_A_FIGURE_ONE_CLASS:
        with pytest.raises(ValueError):
            literal_post(fig, RepConfig("l0", m))
    with pytest.raises(ValueError):  # two blocks pinned to the one constant
        literal_post(fig, RepConfig("l0", RepMatrix(((2, ZERO), (ZERO, 2)))))
