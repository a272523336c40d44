"""Branching-time labeling, played against the textbook explicit-state checker."""

from __future__ import annotations

import random

import pytest

import oracles
from gens import random_automaton, random_formula
from regmc import dsl
from regmc.core import Configuration, sufficient_pool
from regmc.ctl import (
    FALSE,
    MAX_FORMULA_DEPTH,
    TRUE,
    EG,
    EU,
    EX,
    And,
    AtLocation,
    Not,
    RegEq,
    RegEqConst,
    af,
    ag,
    ax,
    compute_and,
    compute_ap,
    compute_ctl,
    compute_eg,
    compute_eu,
    compute_ex,
    compute_not,
    ef,
    implies,
    model_check,
    or_,
)
from regmc.matrices import ONE, ZERO, RepConfig, RepMatrix, matrix_of_valuation
from regmc.reach import quotient_graph


@pytest.fixture()
def figraph(fig):
    return quotient_graph(fig)


def test_atom_examples(figraph):
    nodes = figraph.nodes
    assert compute_ap(figraph, RegEq(0, 0)) == nodes
    assert compute_ap(figraph, RegEq(1, 1)) == nodes

    both_equal = compute_ap(figraph, RegEq(0, 1))
    assert {c.matrix.rows for c in both_equal} == {
        ((ONE, ONE), (ONE, ONE)),
        ((2, 2), (2, 2)),
    }
    assert len(both_equal) == 4  # two of the five matrices, at each location

    at0 = compute_ap(figraph, AtLocation("l0"))
    assert len(at0) == 5 and all(c.location == "l0" for c in at0)

    first_is_two = compute_ap(figraph, RegEqConst(0, 2))
    assert all(c.matrix.entry(0, 0) == 2 for c in first_is_two)
    assert len(first_is_two) == 4


def test_atom_validation(figraph):
    with pytest.raises(ValueError):
        compute_ap(figraph, Not(TRUE))
    with pytest.raises(ValueError):
        compute_ap(figraph, And(TRUE, TRUE))
    with pytest.raises(ValueError):
        compute_ap(figraph, AtLocation("nowhere"))
    with pytest.raises(ValueError):
        compute_ap(figraph, RegEq(0, 2))
    with pytest.raises(ValueError):
        compute_ap(figraph, RegEqConst(5, 2))


def test_set_operations(figraph):
    nodes = figraph.nodes
    s = compute_ap(figraph, AtLocation("l1"))
    assert compute_not(figraph, nodes) == set()
    assert compute_not(figraph, set()) == nodes
    assert compute_not(figraph, s) == nodes - s
    assert compute_and(s, s) == s
    assert compute_and(s, set()) == set()
    assert compute_ex(figraph, set()) == set()


def test_until_trivia(figraph):
    nodes = figraph.nodes
    s = compute_ap(figraph, RegEqConst(0, 2))
    assert compute_eu(figraph, set(), s) == s
    assert compute_eu(figraph, s, nodes) == nodes
    assert compute_eg(figraph, set()) == set()


def test_eg_on_a_self_loop(fig, figraph):
    ident = RepConfig("l1", RepMatrix(((ONE, ZERO), (ZERO, ONE))))
    assert ident in quotient_graph(fig).edges(ident)
    assert compute_eg(figraph, {ident}) == {ident}


def test_eg_true_when_no_deadlocks(figraph):
    # both locations always admit some step, so every node heads an infinite path
    nodes = figraph.nodes
    assert all(figraph.edges(n) for n in nodes)
    assert compute_ctl(figraph, EG(TRUE)) == nodes


def test_deadlocked_graph_has_no_eg():
    from regmc.core import Action, RegisterAutomaton

    ra = RegisterAutomaton(
        constants=(),
        registers=("x1",),
        actions=(Action("a", 0),),
        locations=("l0",),
        initial="l0",
        transitions=(),
    )
    g = quotient_graph(ra)
    assert compute_ex(g, g.nodes) == set()
    assert compute_ctl(g, EG(TRUE)) == set()
    assert model_check(g, af(TRUE)) is True  # vacuous: AF True is everything


def test_fixpoint_laws(figraph):
    rng = random.Random(11)
    nodes = sorted(figraph.nodes, key=lambda c: (c.location, c.matrix.rows))
    for _ in range(20):
        s0 = {c for c in nodes if rng.random() < 0.5}
        s1 = {c for c in nodes if rng.random() < 0.3}
        eu = compute_eu(figraph, s0, s1)
        assert eu == s1 | (s0 & compute_ex(figraph, eu))
        eg = compute_eg(figraph, s0)
        assert eg == s0 & compute_ex(figraph, eg)


def test_dualities_definitional(fig, figraph):
    rng = random.Random(12)
    nodes = figraph.nodes
    for _ in range(25):
        f = random_formula(rng, fig, rng.randint(0, 2))
        sat = compute_ctl(figraph, f)
        assert compute_ctl(figraph, ax(f)) == compute_not(
            figraph, compute_ex(figraph, compute_not(figraph, sat))
        )
        assert compute_ctl(figraph, ef(f)) == compute_eu(figraph, nodes, sat)
        assert compute_ctl(figraph, ag(f)) == compute_not(
            figraph, compute_eu(figraph, nodes, compute_not(figraph, sat))
        )
        assert compute_ctl(figraph, or_(f, FALSE)) == sat
        assert compute_ctl(figraph, implies(f, f)) == nodes


def test_labeling_matches_explicit_oracle_on_quotients(fig, figraph):
    rng = random.Random(13)
    for _ in range(60):
        f = random_formula(rng, fig, rng.randint(0, 3))
        assert compute_ctl(figraph, f) == oracles.explicit_ctl(figraph, f)
    for seed in range(15):
        rng = random.Random(400 + seed)
        ra = random_automaton(rng)
        g = quotient_graph(ra)
        for _ in range(3):
            f = random_formula(rng, ra, rng.randint(0, 3))
            assert compute_ctl(g, f) == oracles.explicit_ctl(g, f), (ra, f)


def _pool_bijection(rng: random.Random, pool: tuple[int, ...], constants: tuple[int, ...]):
    fresh = [d for d in pool if d not in constants]
    image = fresh[:]
    rng.shuffle(image)
    sigma = {**{c: c for c in constants}, **dict(zip(fresh, image))}
    return sigma


def test_satisfaction_constant_fixing_invariance():
    # concrete configurations in the same class satisfy the same formulas
    rng = random.Random(14)
    for _ in range(12):
        ra = random_automaton(rng, max_registers=2)
        pool = sufficient_pool(ra)
        cg = oracles.concrete_graph(ra, pool)
        f = random_formula(rng, ra, rng.randint(1, 3))
        sat = oracles.explicit_ctl(cg, f)
        for _ in range(20):
            u = tuple(rng.choice(pool) for _ in ra.registers)
            sigma = _pool_bijection(rng, pool, ra.constants)
            v = tuple(sigma[d] for d in u)
            l = rng.choice(ra.locations)
            assert (Configuration(l, u) in sat) == (Configuration(l, v) in sat), (ra, f, u, v)


def test_labeling_matches_concrete_satisfaction():
    # the class of a valuation is labeled exactly when the valuation satisfies
    rng = random.Random(15)
    for _ in range(12):
        ra = random_automaton(rng, max_registers=2)
        pool = sufficient_pool(ra)
        cg = oracles.concrete_graph(ra, pool)
        g = quotient_graph(ra)
        f = random_formula(rng, ra, rng.randint(0, 3))
        concrete = oracles.explicit_ctl(cg, f)
        abstract = compute_ctl(g, f)
        for _ in range(25):
            u = tuple(rng.choice(pool) for _ in ra.registers)
            l = rng.choice(ra.locations)
            lhs = RepConfig(l, matrix_of_valuation(u, ra.constants)) in abstract
            rhs = Configuration(l, u) in concrete
            assert lhs == rhs, (ra, f, l, u)


def test_model_check_examples(figraph):
    assert model_check(figraph, TRUE) is True
    assert model_check(figraph, FALSE) is False
    assert model_check(figraph, AtLocation("l0")) is True
    assert model_check(figraph, AtLocation("l1")) is False
    assert model_check(figraph, or_(AtLocation("l0"), AtLocation("l1"))) is True
    assert model_check(figraph, ef(RegEqConst(0, 2))) is True


def test_formulas_deeper_than_the_limit_raise_value_error(fig, figraph):
    deep = RegEq(0, 1)
    for _ in range(3000):
        deep = Not(deep)
    for refuse in (
        lambda: model_check(figraph, deep),
        lambda: compute_ctl(figraph, deep),
        lambda: dsl.serialize(deep, fig),
    ):
        with pytest.raises(ValueError, match="nests deeper"):
            refuse()

    at_limit = RegEq(0, 1)
    for _ in range(MAX_FORMULA_DEPTH - 1):
        at_limit = Not(at_limit)  # an odd count of negations: x1 != x2
    assert compute_ctl(figraph, at_limit) == compute_ctl(figraph, Not(RegEq(0, 1)))
    assert model_check(figraph, at_limit) is False
    assert dsl.parse_formula(dsl.serialize(at_limit, fig), fig) == at_limit
