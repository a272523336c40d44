"""Branching-time labeling, played against the textbook explicit-state checker."""

from __future__ import annotations

import dataclasses
import operator
import random
import time

import numpy as np
import pytest

import oracles
from gens import NOT_A_FIGURE_ONE_CLASS, random_automaton, random_formula
from regmc import ctl, dsl
from regmc.classes import ONE, ZERO, RepConfig, RepMatrix, matrix_of_valuation
from regmc.core import Configuration, sufficient_pool
from regmc.ctl import compute_ctl, model_check
from regmc.formulas import (
    FALSE,
    MAX_FORMULA_DEPTH,
    TRUE,
    EG,
    EX,
    And,
    AtLocation,
    Not,
    RegEq,
    RegEqConst,
    af,
    ag,
    ax,
    ef,
    implies,
    or_,
)
from regmc.reach import LabelSet, quotient_graph


@pytest.fixture()
def figraph(fig):
    return quotient_graph(fig)


def test_atom_examples(figraph):
    nodes = figraph.nodes
    assert compute_ctl(figraph, RegEq(0, 0)) == nodes
    assert compute_ctl(figraph, RegEq(1, 1)) == nodes

    both_equal = compute_ctl(figraph, RegEq(0, 1))
    assert {c.matrix.rows for c in both_equal} == {
        ((ONE, ONE), (ONE, ONE)),
        ((2, 2), (2, 2)),
    }
    assert len(both_equal) == 4  # two of the five matrices, at each location

    at0 = compute_ctl(figraph, AtLocation("l0"))
    assert len(at0) == 5 and all(c.location == "l0" for c in at0)

    first_is_two = compute_ctl(figraph, RegEqConst(0, 2))
    assert all(c.matrix.entry(0, 0) == 2 for c in first_is_two)
    assert len(first_is_two) == 4


def test_atom_validation(figraph):
    for bad in (AtLocation("nowhere"), RegEq(0, 2), RegEqConst(5, 2)):
        for f in (bad, Not(bad), EX(And(TRUE, bad))):
            with pytest.raises(ValueError):
                compute_ctl(figraph, f)
            with pytest.raises(ValueError):
                model_check(figraph, f)


def test_atoms_over_undeclared_constants_are_refused(figraph):
    # figure one declares only 2; l0 holds valuations with x1 = 7, so an
    # empty label set for x1 = 7 would make !(x1 = 7) hold there
    atom = RegEqConst(0, 7)
    with pytest.raises(ValueError, match="not declared"):
        compute_ctl(figraph, atom)
    with pytest.raises(ValueError, match="not declared"):
        compute_ctl(figraph, EX(atom))
    with pytest.raises(ValueError, match="not declared"):
        model_check(figraph, Not(atom))


def test_set_operations(figraph):
    nodes = figraph.nodes
    l1 = AtLocation("l1")
    s = compute_ctl(figraph, l1)
    assert compute_ctl(figraph, Not(TRUE)) == set()
    assert compute_ctl(figraph, Not(FALSE)) == nodes
    assert compute_ctl(figraph, Not(l1)) == nodes - s
    assert compute_ctl(figraph, And(l1, l1)) == s
    assert compute_ctl(figraph, And(l1, FALSE)) == set()
    assert not figraph._ex_masks(figraph._masks_of(set())).any()


def test_until_trivia(figraph):
    none, every = figraph._masks_of(set()), figraph.nodes.masks
    s = compute_ctl(figraph, RegEqConst(0, 2)).masks
    assert np.array_equal(ctl._eu_masks(figraph, none, s), s)
    assert np.array_equal(ctl._eu_masks(figraph, s, every), every)
    assert not ctl._eg_masks(figraph, none).any()


def test_eg_on_a_self_loop(fig, figraph):
    ident = RepConfig("l1", RepMatrix(((ONE, ZERO), (ZERO, ONE))))
    assert ident in oracles.edges(quotient_graph(fig), ident)
    masks = figraph._masks_of({ident})
    assert np.array_equal(ctl._eg_masks(figraph, masks), masks)


def test_eg_true_when_no_deadlocks(figraph):
    # both locations always admit some step, so every node heads an infinite path
    nodes = figraph.nodes
    assert all(oracles.edges(figraph, n) for n in nodes)
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
    assert not g._ex_masks(g.nodes.masks).any()
    assert compute_ctl(g, EG(TRUE)) == set()
    assert model_check(g, af(TRUE)) is True  # vacuous: AF True is everything


def test_fixpoint_laws(figraph):
    rng = random.Random(11)
    nodes = sorted(figraph.nodes, key=lambda c: (c.location, c.matrix.rows))
    for _ in range(20):
        s0 = figraph._masks_of({c for c in nodes if rng.random() < 0.5})
        s1 = figraph._masks_of({c for c in nodes if rng.random() < 0.3})
        eu = ctl._eu_masks(figraph, s0, s1)
        assert np.array_equal(eu, s1 | (s0 & figraph._ex_masks(eu)))
        eg = ctl._eg_masks(figraph, s0)
        assert np.array_equal(eg, s0 & figraph._ex_masks(eg))


def test_dualities_definitional(fig, figraph):
    rng = random.Random(12)
    nodes = figraph.nodes
    for _ in range(25):
        f = random_formula(rng, fig, rng.randint(0, 2))
        sat = compute_ctl(figraph, f)
        ax_f, ef_f, ag_f = (compute_ctl(figraph, g).masks for g in (ax(f), ef(f), ag(f)))
        assert np.array_equal(ax_f, ~figraph._ex_masks(~sat.masks))
        assert np.array_equal(ef_f, ctl._eu_masks(figraph, nodes.masks, sat.masks))
        assert np.array_equal(ag_f, ~ctl._eu_masks(figraph, nodes.masks, ~sat.masks))
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


_OPERATORS = (operator.and_, operator.or_, operator.sub, operator.xor)
_COMPARISONS = (operator.eq, operator.ne, operator.le, operator.lt, operator.ge, operator.gt)


def _non_members(ra, graph) -> list[object]:
    """Things that are no node of ``graph``: another location, a matrix over
    one register too many, and objects that are not configurations."""
    m = next(iter(graph.nodes)).matrix
    n = ra.num_registers + 1
    wide = RepMatrix(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))
    return [RepConfig("nowhere", m), RepConfig(ra.initial, wide), (ra.initial, m), m, 7, None]


def test_label_set_views_match_builtin_sets(fig):
    machines = [fig] + [random_automaton(random.Random(700 + seed)) for seed in range(8)]
    for seed, ra in enumerate(machines):
        rng = random.Random(seed)
        g = quotient_graph(ra)
        nodes = set(g.nodes)
        strangers = _non_members(ra, g)
        if ra is fig:
            strangers += [RepConfig(loc, m) for loc in ra.locations for m in NOT_A_FIGURE_ONE_CLASS]
        views = []
        for _ in range(4):
            f = random_formula(rng, ra, rng.randint(0, 3))
            view = compute_ctl(g, f)
            want = oracles.explicit_ctl(g, f)
            assert isinstance(view, LabelSet)
            assert set(view) == want and len(view) == len(want), (ra, f)
            assert all((node in view) == (node in want) for node in nodes), (ra, f)
            assert not any(x in view for x in strangers), (ra, f)
            with pytest.raises(ValueError):
                view.masks[0, 0] = not view.masks[0, 0]
            views.append(view)
        # a view of the same nodes in another graph, and one whose nodes are
        # listed in another order, which is looked up like any other set
        again = quotient_graph(ra)
        flipped = dataclasses.replace(ra, locations=ra.locations[::-1])
        views.append(compute_ctl(again, EX(TRUE)))
        views.append(compute_ctl(quotient_graph(flipped), EX(TRUE)))
        views.append(g.nodes)
        for view in views:
            assert set(LabelSet(g, ~g._masks_of(view))) == nodes - set(view), ra
            members = sorted(view, key=lambda c: (c.location, c.matrix.rows))
            some = set(rng.sample(members, len(members) // 2))
            builtins = [set(), set(view), some, some | set(strangers[:2]), nodes, set(strangers)]
            # the ``Set`` mixins answer with builtin frozensets, equal to the
            # builtin answers below
            for op in _OPERATORS:
                assert type(op(view, some)) is frozenset and type(op(some, view)) is frozenset, (ra, op)
            for other in builtins:
                for op in _OPERATORS + _COMPARISONS:
                    assert op(view, other) == op(set(view), other), (ra, op, other)
                    assert op(other, view) == op(other, set(view)), (ra, op, other)
                assert view.isdisjoint(other) == set(view).isdisjoint(other)
            for other in views:
                for op in _OPERATORS + _COMPARISONS:
                    assert op(view, other) == op(set(view), set(other)), (ra, op)
    # a view from another machine's graph is refused like any set of non-nodes
    other = quotient_graph(random_automaton(random.Random(3), max_registers=1))
    with pytest.raises(ValueError):
        quotient_graph(fig)._masks_of(other.nodes)


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


def test_shared_subformulas_cost_linear_time(figraph):
    # 40 levels of And(f, f) unfold to 2^40 leaves but hold 41 distinct nodes
    atom = RegEq(0, 1)
    shared = atom
    for _ in range(40):
        shared = And(shared, shared)
    start = time.perf_counter()
    assert model_check(figraph, shared) == model_check(figraph, atom)
    assert compute_ctl(figraph, shared) == compute_ctl(figraph, atom)
    assert time.perf_counter() - start < 1.0


def test_equal_subformulas_share_one_result(fig, figraph, monkeypatch):
    # separately parsed copies of one subformula run one fixpoint
    f = dsl.parse_formula("EG (x1 = 2) & EG (x1 = 2)", fig)
    assert f.f0 is not f.f1
    calls = []
    eg_masks = ctl._eg_masks
    monkeypatch.setattr(ctl, "_eg_masks", lambda *a: calls.append(1) or eg_masks(*a))
    assert compute_ctl(figraph, f) == compute_ctl(figraph, EG(RegEqConst(0, 2)))
    assert len(calls) == 2


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
