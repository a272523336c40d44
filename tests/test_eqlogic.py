"""Unit tests for the (dis)equality constraint engine."""

from __future__ import annotations

import itertools
import random

import pytest

from eqlogic import (
    Atom,
    ConstraintSystem,
    closure,
    conjoin,
    const,
    entails,
    eq,
    is_consistent,
    merge,
    ne,
    par,
    primed,
    reg,
    system,
)


def brute_models(s, extra_vars=()):
    """All assignments over a domain large enough to witness satisfiability.

    Constants are forced to themselves; every other variable ranges over the
    mentioned constants plus enough fresh values to realise any partition.
    """
    vars_ = set(s.universe) | set(extra_vars)
    consts = sorted({v[1] for v in vars_ if v[0] == "c"})
    free = sorted(v for v in vars_ if v[0] != "c")
    base = max(consts, default=-1) + 1
    domain = consts + [base + i for i in range(len(free) + 1)]
    for values in itertools.product(domain, repeat=len(free)):
        m = dict(zip(free, values))
        m.update({("c", c): c for c in consts})
        yield m


def holds(atom, m):
    return (m[atom.lhs] == m[atom.rhs]) == atom.equal


def satisfiable(s):
    return any(all(holds(a, m) for a in s.atoms()) for m in brute_models(s))


def test_transitivity_through_classes():
    s = system((eq(reg(0), reg(1)), eq(reg(1), reg(2))))
    assert entails(s, eq(reg(0), reg(2)))
    assert not entails(s, ne(reg(0), reg(2)))


def test_equal_and_distinct_is_inconsistent():
    s = system((eq(reg(0), reg(1)),))
    assert is_consistent(s)
    assert not is_consistent(conjoin(s, ne(reg(1), reg(0))))


def test_reflexive_disequality_is_inconsistent():
    assert not is_consistent(system((ne(par(1), par(1)),)))


def test_constants_pin_classes():
    s = system((eq(reg(0), const(5)), eq(reg(1), const(5))))
    assert entails(s, eq(reg(0), reg(1)))
    t = system((eq(reg(0), const(5)), eq(reg(1), const(7))))
    assert entails(t, ne(reg(0), reg(1)))
    assert not is_consistent(conjoin(t, eq(reg(0), reg(1))))


def test_distinct_constants_never_merge():
    assert not is_consistent(system((eq(const(3), const(4)),)))
    assert is_consistent(system((eq(const(3), const(3)),)))


def test_universe_bookkeeping():
    s = system((eq(reg(0), par(1)),))
    assert s.universe == {reg(0), par(1)}
    t = conjoin(s, ne(reg(0), const(2)))
    assert t.universe == {reg(0), par(1), const(2)}
    with pytest.raises(ValueError):
        ConstraintSystem(frozenset(), ((reg(0), reg(1)),), ())


def test_unmentioned_variables_are_free():
    clo = closure(system())
    assert clo is not None
    assert clo.constant_of(const(9)) == 9
    assert clo.constant_of(reg(0)) is None
    assert clo.equal(reg(4), reg(4))
    assert not clo.disequal(reg(4), reg(5))
    assert clo.disequal(const(1), const(2))


def test_primed_and_plain_registers_are_distinct_variables():
    s = system((eq(reg(0), const(1)), eq(primed(0), const(2))))
    assert is_consistent(s)
    assert entails(s, ne(reg(0), primed(0)))


def test_disequality_to_a_constant_class():
    s = system((ne(reg(0), const(5)), eq(reg(1), const(5))))
    assert entails(s, ne(reg(0), reg(1)))
    clo = closure(s)
    assert clo is not None
    assert clo.disequal(reg(0), const(5))
    assert not clo.disequal(reg(0), const(7))


def test_merge_drops_exact_duplicates():
    a, b = eq(reg(0), par(1)), ne(reg(1), const(0))
    s = merge(system((a,)), system((a, b)))
    assert s.equalities == ((reg(0), par(1)),)
    assert s.disequalities == ((reg(1), const(0)),)


POOL = [reg(0), reg(1), primed(0), par(1), const(0), const(5)]


def random_system(rng, max_atoms=6):
    return system(
        Atom(rng.choice(POOL), rng.choice(POOL), rng.random() < 0.6)
        for _ in range(rng.randrange(max_atoms + 1))
    )


def test_consistency_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        s = random_system(rng)
        assert is_consistent(s) == satisfiable(s), s


def test_entailment_matches_brute_force():
    rng = random.Random(2)
    for _ in range(300):
        s = random_system(rng)
        atom = Atom(rng.choice(POOL), rng.choice(POOL), rng.random() < 0.5)
        expected = all(
            holds(atom, m)
            for m in brute_models(s, extra_vars=(atom.lhs, atom.rhs))
            if all(holds(a, m) for a in s.atoms())
        )
        assert entails(s, atom) == expected, (s, atom)


def test_entailing_both_polarities_means_inconsistent():
    rng = random.Random(3)
    for _ in range(200):
        s = random_system(rng)
        a = Atom(rng.choice(POOL), rng.choice(POOL), True)
        if entails(s, a) and entails(s, Atom(a.lhs, a.rhs, False)):
            assert not is_consistent(s)


def test_adding_atoms_preserves_inconsistency():
    rng = random.Random(4)
    for _ in range(200):
        s = random_system(rng)
        if not is_consistent(s):
            bigger = conjoin(s, Atom(rng.choice(POOL), rng.choice(POOL), rng.random() < 0.5))
            assert not is_consistent(bigger)
