"""Concrete-semantics tests: term evaluation, havoc steps, run checking."""

from __future__ import annotations

import random
import sys

import pytest

import gens
import oracles
from regmc.core import (
    Action,
    Assignment,
    Atom,
    Configuration,
    ConstantTerm,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Transition,
    ValuePool,
    apply_assignment,
    check_run,
    concrete_steps,
    eval_guard,
    eval_term,
    sample_step,
    sufficient_pool,
)


def test_eval_term():
    assert eval_term(RegisterTerm(1), (10, 20), (7,)) == 20
    assert eval_term(ParameterTerm(1), (10, 20), (7,)) == 7
    assert eval_term(ConstantTerm(3), (10, 20), (7,)) == 3


def test_eval_guard_is_a_conjunction():
    g = (Atom(RegisterTerm(0), ParameterTerm(1), True), Atom(ParameterTerm(1), ConstantTerm(2), False))
    assert eval_guard(g, (5,), (5,))
    assert not eval_guard(g, (5,), (6,))
    assert not eval_guard(g, (2,), (2,))
    assert eval_guard((), (1,), ())


def test_assignment_swap_reads_the_old_valuation():
    swap = Assignment(((0, RegisterTerm(1)), (1, RegisterTerm(0))))
    assert apply_assignment(swap, (1, 2), (), (9,)) == {(2, 1)}


def test_unassigned_registers_havoc_over_the_pool():
    out = apply_assignment(Assignment(), (1, 2), (), (0, 1))
    assert out == {(0, 0), (0, 1), (1, 0), (1, 1)}
    partial = Assignment(((0, ParameterTerm(1)),))
    assert apply_assignment(partial, (1, 2), (7,), (0, 1)) == {(7, 0), (7, 1)}


def test_fully_binding_assignment_ignores_the_pool():
    full = Assignment(((0, ParameterTerm(1)), (1, ConstantTerm(2))))
    for pool in ((5,), (5, 6, 7)):
        assert apply_assignment(full, (0, 0), (9,), pool) == {(9, 2)}


def test_assignment_normalisation():
    a = Assignment(((1, RegisterTerm(1)), (0, RegisterTerm(0))))
    assert a == Assignment.identity((0, 1))
    assert a.targets() == {0, 1}
    with pytest.raises(ValueError):
        Assignment(((0, RegisterTerm(0)), (0, RegisterTerm(1))))


def test_concrete_successors_of_the_pair_matcher(fig):
    pool = sufficient_pool(fig)
    succ = oracles.concrete_successors(fig, Configuration("l0", (7, 7)), pool)
    stored = {Configuration("l1", (a, b)) for a in pool for b in pool if a != b}
    havocked = {Configuration("l0", (a, b)) for a in pool for b in pool}
    assert succ == stored | havocked


def test_concrete_successors_respect_guards(fig):
    pool = sufficient_pool(fig)
    succ = oracles.concrete_successors(fig, Configuration("l1", (1, 3)), pool)
    assert Configuration("l1", (1, 3)) in succ  # matched a stored value
    assert Configuration("l1", (2, 3)) in succ  # reset to the constant
    # the l1 self-loops either keep the valuation or write (2, x2)
    assert Configuration("l1", (4, 3)) not in succ
    assert all(c.valuation == (1, 3) or c.valuation[0] == 2 for c in succ if c.location == "l1")


def test_successors_grow_with_the_pool(fig):
    small, large = (1, 2, 3), (1, 2, 3, 4, 5)
    for config in (Configuration("l0", (1, 1)), Configuration("l1", (1, 3))):
        small_succ = oracles.concrete_successors(fig, config, small)
        assert small_succ <= oracles.concrete_successors(fig, config, large)


def test_check_run_accepts_a_havoc_step(fig):
    run = (
        Configuration("l0", (7, 7)),
        Configuration("l1", (1, 3)),
        Configuration("l1", (1, 3)),
        Configuration("l1", (2, 3)),
        Configuration("l0", (6, 9)),
    )
    word = (("alpha", (1, 3)), ("beta", (1,)), ("beta", (2,)), ("beta", (1,)))
    assert check_run(fig, word, run)


def test_empty_word_accepts_any_initial_configuration(fig):
    assert check_run(fig, (), (Configuration("l0", (4, 9)),))
    assert not check_run(fig, (), (Configuration("l1", (4, 9)),))


def test_check_run_rejects_bad_runs(fig):
    good = (
        Configuration("l0", (7, 7)),
        Configuration("l1", (1, 3)),
    )
    word = (("alpha", (1, 3)),)
    assert check_run(fig, word, good)
    # wrong start location
    assert not check_run(fig, word, (Configuration("l1", (7, 7)), good[1]))
    # assigned register does not match the parameter
    assert not check_run(fig, word, (good[0], Configuration("l1", (1, 4))))
    # guard fails: equal parameters cannot take the storing transition
    assert not check_run(fig, (("alpha", (5, 5)),), (good[0], Configuration("l1", (5, 5))))
    with pytest.raises(ValueError):
        check_run(fig, (("alpha", (1,)),), good)
    with pytest.raises(ValueError):
        check_run(fig, word, good[:1])


def test_check_run_refuses_unknown_action(fig):
    run = (Configuration("l0", (7, 7)), Configuration("l1", (1, 3)))
    with pytest.raises(ValueError, match="unknown action"):
        check_run(fig, (("nope", ()),), run)


def test_sufficient_pool_shape(fig):
    # constants, then enough fresh values for all registers and parameters
    assert sufficient_pool(fig) == (0, 1, 2, 3, 4, 5)
    byz = gens.byzantine()
    pool = sufficient_pool(byz)
    assert len(pool) == 1 + 8 + 2 + 1
    assert 0 in pool


def test_validation_rejects_malformed_machines():
    a = (Action("a", 1),)
    with pytest.raises(ValueError):
        RegisterAutomaton((), ("x1",), a, ("q",), "nope", ())
    with pytest.raises(ValueError):
        RegisterAutomaton((), ("x1",), a, ("q", "q"), "q", ())
    with pytest.raises(ValueError):
        RegisterAutomaton((3, 3), ("x1",), a, ("q",), "q", ())
    with pytest.raises(ValueError):
        RegisterAutomaton((), (), a, ("q",), "q", ())
    with pytest.raises(ValueError):
        RegisterAutomaton((), ("x1", "x1"), a, ("q",), "q", ())
    guard = (Atom(ParameterTerm(2), RegisterTerm(0), True),)
    with pytest.raises(ValueError):  # parameter beyond the action's arity
        RegisterAutomaton((), ("x1",), a, ("q",), "q", (Transition("q", "a", guard, Assignment(), "q"),))
    bad_const = (Atom(ConstantTerm(9), RegisterTerm(0), True),)
    with pytest.raises(ValueError):  # constants used must be declared
        RegisterAutomaton((), ("x1",), a, ("q",), "q", (Transition("q", "a", bad_const, Assignment(), "q"),))
    far = Assignment(((4, RegisterTerm(0)),))
    with pytest.raises(ValueError):
        RegisterAutomaton((), ("x1",), a, ("q",), "q", (Transition("q", "a", (), far, "q"),))


def apply_bijection(mapping: dict[int, int], config: Configuration) -> Configuration:
    return Configuration(config.location, tuple(mapping[v] for v in config.valuation))


def test_steps_commute_with_constant_fixing_bijections(fig):
    """Renaming values by any bijection fixing the constants preserves steps."""
    pool = sufficient_pool(fig)
    rng = random.Random(3)
    non_const = [v for v in pool if v not in fig.constants]
    for _ in range(25):
        img = non_const[:]
        rng.shuffle(img)
        mapping = dict(zip(non_const, img)) | {c: c for c in fig.constants}
        config = Configuration(rng.choice(fig.locations), tuple(rng.choice(pool) for _ in range(2)))
        lhs = {apply_bijection(mapping, c) for c in oracles.concrete_successors(fig, config, pool)}
        rhs = oracles.concrete_successors(fig, apply_bijection(mapping, config), pool)
        assert lhs == rhs


def test_sampled_steps_are_concrete_steps():
    """Each sampled step is one ``concrete_steps`` yields, and the sampler
    answers None exactly where it yields none: over the sufficient pool, and
    over pools too small to keep every parameter fresh, from valuations that
    hold values outside the pool."""
    rng = random.Random(12)
    sampled = deadlocked = 0
    for _ in range(300):
        ra = gens.random_automaton(rng, max_constants=2, max_transitions=6)
        for pool in (sufficient_pool(ra), (0, 1, 2), (1,), ()):
            for loc in ra.locations:
                config = Configuration(loc, tuple(rng.randrange(6) for _ in ra.registers))
                steps = set(concrete_steps(ra, config, pool))
                for seed in range(2):
                    step = sample_step(ra, config, pool, random.Random(seed))
                    if step is None:
                        assert not steps, (ra, config, pool)
                        deadlocked += 1
                    else:
                        assert step in steps, (ra, config, pool, step)
                        sampled += 1
    assert sampled > 1000 and deadlocked > 1000  # both answers are exercised
    # over the pool {0, 1} with x1 = 0, p1 = 1 admits no p2: the sampler
    # must back out of that choice
    p1, p2 = ParameterTerm(1), ParameterTerm(2)
    guard = (Atom(p1, p2, False), Atom(p2, RegisterTerm(0), False))
    t = Transition("q", "a", guard, Assignment(((0, p2),)), "q")
    ra = RegisterAutomaton((), ("x1",), (Action("a", 2),), ("q",), "q", (t,))
    for seed in range(10):
        step = sample_step(ra, Configuration("q", (0,)), (0, 1), random.Random(seed))
        assert step == ("a", (0, 1), Configuration("q", (1,)))


def test_value_pool_refuses_a_negative_extra():
    with pytest.raises(ValueError, match="nonnegative"):
        ValuePool((0, 1), -1)
    assert list(ValuePool((0, 1), 0)) == [0, 1]


def test_value_pool_refuses_a_length_past_maxsize():
    # the widest pool still has a length, items and random choices
    widest = ValuePool((0, 5), sys.maxsize - 2)
    assert len(widest) == sys.maxsize
    assert widest[-1] == 6 + sys.maxsize - 3
    assert random.Random(0).choice(widest) in widest
    with pytest.raises(ValueError, match="at most"):
        ValuePool((0, 5), sys.maxsize - 1)
    with pytest.raises(ValueError, match="at most"):
        ValuePool((), sys.maxsize + 1)
