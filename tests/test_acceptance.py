"""Acceptance suite: one test per shipped guarantee.

Run ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion.  Each test is self-contained: it states the guarantee, checks
it against an independent reference, and enforces the runtime budget the
guarantee was published with.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import time
import tracemalloc

from gens import (
    D1,
    D2,
    R1,
    R2,
    S,
    T,
    byzantine,
    figure_one,
    random_automaton,
    random_formula,
    shift_machine,
)
import oracles
from regmc import dsl, formulas
from regmc.classes import ONE, ZERO, RepConfig, RepMatrix, canonical_valuation, matrix_of_valuation
from regmc.core import (
    Configuration,
    sufficient_pool,
)
from regmc.ctl import compute_ctl
from regmc.formulas import EG, EX, Not, RegEq, af
from regmc.matrices import universe
from regmc.reach import post, quotient_graph
from reference import universe_size

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def bell(k: int) -> int:
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def test_criterion_1_universe_counts():
    """Universe sizes match brute-force valuation patterns; 5 and 21147."""
    start = time.perf_counter()
    for n in range(1, 5):
        for constants in ((), (0,), (0, 2)):
            # Any valuation touches at most n distinct values, so the pool
            # "constants plus n fresh" realizes every consistent matrix.
            fresh = [max(constants, default=0) + 1 + i for i in range(n)]
            pool = list(constants) + fresh

            def pattern(v):
                return tuple(
                    tuple(
                        (v[i] if v[i] in constants else "=") if v[i] == v[j] else "#"
                        for j in range(n)
                    )
                    for i in range(n)
                )

            patterns = {pattern(v) for v in itertools.product(pool, repeat=n)}
            count = len(universe(n, constants))
            assert count == len(patterns) == universe_size(n, len(constants))
    assert len(universe(2, (7,))) == 5 == bell(3)
    assert universe_size(8, 1) == 21147 == bell(9)
    assert len(universe(8, (0,))) == 21147
    assert time.perf_counter() - start < 10.0


def test_criterion_2_canonical_valuation_round_trip():
    """matrix_of_valuation inverts canonical_valuation on every matrix."""
    for n in range(1, 5):
        for constants in ((), (0,), (0, 2)):
            for m in universe(n, constants):
                assert matrix_of_valuation(canonical_valuation(m, constants), constants) == m


def test_criterion_3_published_golden_values():
    """The worked examples: canonical witness, walk matrices, successor set."""
    start = time.perf_counter()
    # the three-register example: classes {x1}, {x2 x3}, no constants
    src = RepMatrix(((ONE, ZERO, ZERO), (ZERO, ONE, ONE), (ZERO, ONE, ONE)))
    assert canonical_valuation(src, ()) == (1, 2, 2)

    # matrices along the two-register walk, constant 2
    ident = RepMatrix(((ONE, ZERO), (ZERO, ONE)))
    assert matrix_of_valuation((7, 7), (2,)) == RepMatrix(((ONE, ONE), (ONE, ONE)))
    assert matrix_of_valuation((1, 3), (2,)) == ident
    assert matrix_of_valuation((2, 3), (2,)) == RepMatrix(((2, ZERO), (ZERO, ONE)))

    # successors of the three-register example: exactly three, and never
    # with the last two registers joined
    got = post(shift_machine(), RepConfig("l", src))
    want = {
        RepConfig("m", RepMatrix(((ONE, ONE, ZERO), (ONE, ONE, ZERO), (ZERO, ZERO, ONE)))),
        RepConfig("m", RepMatrix(((ONE, ZERO, ONE), (ZERO, ONE, ZERO), (ONE, ZERO, ONE)))),
        RepConfig("m", RepMatrix(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))),
    }
    assert got == want
    assert all(c.matrix.entry(1, 2) != ONE for c in got)
    assert time.perf_counter() - start < 1.0


def test_criterion_4_post_matches_concrete_quotient():
    """Symbolic successors equal the concrete quotient on 200 random machines."""
    start = time.perf_counter()
    rng = random.Random(4)
    for _ in range(200):
        ra = random_automaton(rng)
        pool = sufficient_pool(ra)
        matrices = universe(ra.num_registers, ra.constants)
        config = RepConfig(rng.choice(ra.locations), rng.choice(matrices))
        assert post(ra, config) == oracles.concrete_post_of(ra, config, pool)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_walk_edges():
    """Each consecutive pair of the published walk is a quotient edge.

    The walk revisits the identity matrix at the *initial* location in its
    final step: the only transition that can fire from ⟨l1, [[2,0̄],[0̄,1̄]]⟩
    on a fresh datum is the guarded exit back to l0, which assigns nothing,
    so both registers are released.
    """
    fig = figure_one()
    all_one = RepMatrix(((ONE, ONE), (ONE, ONE)))
    ident = RepMatrix(((ONE, ZERO), (ZERO, ONE)))
    two_free = RepMatrix(((2, ZERO), (ZERO, ONE)))
    walk = [
        RepConfig("l0", all_one),
        RepConfig("l1", ident),
        RepConfig("l1", ident),
        RepConfig("l1", two_free),
        RepConfig("l0", ident),
    ]
    for here, there in zip(walk, walk[1:]):
        assert there in post(fig, here), (here, there)


def test_criterion_6_ctl_matches_explicit_checker():
    """Quotient labeling equals textbook explicit-state CTL; class-invariant."""
    start = time.perf_counter()
    rng = random.Random(6)
    pairs = 0
    for _ in range(30):
        ra = random_automaton(rng)
        graph = quotient_graph(ra)
        for _ in range(4):
            f = random_formula(rng, ra, depth=3)
            assert compute_ctl(graph, f) == oracles.explicit_ctl(graph, f), (ra, f)
            pairs += 1
    assert pairs >= 100

    # satisfaction never separates valuations with the same matrix: checked
    # on concrete graphs, where permuting the non-constant pool values is a
    # bijection on configurations
    for _ in range(10):
        ra = random_automaton(rng, max_registers=2)
        pool = sufficient_pool(ra)
        cg = oracles.concrete_graph(ra, pool)
        fresh = [d for d in pool if d not in ra.constants]
        for _ in range(3):
            f = random_formula(rng, ra, depth=2)
            sat = oracles.explicit_ctl(cg, f)
            for _ in range(15):
                image = fresh[:]
                rng.shuffle(image)
                sigma = dict(zip(fresh, image)) | {c: c for c in ra.constants}
                v = tuple(rng.choice(pool) for _ in ra.registers)
                loc = rng.choice(ra.locations)
                here = Configuration(loc, v)
                there = Configuration(loc, tuple(sigma[d] for d in v))
                assert (here in sat) == (there in sat), (ra, f, v, sigma)
    assert time.perf_counter() - start < 120.0


def test_byzantine_label_set_is_counted_and_probed_without_configurations():
    # 118602 satisfying configurations; as RepConfig objects they took
    # 14.7 MB, the (locations x classes) masks a tenth of a megabyte each
    byz = byzantine()
    graph = quotient_graph(byz)
    probe = RepConfig("l0", matrix_of_valuation(tuple(range(1, 9)), byz.constants))
    tracemalloc.start()
    try:
        sat = compute_ctl(graph, formulas.EX(Not(RegEq(D1, D2))))
        answers = len(sat), probe in sat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == (118602, True)
    assert peak < 4 * 2**20, peak


def test_criterion_7_byzantine_generals():
    """The eight-register consensus machine: agreement analysis, exact slices."""
    start = time.perf_counter()
    byz = byzantine()
    graph = quotient_graph(byz)
    nodes = graph.nodes
    assert len(nodes) == 6 * 21147

    def eq(c: RepConfig, i: int, j: int) -> bool:
        return c.matrix.entry(i, j) != ZERO

    agree = RegEq(D1, D2)

    # (a) from the start, agreement is forced whenever the first two vote
    # registers coincide or the deciders already agree
    decided = compute_ctl(graph, af(agree))
    lower = {
        c for c in nodes if c.location == "l0" and (eq(c, D1, D2) or eq(c, R1, R2))
    }
    assert lower <= set(decided)
    assert len(lower) == 7403

    # (b) the start-location slice of EG(disagreement) is exactly the classes
    # where both the deciders and the first two votes differ
    stuck = compute_ctl(graph, EG(Not(agree)))
    stuck_l0 = {c for c in stuck if c.location == "l0"}
    assert stuck_l0 == {
        c
        for c in nodes
        if c.location == "l0" and not eq(c, D1, D2) and not eq(c, R1, R2)
    }
    assert len(stuck_l0) == 13744
    # AF is the complement fixpoint, so its start slice is forced too
    assert {c for c in decided if c.location == "l0"} == {
        c for c in nodes if c.location == "l0"
    } - stuck_l0

    # (c) spot checks along the hand computation
    assert len(compute_ctl(graph, Not(agree))) == 102042
    # a builtin set, so the subset tests below look each class up by hash
    one_step = set(compute_ctl(graph, EX(Not(agree))))
    assert len(one_step) == 118602
    # 1. before the second vote, disagreement is always still possible
    for loc in ("l0", "l1", "L1", "L3"):
        assert {c for c in nodes if c.location == loc} <= one_step, loc
    # 2. at the second voter, exactly the classes whose forced outcome can
    #    differ from the first decision keep a disagreeing successor
    want = {
        c
        for c in nodes
        if c.location == "l2"
        and (
            (eq(c, R2, S) and not eq(c, D1, S))
            or (eq(c, R2, T) and not eq(c, D1, T))
            or (eq(c, S, T) and not eq(c, D1, S))
            or (
                not eq(c, R2, S)
                and not eq(c, R2, T)
                and not eq(c, S, T)
                and c.matrix.entry(D1, D1) == ONE
            )
        )
    }
    assert {c for c in one_step if c.location == "l2"} == want
    # 3. the final location only loops, so disagreement must already hold
    assert {c for c in one_step if c.location == "L2"} == {
        c for c in nodes if c.location == "L2" and not eq(c, D1, D2)
    }
    # 4. a matched second vote that contradicts the first decision stays stuck
    spots = [
        c
        for c in nodes
        if c.location == "l2" and eq(c, S, T) and not eq(c, D1, S) and not eq(c, D1, D2)
    ]
    assert spots and all(c in one_step and c in stuck for c in spots[:25])
    # 5. totals of the two fixpoints over all six locations
    assert len(stuck) == 92676
    assert len(decided) == 34206
    assert time.perf_counter() - start < 300.0


def test_criterion_8_pool_permutations_preserve_steps():
    """Renaming non-constant data bijectively commutes with concrete steps."""
    rng = random.Random(8)
    for trial in range(1000):
        ra = random_automaton(rng, max_registers=3 if trial % 10 == 0 else 2)
        pool = sufficient_pool(ra)
        fresh = [d for d in pool if d not in ra.constants]
        image = fresh[:]
        rng.shuffle(image)
        sigma = dict(zip(fresh, image)) | {c: c for c in ra.constants}
        v = tuple(rng.choice(pool) for _ in ra.registers)
        here = Configuration(rng.choice(ra.locations), v)
        mapped = Configuration(here.location, tuple(sigma[d] for d in v))
        succs = oracles.concrete_successors(ra, here, pool)
        assert {
            Configuration(s.location, tuple(sigma[d] for d in s.valuation))
            for s in succs
        } == oracles.concrete_successors(ra, mapped, pool)


def test_criterion_9_dsl_round_trips():
    """parse ∘ serialize is the identity on every value kind."""
    for name, builder in (("figure1.ra", figure_one), ("byzantine.ra", byzantine)):
        text = (FIXTURES / name).read_text()
        ra = dsl.parse_automaton(text)
        assert ra == builder()
        assert dsl.parse_automaton(dsl.serialize(ra)) == ra

    rng = random.Random(9)
    automata = [random_automaton(rng) for _ in range(500)]
    for ra in automata:
        assert dsl.parse_automaton(dsl.serialize(ra)) == ra
    for _ in range(500):
        ra = rng.choice(automata)
        f = random_formula(rng, ra, depth=3)
        assert dsl.parse_formula(dsl.serialize(f, ra), ra) == f

    three = dsl.parse_automaton(
        "format 1\nconstants 0\nregisters x1 x2 x3\nactions a/0\nlocations q0* q1\n"
    )
    for m in universe(3, (0,)):
        for loc in three.locations:
            rc = RepConfig(loc, m)
            assert dsl.parse_repconfig(dsl.serialize(rc, three), three) == rc
