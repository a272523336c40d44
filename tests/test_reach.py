"""Successor and reachability checks, played against the brute-force oracles."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

import oracles
from gens import random_automaton, shift_machine
from regmc.core import (
    Action,
    Assignment,
    Atom,
    Configuration,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Transition,
    sufficient_pool,
)
from regmc.matrices import ONE, ZERO, RepConfig, RepMatrix, universe, universe_table
from regmc.reach import _group_keys, post, quotient_graph, reach, reachable_set
from regmc.reference import literal_post

O, Z = ONE, ZERO


def mat(*rows: tuple[int, ...]) -> RepMatrix:
    return RepMatrix(tuple(tuple(r) for r in rows))


IDENT2 = mat((O, Z), (Z, O))
ALL_ONE2 = mat((O, O), (O, O))
TWO_THEN_FREE = mat((2, Z), (Z, O))



def test_post_shift_golden():
    ra = shift_machine()
    src = RepConfig("l", mat((O, Z, Z), (Z, O, O), (Z, O, O)))
    want = {
        RepConfig("m", mat((O, O, Z), (O, O, Z), (Z, Z, O))),
        RepConfig("m", mat((O, Z, O), (Z, O, Z), (O, Z, O))),
        RepConfig("m", mat((O, Z, Z), (Z, O, Z), (Z, Z, O))),
    }
    got = post(ra, src)
    assert want <= got
    # the distinct parameters force the last two registers apart
    assert all(c.matrix.entry(1, 2) != ONE for c in got)
    assert got == want
    assert got == literal_post(ra, src)
    assert got == oracles.concrete_post_of(ra, src, sufficient_pool(ra))


def test_post_no_outgoing_is_empty(fig):
    blocked = RegisterAutomaton(
        constants=fig.constants,
        registers=fig.registers,
        actions=fig.actions,
        locations=fig.locations,
        initial=fig.initial,
        transitions=tuple(t for t in fig.transitions if t.source != "l1"),
    )
    assert post(blocked, RepConfig("l1", IDENT2)) == set()


def test_post_validation(fig):
    with pytest.raises(ValueError):
        post(fig, RepConfig("nowhere", IDENT2))
    with pytest.raises(ValueError):
        post(fig, RepConfig("l0", mat((O,))))
    with pytest.raises(ValueError):
        post(fig, RepConfig("l0", mat((Z, Z), (Z, Z))))  # zero diagonal


def test_figure_one_graph_against_all_oracles(fig):
    g = quotient_graph(fig)
    assert len(g.nodes) == 10
    pool = sufficient_pool(fig)
    cq = oracles.concrete_quotient(fig, pool)
    assert g.nodes == cq.nodes
    for node in sorted(g.nodes, key=lambda c: (c.location, c.matrix.rows)):
        direct = post(fig, node)
        assert g.edges(node) == direct
        assert direct == literal_post(fig, node)
        assert direct == cq.edges(node)
        assert direct == oracles.concrete_post_of(fig, node, pool)


def test_figure_one_chain_edges(fig):
    g = quotient_graph(fig)
    chain = [
        RepConfig("l0", ALL_ONE2),
        RepConfig("l1", IDENT2),
        RepConfig("l1", IDENT2),
        RepConfig("l1", TWO_THEN_FREE),
        RepConfig("l0", IDENT2),
    ]
    for src, dst in zip(chain, chain[1:]):
        assert dst in g.edges(src)


def test_reach_goldens(fig):
    assert reach(fig, RepConfig("l1", TWO_THEN_FREE)) is True
    assert reach(fig, RepConfig("l0", ALL_ONE2)) is True
    # l1 is only entered with distinct registers, and its loops keep them
    # distinct, so the all-equal class never shows up there
    assert reach(fig, RepConfig("l1", ALL_ONE2)) is False
    with pytest.raises(ValueError):
        reach(fig, RepConfig("l1", mat((Z, Z), (Z, Z))))
    with pytest.raises(ValueError):
        reach(fig, RepConfig("nowhere", IDENT2))


def test_quotient_graph_refuses_a_universe_over_the_class_limit():
    wide = RegisterAutomaton(
        constants=(),
        registers=tuple(f"x{i}" for i in range(12)),
        actions=(Action("a", 0),),
        locations=("l0",),
        initial="l0",
        transitions=(),
    )
    with pytest.raises(ValueError, match="class limit"):
        quotient_graph(wide)


def test_reachable_set_matches_concrete_quotient(fig):
    got = reachable_set(fig)
    pool = sufficient_pool(fig)
    cg = oracles.concrete_graph(fig, pool)
    seen = {c for c in cg.nodes if c.location == fig.initial}
    frontier = list(seen)
    while frontier:
        c = frontier.pop()
        for nxt in cg.edge_map[c]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    from regmc.matrices import matrix_of_valuation

    want = {RepConfig(c.location, matrix_of_valuation(c.valuation, fig.constants)) for c in seen}
    assert got == want
    assert len(got) == 9


def test_reachable_set_no_transitions():
    ra = RegisterAutomaton(
        constants=(0,),
        registers=("x1", "x2"),
        actions=(Action("a", 1),),
        locations=("l0", "l1"),
        initial="l0",
        transitions=(),
    )
    assert reachable_set(ra) == {RepConfig("l0", m) for m in universe(2, (0,))}
    g = quotient_graph(ra)
    assert all(g.edges(n) == set() for n in g.nodes)


def test_random_graphs_match_concrete_quotient():
    rng = random.Random(20)
    for _ in range(40):
        ra = random_automaton(rng, max_registers=2)
        g = quotient_graph(ra)
        cq = oracles.concrete_quotient(ra, sufficient_pool(ra))
        assert g.nodes == cq.nodes
        for node in g.nodes:
            assert g.edges(node) == cq.edges(node), (ra, node)


def test_random_post_matches_literal_scan():
    rng = random.Random(21)
    for _ in range(60):
        ra = random_automaton(rng)
        mats = universe(ra.num_registers, ra.constants)
        node = RepConfig(rng.choice(ra.locations), rng.choice(mats))
        assert post(ra, node) == literal_post(ra, node), (ra, node)


def test_post_results_stay_in_universe():
    rng = random.Random(22)
    for _ in range(30):
        ra = random_automaton(rng)
        mats = set(universe(ra.num_registers, ra.constants))
        node = RepConfig(rng.choice(ra.locations), rng.choice(sorted(mats, key=repr)))
        for succ in post(ra, node):
            assert succ.location in ra.locations
            assert succ.matrix in mats


def test_post_ignores_unrelated_transitions():
    rng = random.Random(23)
    tried = 0
    while tried < 20:
        ra = random_automaton(rng)
        if not ra.transitions:
            continue
        tried += 1
        l = ra.transitions[0].source
        outgoing = tuple(t for t in ra.transitions if t.source == l)
        trimmed = RegisterAutomaton(
            constants=ra.constants,
            registers=ra.registers,
            actions=ra.actions,
            locations=ra.locations + ("spare",),
            initial=ra.initial,
            transitions=outgoing
            + (Transition("spare", ra.actions[0].name, (), Assignment(), ra.locations[0]),),
        )
        m = rng.choice(universe(ra.num_registers, ra.constants))
        assert post(ra, RepConfig(l, m)) == post(trimmed, RepConfig(l, m))


def test_reach_agrees_with_reachable_set():
    rng = random.Random(24)
    for _ in range(10):
        ra = random_automaton(rng, max_registers=2)
        everything = reachable_set(ra)
        g_nodes = quotient_graph(ra).nodes
        for node in g_nodes:
            assert reach(ra, node) == (node in everything)


def test_oracle_pool_validation(fig):
    with pytest.raises(ValueError):
        oracles.check_pool(fig, (1, 3, 4, 5, 6, 7))  # constant 2 missing
    with pytest.raises(ValueError):
        oracles.check_pool(fig, (2, 1, 3))  # too few fresh values
    oracles.check_pool(fig, sufficient_pool(fig))


def test_byzantine_edges_match_post(byz):
    g = quotient_graph(byz)
    rng = random.Random(25)
    for loc in byz.locations:
        for m in rng.sample(g.matrices, 6):
            node = RepConfig(loc, m)
            assert g.edges(node) == post(byz, node), node


def _with_special_transitions(rng: random.Random, ra: RegisterAutomaton) -> RegisterAutomaton:
    """``ra`` plus a havoc-everything step, a step reading nothing, and a guarded identity."""
    n = ra.num_registers
    action = ra.actions[0]
    guard = tuple(
        Atom(RegisterTerm(rng.randrange(n)), RegisterTerm(rng.randrange(n)), rng.random() < 0.5)
        for _ in range(rng.randint(0, 2))
    )
    blind = Assignment(
        tuple((i, ParameterTerm(1)) for i in range(n) if rng.random() < 0.5)
        if action.arity
        else ()
    )
    extra = (
        Transition(rng.choice(ra.locations), action.name, (), Assignment(), rng.choice(ra.locations)),
        Transition(rng.choice(ra.locations), action.name, (), blind, rng.choice(ra.locations)),
        Transition(
            rng.choice(ra.locations), action.name, guard, Assignment.identity(range(n)), rng.choice(ra.locations)
        ),
    )
    return dataclasses.replace(ra, transitions=ra.transitions + extra)


def test_vector_passes_match_per_node_edges():
    rng = random.Random(26)
    for _ in range(40):
        ra = _with_special_transitions(rng, random_automaton(rng))
        g = quotient_graph(ra)
        nodes = sorted(g.nodes, key=lambda c: (c.location, c.matrix.rows))
        some = set(rng.sample(nodes, len(nodes) // 3))
        masks = g._masks_of(some)
        ex = g._labelset(g._ex_masks(masks))
        assert ex == {c for c in nodes if g.edges(c) & some}, ra

        image = g._empty_masks()
        for src, dst, ker in g._steps:
            image[dst] |= ker.image(masks[src])
        assert g._labelset(image) == {v for u in some for v in g.edges(u)}, ra

        seen = {c for c in nodes if c.location == ra.initial}
        frontier = list(seen)
        while frontier:
            for nxt in g.edges(frontier.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert g._labelset(g._reachable_masks()) == seen, ra


@pytest.mark.parametrize("constants", [(), (0,), (0, 5)])
def test_group_keys_match_submatrix_partition(constants):
    rng = random.Random(27)
    for n in range(1, 7):
        table = universe_table(n, constants)
        ua = np.array([m.rows for m in table.matrices])
        subsets = [[], list(range(n))] + [
            sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)
        ]
        for regs in subsets:
            key, first_rows = _group_keys(table.block, table.label, regs)
            flat = ua[:, regs][:, :, regs].reshape(len(ua), -1)
            _, want = np.unique(flat, axis=0, return_inverse=True)
            pairs = set(zip(key.tolist(), want.reshape(-1).tolist()))
            assert len(pairs) == len(set(key.tolist())) == len(set(want.reshape(-1).tolist()))
            # dense ids, each group represented by its first row
            assert first_rows.tolist() == [np.argmax(key == g) for g in range(key.max() + 1)]
