"""Successor and reachability checks, played against the brute-force oracles."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from gens import (
    D1,
    D2,
    NOT_A_FIGURE_ONE_CLASS,
    byzantine,
    chain,
    havoc,
    load,
    many_constants,
    pinned,
    random_automaton,
    random_term,
    shift_machine,
    wide,
)
from regmc import ctl, formulas
from regmc.classes import ONE, ZERO, RepConfig, RepMatrix, matrix_of_valuation, universe_size
from regmc.core import (
    Action,
    Assignment,
    Atom,
    ConstantTerm,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Transition,
    sufficient_pool,
)
from regmc.matrices import class_keys, universe, universe_table
from regmc.reach import (
    MAX_NODES,
    LabelSet,
    _build_kernel,
    post,
    quotient_graph,
    reach,
    successor_rows,
)
from reference import literal_post

# the module, for patching; this file's ``reach`` is the function
import regmc.reach as reach_module

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
    graph = quotient_graph(fig)
    bad = [RepConfig("nowhere", IDENT2)] + [RepConfig("l0", m) for m in NOT_A_FIGURE_ONE_CLASS]
    for c in bad:
        with pytest.raises(ValueError):
            post(fig, c)
        with pytest.raises(ValueError):
            oracles.edges(graph, c)


def test_figure_one_graph_against_all_oracles(fig):
    g = quotient_graph(fig)
    assert len(g.nodes) == 10
    pool = sufficient_pool(fig)
    cq = oracles.concrete_quotient(fig, pool)
    assert g.nodes == cq.nodes
    for node in sorted(g.nodes, key=lambda c: (c.location, c.matrix.rows)):
        direct = post(fig, node)
        assert oracles.edges(g, node) == direct
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
        assert dst in oracles.edges(g, src)


def test_reach_goldens(fig):
    assert reach(fig, RepConfig("l1", TWO_THEN_FREE)) is True
    assert reach(fig, RepConfig("l0", ALL_ONE2)) is True
    # l1 is only entered with distinct registers, and its loops keep them
    # distinct, so the all-equal class never shows up there
    assert reach(fig, RepConfig("l1", ALL_ONE2)) is False
    with pytest.raises(ValueError):
        reach(fig, RepConfig("nowhere", IDENT2))
    for m in NOT_A_FIGURE_ONE_CLASS:
        with pytest.raises(ValueError):
            reach(fig, RepConfig("l1", m))


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
    got = {c for c in quotient_graph(fig).nodes if reach(fig, c)}
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
    g = quotient_graph(ra)
    assert {c for c in g.nodes if reach(ra, c)} == {RepConfig("l0", m) for m in universe(2, (0,))}
    assert all(oracles.edges(g, n) == set() for n in g.nodes)


def test_random_graphs_match_concrete_quotient():
    rng = random.Random(20)
    for _ in range(40):
        ra = random_automaton(rng, max_registers=2)
        g = quotient_graph(ra)
        cq = oracles.concrete_quotient(ra, sufficient_pool(ra))
        assert g.nodes == cq.nodes
        for node in g.nodes:
            assert oracles.edges(g, node) == cq.edges(node), (ra, node)


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
    # ``reach``, a backward EF from its target, against a forward search
    # from the initial location over the kernels' rows, at every node
    rng = random.Random(24)
    machines = [random_automaton(rng, max_locations=4) for _ in range(40)]
    machines += [_with_special_transitions(rng, random_automaton(rng)) for _ in range(10)]
    machines.append(dataclasses.replace(machines[0], locations=("q0", "q1", "q2"), transitions=()))
    assert sum(len(ra.locations) > 1 for ra in machines) >= 10
    assert sum(not ra.transitions for ra in machines) >= 1
    unreachable = 0
    for ra in machines:
        g = quotient_graph(ra)
        reachable = oracles.reachable(g)
        for node in g.nodes:
            assert reach(ra, node) == (node in reachable), (ra, node)
        unreachable += len(g.nodes) - len(reachable)
    assert unreachable > 0


def test_reach_builds_each_kernel_once(monkeypatch):
    # one question builds each of byzantine's 12 distinct steps once
    ra = byzantine()
    built = []
    build = reach_module._build_kernel
    monkeypatch.setattr(
        reach_module, "_build_kernel", lambda *args: built.append(args[1]) or build(*args)
    )
    assert reach(ra, RepConfig("L2", universe(8, ra.constants)[0]))
    steps = [(t.guard, t.assignment) for t in built]
    assert len(steps) == len(set(steps)) == len({(t.guard, t.assignment) for t in ra.transitions}) == 12


def test_oracle_pool_validation(fig):
    with pytest.raises(ValueError):
        oracles.check_pool(fig, (1, 3, 4, 5, 6, 7))  # constant 2 missing
    with pytest.raises(ValueError):
        oracles.check_pool(fig, (2, 1, 3))  # too few fresh values
    oracles.check_pool(fig, sufficient_pool(fig))


def test_byzantine_edges_match_post(byz):
    g = quotient_graph(byz)
    rng = random.Random(25)
    matrices = [c.matrix for c in g.nodes if c.location == byz.initial]
    for loc in byz.locations:
        for m in rng.sample(matrices, 6):
            node = RepConfig(loc, m)
            assert oracles.edges(g, node) == post(byz, node), node


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


def test_every_node_post_matches_literal_scan_and_graph():
    # the step formula reads only the registers a transition reads; every
    # class and location of each machine is played against the literal scan,
    # on three registers so that most transitions leave some unread
    rng = random.Random(28)
    tried = 0
    while tried < 15:
        ra = _with_special_transitions(rng, random_automaton(rng, max_constants=2))
        if ra.num_registers < 3:
            continue
        tried += 1
        g = quotient_graph(ra)
        for node in g.nodes:
            direct = post(ra, node)
            assert direct == literal_post(ra, node), (ra, node)
            assert oracles.edges(g, node) == direct, (ra, node)


def test_vector_passes_match_per_node_edges():
    rng = random.Random(26)
    for _ in range(40):
        ra = _with_special_transitions(rng, random_automaton(rng))
        g = quotient_graph(ra)
        nodes = sorted(g.nodes, key=lambda c: (c.location, c.matrix.rows))
        some = set(rng.sample(nodes, len(nodes) // 3))
        masks = oracles.masks_of(g, some)
        ex = LabelSet(g, g._ex_masks(masks))
        assert ex == {c for c in nodes if oracles.edges(g, c) & some}, ra


@pytest.mark.parametrize("constants", [(), (0,), (0, 5)])
def test_projection_keys_match_submatrix_partition(constants):
    rng = random.Random(27)
    for n in range(1, 7):
        values = universe_table(n, constants).values
        ua = np.array([m.rows for m in universe(n, constants)])
        subsets = [[], list(range(n))] + [
            sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)
        ]
        for regs in subsets:
            key = class_keys(values[:, regs], constants)
            flat = ua[:, regs][:, :, regs].reshape(len(ua), -1)
            _, want = np.unique(flat, axis=0, return_inverse=True)
            pairs = set(zip(key.tolist(), want.reshape(-1).tolist()))
            assert len(pairs) == len(set(key.tolist())) == len(set(want.reshape(-1).tolist()))
            if not regs:
                assert set(key.tolist()) == {0}
                continue
            # each key is the position of its sub-matrix in the smaller universe
            sub = universe_table(len(regs), constants)
            pos = np.searchsorted(sub.key, key)
            assert set(pos.tolist()) == set(range(len(sub.key)))
            sub_rows = np.array([m.rows for m in universe(len(regs), constants)])
            assert np.array_equal(sub_rows[pos].reshape(len(ua), -1), flat)


def _join_shapes(rng: random.Random, n: int, constants: tuple[int, ...]) -> tuple[Transition, ...]:
    """One transition of each shape the step join has a case for, with random
    terms, on actions ``a(p1, p2)`` and ``b(p1, p2, p3)`` between two
    locations."""
    reg = lambda: RegisterTerm(rng.randrange(n))
    const = lambda: ConstantTerm(rng.choice(constants)) if constants else reg()
    term = lambda: random_term(rng, n, 2, constants)
    atom = lambda left, right: Atom(left, right, rng.random() < 0.5)
    p1, p2, p3 = ParameterTerm(1), ParameterTerm(2), ParameterTerm(3)
    solved = reg()
    shapes = [
        # a guard-only parameter beside an assigned one
        ("a", (atom(p1, reg()), atom(p1, p2)), ((rng.randrange(n), p2),)),
        # a guard-only parameter solved by an equality, then compared again
        ("a", (Atom(p1, solved, True), atom(p1, rng.choice([solved, reg()]))), ((0, p2),)),
        # a guard-only parameter after two assigned ones
        ("b", (atom(p3, reg()), atom(p3, p1)), tuple({0: p1, n - 1: p2}.items())),
        # constant terms in the guard and the assignment
        (
            "a",
            (atom(reg(), const()), atom(p2, const())),
            tuple({rng.randrange(n): const(), n - 1: p2}.items()),
        ),
        # reads no register (k = 0)
        (
            "a",
            (atom(p1, const()),),
            tuple((i, rng.choice([p1, p2, const()])) for i in range(n) if i % 2 == 0),
        ),
        # assigns no register (q = 0)
        ("a", (atom(reg(), p1),), ()),
        # keeps every register
        ("a", (atom(reg(), reg()),), tuple((i, RegisterTerm(i)) for i in range(n))),
        # anything
        (
            "a",
            tuple(atom(term(), term()) for _ in range(rng.randint(0, 2))),
            tuple((i, term()) for i in range(n) if rng.random() < 0.6),
        ),
        # releases every register, unguarded (havoc)
        ("a", (), ()),
        # keeps all registers but one
        ("a", (atom(reg(), reg()),), tuple((i, RegisterTerm(i)) for i in range(n) if i != n - 1)),
        # images that hold every constant the registers can, releasing the rest
        ("a", (), tuple((i, ConstantTerm(c)) for i, c in zip(range(n - 1, -1, -1), constants))),
        # stored parameters beside released registers: the fresh values of
        # the join and of the extension must not meet
        ("b", (atom(p1, reg()), atom(p2, p1)), tuple({0: p1, n - 1: p2}.items())),
    ]
    return tuple(
        Transition(rng.choice("lm"), action, guard, Assignment(updates), rng.choice("lm"))
        for action, guard, updates in shapes
    )


def _many_parameter_shapes(
    rng: random.Random, n: int, constants: tuple[int, ...]
) -> tuple[Transition, ...]:
    """Transitions on ``b(p1, p2, p3)`` that store as many parameters as
    there are registers, the shapes whose joins drop dead columns or keep
    one row per origin and class of the live ones, and the shapes whose
    parameter equalities are solved by substitution."""
    params = [ParameterTerm(i) for i in (1, 2, 3)]
    stored = params[len(params) - n :] if n < len(params) else params
    stores = tuple(enumerate(stored))
    atom = lambda left, right: Atom(left, right, rng.random() < 0.5)
    first, last = RegisterTerm(0), RegisterTerm(n - 1)
    pins = [stored[0], last] + [ConstantTerm(c) for c in constants]
    guards = [
        # every parameter stored, each compared with the register it
        # replaces (``load``)
        tuple(atom(RegisterTerm(i), p) for i, p in stores),
        # parameters compared only with each other
        tuple(atom(a, b) for a, b in itertools.combinations(params, 2) if rng.random() < 0.7),
        # one register read by the first stage only, and another by the
        # last stage only: it must outlive the stages before
        (atom(stored[0], first), atom(stored[-1], last), atom(params[0], stored[-1])),
        # each later parameter equal to the first, a register or a constant
        (atom(stored[0], first),) + tuple(Atom(p, rng.choice(pins), True) for p in stored[1:]),
        # a stored parameter equal to a later one, which is then compared
        (Atom(stored[0], params[-1], True), atom(params[-1], rng.choice(pins[1:]))),
    ]
    shapes = [(guard, stores) for guard in guards]
    # p1, which no register stores, equal to the stored p3, then compared
    unstored = (atom(params[0], first), Atom(params[0], params[-1], True))
    shapes.append((unstored, stores if n < len(params) else stores[1:]))
    return tuple(
        Transition(rng.choice("lm"), "b", guard, Assignment(updates), rng.choice("lm"))
        for guard, updates in shapes
    )


@pytest.mark.parametrize("constants", [(), (0,), (0, 5)])
def test_kernels_match_literal_post(constants):
    rng = random.Random(30)
    for n in (1, 2, 3) * 3:
        ra = RegisterAutomaton(
            constants=constants,
            registers=tuple(f"x{i + 1}" for i in range(n)),
            actions=(Action("a", 2), Action("b", 3)),
            locations=("l", "m"),
            initial="l",
            transitions=_join_shapes(rng, n, constants)
            + _many_parameter_shapes(rng, n, constants),
        )
        g = quotient_graph(ra)
        for node in g.nodes:
            want = literal_post(ra, node)
            assert oracles.edges(g, node) == want, (ra, node)
            assert post(ra, node) == want, (ra, node)


def test_kernel_join_memory_is_bounded():
    # every register read, a guard-only parameter and two assigned ones: the
    # whole join would hold some thirty rows per class at once
    n = 7
    x = [RegisterTerm(i) for i in range(n)]
    p1, p2, p3 = ParameterTerm(1), ParameterTerm(2), ParameterTerm(3)
    guard = (Atom(p1, x[0], False), Atom(x[0], x[1], False))
    store = ((0, p2), (1, p3)) + tuple((i, x[i]) for i in range(2, n))
    t = Transition("l", "a", guard, Assignment(store), "l")
    registers = tuple(f"x{i}" for i in range(n))
    ra = RegisterAutomaton((0,), registers, (Action("a", 3),), ("l",), "l", (t,))
    table = universe_table(n, (0,))

    def build() -> tuple[object, int]:
        tracemalloc.start()
        try:
            kernel = _build_kernel(ra, t, table, table.groups)
            return kernel, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kernel, peak = build()
    stored = sum(a.nbytes for a in (kernel.key_of, kernel.tkey_of, kernel.indptr, kernel.indices))
    budget = 8 * (stored + table.values.nbytes + table.key.nbytes)
    assert peak < budget, (peak, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reach_module, "_JOIN_ROWS", 1 << 40)
        whole, whole_peak = build()
    assert whole_peak > budget, (whole_peak, budget)
    for name in ("key_of", "tkey_of", "indptr", "indices"):
        assert np.array_equal(getattr(kernel, name), getattr(whole, name))


def test_post_counts_its_successors_before_building_them():
    # post refuses exactly past MAX_CLASSES successors, so the closed-form
    # count of the extensions of its distinct image classes is exact
    rng = random.Random(31)
    for constants in ((), (0,), (0, 5)):
        for n in (1, 2, 3):
            actions = (Action("a", 2), Action("b", 3))
            registers = tuple(f"x{i + 1}" for i in range(n))
            for t in _join_shapes(rng, n, constants):
                ra = RegisterAutomaton(constants, registers, actions, ("l", "m"), "l", (t,))
                for m in universe(n, constants):
                    node = RepConfig(t.source, m)
                    got = post(ra, node)
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(reach_module, "MAX_CLASSES", len(got))
                        assert post(ra, node) == got
                        if got:
                            mp.setattr(reach_module, "MAX_CLASSES", len(got) - 1)
                            with pytest.raises(ValueError, match="successor classes"):
                                post(ra, node)


def test_post_is_bounded_without_the_full_universe():
    # releasing all twelve registers makes 4213597 successors: refused
    # before any image is extended
    node = RepConfig("q", RepMatrix(((O,) * 12,) * 12))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reach_module, "_extend", None)
        with pytest.raises(ValueError, match="successor classes"):
            post(havoc(12), node)
    # releasing two of twelve distinct registers, with the constant 0 unused:
    # both join old blocks (10 * 10); one does and the other opens a new
    # block, unpinned or 0 (2 * 10 * 2); both open one new block, unpinned
    # or 0 (2), or two, at most one of them 0 (3)
    distinct = RepMatrix(tuple(tuple(O if i == j else Z for j in range(12)) for i in range(12)))
    got = post(havoc(12, kept=10), RepConfig("q", distinct))
    assert len(got) == 100 + 40 + 2 + 3
    kept = tuple(row[:10] for row in distinct.rows[:10])
    assert all(tuple(row[:10] for row in c.matrix.rows[:10]) == kept for c in got)


def test_post_on_wide11_restricts_to_post_on_wide_post():
    # r10 and r11 are kept by every step and read by none, so forgetting
    # them maps the successors onto those of the 9-register machine; wide11
    # has 16.9M nodes, and post answers without its universe
    big, small = wide(11), wide(9)
    rng = random.Random(32)
    for _ in range(20):
        valuation = [rng.choice((0, 1, 2, 3, 4)) for _ in range(11)]
        node = RepConfig(rng.choice(big.locations), matrix_of_valuation(valuation, (0,)))
        restricted = {
            RepConfig(c.location, RepMatrix(tuple(row[:9] for row in c.matrix.rows[:9])))
            for c in post(big, node)
        }
        source = RepConfig(node.location, matrix_of_valuation(valuation[:9], (0,)))
        assert restricted == post(small, source), node


def test_many_atom_machines_match_literal_scan():
    # guards of up to six atoms over four parameters: the joins drop dead
    # columns and keep one row per origin and live class
    rng = random.Random(34)
    for _ in range(12):
        ra = random_automaton(rng, max_registers=3, max_arity=3, max_atoms=6, max_transitions=3)
        g = quotient_graph(ra)
        for node in rng.sample(sorted(g.nodes, key=repr), min(6, len(g.nodes))):
            want = literal_post(ra, node)
            assert post(ra, node) == want, (ra, node)
            assert oracles.edges(g, node) == want, (ra, node)


def test_join_rows_stay_within_the_plan_bound(monkeypatch):
    # the bound the limit and the chunk sizes rest on: no stage of a join
    # holds more than ``_Plan.rows`` rows per start row
    sizes: list[int] = []
    grow = reach_module._grow

    def recorded(rows, constants):
        counts, grown = grow(rows, constants)
        sizes.append(len(grown))
        return counts, grown

    monkeypatch.setattr(reach_module, "_grow", recorded)
    rng = random.Random(35)
    stages = 0
    for _ in range(40):
        ra = random_automaton(rng, max_registers=4, max_arity=4, max_atoms=6, max_constants=2)
        for t in ra.transitions:
            plan = reach_module._plan(t, ra.constants)
            if plan is None:
                continue
            start = reach_module._sub_universe(len(plan.reads), ra.constants).values
            sizes[:] = [len(start)]
            reach_module._join(ra, plan, start)
            assert max(sizes) <= len(start) * plan.rows, (t, sizes, plan)
            stages += sum(stage.dedupe for stage in plan.stages)
    assert stages > 0  # some stage keeps one row per origin and live class


def test_kernel_build_joins_in_few_chunks(monkeypatch):
    # load(6)'s plan bounds a read group at 7016 rows: chunks of 2^16 rows
    # or more take its 877 read groups in under a hundred joins
    calls = []
    join = reach_module._join
    monkeypatch.setattr(reach_module, "_join", lambda *args: calls.append(1) or join(*args))
    quotient_graph(load(6))._steps
    assert 0 < len(calls) <= 100, len(calls)


def test_post_join_memory_is_bounded():
    # loadN stores N parameters, each compared with the register it
    # replaces: a join that keeps every row holds up to (N + 2)! / 2 rows
    # per class; dropping each register after its atom and keeping one row
    # per class of the live columns bounds them by the universe over N
    for n in (7, 8):
        ra = load(n)
        node = RepConfig("q", matrix_of_valuation(range(1, n + 1), ra.constants))
        post(load(2), RepConfig("q", matrix_of_valuation((1, 2), ra.constants)))  # caches
        tracemalloc.start()
        try:
            got = post(ra, node)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameters may take any class, apart from the registers' values
        assert len(got) == universe_size(n, 1)
        # the join's scratch stays below the answer's own size
        assert peak - kept < kept, (n, peak, kept)


def test_declared_constants_cost_no_column_each():
    # a step that releases both registers over 300 declared constants
    # reaches every one of the 90602 classes; rows hold no column per
    # constant, so the scratch stays within a few times the answer
    ra = many_constants(300, release_all=True)
    node = RepConfig("q", matrix_of_valuation((300, 301), ra.constants))
    small = many_constants(3, release_all=True)
    successor_rows(small, RepConfig("q", matrix_of_valuation((3, 4), small.constants)))  # caches
    tracemalloc.start()
    try:
        ((location, rows),) = successor_rows(ra, node)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert location == "q" and len(rows) == universe_size(2, 300) == 90602
    assert np.array_equal(np.sort(class_keys(rows, ra.constants)), universe_table(2, ra.constants).key)
    assert peak < 4 * rows.nbytes, (peak, rows.nbytes)


def test_equality_pinned_stores_add_no_rows():
    # a stored parameter that an atom equates with another term is
    # substituted by it: load(7, equal=True) grows no column and holds one
    # row per read group, and pinned(12) grows one column, for p1
    assert reach_module._plan(load(7, True).transitions[0], (0,)).rows == 1
    assert reach_module._plan(pinned(12).transitions[0], (0,)).rows == 3
    same = RepConfig("q", matrix_of_valuation(range(1, 8), (0,)))
    assert post(load(7, True), same) == {same}
    node = RepConfig("q", matrix_of_valuation(range(1, 13), (0,)))
    assert post(pinned(12), node) == {
        RepConfig("q", matrix_of_valuation((v,) * 12, (0,))) for v in (0, 1)
    }
    for n in (2, 3, 4):
        for ra in (load(n, True), pinned(n)):
            g = quotient_graph(ra)
            for node in g.nodes:
                want = literal_post(ra, node)
                assert post(ra, node) == want, node
                assert oracles.edges(g, node) == want, node


def test_no_plan_stage_checks_an_equality_on_a_parameter():
    # every equality naming a parameter is solved by substitution: each
    # stage after the first adds a parameter column and checks only atoms
    # on it, and none of them is an equality
    rng = random.Random(36)
    machines = [
        random_automaton(rng, max_registers=4, max_arity=4, max_atoms=6, max_constants=2)
        for _ in range(60)
    ]
    machines += [ra for n in (2, 5, 12) for ra in (load(n, True), pinned(n))]
    checked = 0
    for ra in machines:
        for t in ra.transitions:
            plan = reach_module._plan(t, ra.constants)
            for stage in plan.stages[1:] if plan else ():
                checked += len(stage.atoms)
                assert all(not equal for _, _, equal in stage.atoms), (t, plan)
    assert checked > 0


def test_contradictory_parameter_equalities_plan_to_nothing():
    # p1 = 0 & p1 != 0 substitutes to 0 != 0: no join, and no successors
    p1, zero = ParameterTerm(1), ConstantTerm(0)
    for stored in ((), ((0, p1),)):
        guard = (Atom(p1, zero, True), Atom(p1, zero, False))
        t = Transition("l", "a", guard, Assignment(stored), "l")
        ra = RegisterAutomaton((0,), ("x1",), (Action("a", 1),), ("l",), "l", (t,))
        assert reach_module._plan(t, ra.constants) is None
        g = quotient_graph(ra)
        assert not g._steps[0][2].indices.size
        for node in g.nodes:
            assert post(ra, node) == literal_post(ra, node) == set()
            assert oracles.edges(g, node) == set()


def test_joins_past_the_row_limit_are_refused_before_joining(monkeypatch):
    # load7's kernel would join 4140 read groups of up to 37260 rows each
    graph = quotient_graph(load(7))
    plan = reach_module._plan(load(7).transitions[0], (0,))
    assert plan.rows == 37260
    monkeypatch.setattr(reach_module, "_join", None)
    with pytest.raises(ValueError, match="row limit"):
        ctl.model_check(graph, formulas.ag(formulas.RegEq(0, 1)))
    with pytest.raises(ValueError, match="row limit"):
        reach(load(7), RepConfig("q", matrix_of_valuation(range(1, 8), (0,))))
    # post checks one class against the same limit
    monkeypatch.setattr(reach_module, "MAX_JOIN_ROWS", plan.rows - 1)
    with pytest.raises(ValueError, match="row limit"):
        post(load(7), RepConfig("q", matrix_of_valuation(range(1, 8), (0,))))


def test_load_post_matches_literal_scan_and_graph():
    for n in (2, 3, 4):
        ra = load(n)
        g = quotient_graph(ra)
        for node in g.nodes:
            want = literal_post(ra, node)
            assert post(ra, node) == want, node
            assert oracles.edges(g, node) == want, node


def test_label_set_iteration_builds_only_what_it_yields():
    # the first element of a 118602-node byzantine view builds a few
    # matrices, not all 21147 of the universe
    graph = quotient_graph(byzantine())
    view = ctl.compute_ctl(graph, formulas.EX(formulas.Not(formulas.RegEq(D1, D2))))
    assert len(view) == 118602
    universe.cache_clear()  # measure from a cold start, as a fresh process would
    tracemalloc.start()
    try:
        first = next(iter(view))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first in view
    assert peak < 2 << 20, peak
    # each class is built once and shared by every view and location: a
    # pass that another view's pass (over some classes only) interrupts
    # reads the same matrices as a later pass, and they are the universe's
    nodes = iter(graph.nodes)
    begun = [c.matrix for c in itertools.islice(nodes, 100)]
    assert 0 < len(list(ctl.compute_ctl(graph, formulas.RegEq(D1, D2)))) < len(view)
    resumed = begun + [c.matrix for c in nodes]
    whole = [c.matrix for c in graph.nodes]
    assert len({id(m) for m in whole}) == 21147
    assert all(a is b for a, b in zip(resumed, whole, strict=True))
    assert whole == list(universe(8, byzantine().constants)) * 6
    # every location reads the same objects: one matrix per class and graph
    assert all(a is b for a, b in zip(whole, whole[:21147] * 6, strict=True))


def test_quotient_graph_holds_nothing_per_class_before_a_view_is_read():
    # the graph keeps no per-class list until a view is iterated; the
    # table of 678570 classes is the only per-class array it holds
    ra = wide(10)
    table = universe_table(ra.num_registers, ra.constants)
    tracemalloc.start()
    try:
        graph = quotient_graph(ra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.table is table
    assert peak < 1 << 20, peak


def test_graphs_and_kernels_compare_by_identity(fig):
    first = quotient_graph(fig)
    universe_table.cache_clear()
    second = quotient_graph(fig)
    assert first == first and first != second
    assert len({first, second, first}) == 2
    kernel, other = first._steps[0][2], second._steps[0][2]
    assert kernel == kernel and kernel != other
    assert len({kernel, other, kernel}) == 2


def test_kernels_are_shared_per_step_and_groupings_per_register_set():
    ra = byzantine()
    graph = quotient_graph(ra)
    kernels = {id(ker): ker for _, _, ker in graph._steps}
    # two l1 -> L1 and two l2 -> L2 transitions assign alike under
    # different guards
    assert len({t.assignment for t in ra.transitions}) == 10
    assert len(kernels) == len({(t.guard, t.assignment) for t in ra.transitions}) == 12
    by_registers: dict[tuple[int, ...], list[np.ndarray]] = {}
    for t, (_, _, ker) in zip(ra.transitions, graph._steps, strict=True):
        reads = reach_module._plan(t, ra.constants).reads
        by_registers.setdefault(reads, []).append(ker.key_of)
        by_registers.setdefault(tuple(i for i, _ in t.assignment.updates), []).append(ker.tkey_of)
    # 24 groupings over 11 register sets, one of them every register
    assert sum(map(len, by_registers.values())) == 24
    assert len(by_registers) == 11
    for arrays in by_registers.values():
        assert all(a is arrays[0] and a.dtype == np.int32 for a in arrays)
    # over every register each class is its own group
    assert np.array_equal(by_registers[tuple(range(8))][0], np.arange(21147))
    # the chain's transitions differ only in their locations
    chain_graph = quotient_graph(chain(8, 120))
    assert len(chain_graph._steps) == 119
    assert len({id(ker) for _, _, ker in chain_graph._steps}) == 1


def test_fixpoint_kernel_calls_grow_linearly_with_locations(monkeypatch):
    # EF of the chain's last location gains one location row per round; a
    # round re-runs only the kernel whose input row changed, so the calls
    # grow with the rounds, not with rounds x transitions
    calls = []
    pre = reach_module._Kernel.pre
    monkeypatch.setattr(
        reach_module._Kernel, "pre", lambda ker, target: calls.append(1) or pre(ker, target)
    )
    values = universe_table(8, (0,)).values
    fires = int(np.count_nonzero(values[:, 0] != values[:, 1]))
    counts = {}
    for length in (30, 60, 120):
        graph = quotient_graph(chain(8, length))
        calls.clear()
        got = ctl.compute_ctl(graph, formulas.ef(formulas.AtLocation(f"q{length - 1}")))
        assert len(got) == len(values) + (length - 1) * fires
        counts[length] = len(calls)
    assert counts[120] - counts[60] == 2 * (counts[60] - counts[30]), counts
    assert counts[120] <= 3 * 120, counts


def test_quotient_graph_refuses_past_the_node_limit():
    # 300 locations x 678570 classes: refused before the table (tens of MB)
    # or any kernel is built, by ``reach`` as well
    ra = chain(10, 300)
    target = RepConfig("q299", matrix_of_valuation(range(1, 11), ra.constants))
    universe_table.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reach_module, "_build_kernel", None)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="node limit"):
                quotient_graph(ra)
            with pytest.raises(ValueError, match="node limit"):
                reach(ra, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, peak
    # byzantine, wide-post and wide10 stay admitted
    for ra in (byzantine(), wide(9), wide(10)):
        assert len(ra.locations) * universe_size(ra.num_registers, len(ra.constants)) <= MAX_NODES
