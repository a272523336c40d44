"""CTL answered on the live-register quotient, played against the labelling
on the graph's own full kernels (``ctl._eval``) and, for ``ctl.check``,
against the answers on the full graph."""

from __future__ import annotations

import random
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from gens import D1, D2, D3, R1, R2, R3, S, T, byzantine, chain, havoc, random_automaton, random_formula
from regmc import ctl, formulas
from regmc.classes import RepConfig, universe_size
from regmc.core import Action, Assignment, Atom, ConstantTerm, ParameterTerm, RegisterAutomaton, Transition
from regmc.matrices import universe
from regmc.reach import live_registers, quotient_graph, reach

reach_module = sys.modules["regmc.reach"]


def _agrees(graph, f) -> None:
    """The projected answers to ``f`` are the labelling on ``graph``'s own kernels."""
    want = ctl._eval(graph, f)
    assert np.array_equal(ctl.compute_ctl(graph, f).masks, want), (graph.ra, f)
    initial = graph.ra.locations.index(graph.ra.initial)
    assert ctl.model_check(graph, f) == bool(want[initial].all()), (graph.ra, f)


def test_projected_labelling_matches_full_kernels_on_random_machines():
    rng = random.Random(17)
    proper = 0
    for _ in range(60):
        ra = random_automaton(rng, max_registers=4, max_constants=2)
        graph = quotient_graph(ra)
        for _ in range(4):
            f = random_formula(rng, ra, depth=3)
            _agrees(graph, f)
        proper += any(len(live) < ra.num_registers for live in graph._projections)
    # most machines leave some register dead for some formula
    assert proper >= 20, proper


def test_check_on_the_projection_alone_matches_the_full_graph():
    # ``check`` builds only the graph over the registers live for the
    # formula, and looks a class up by its sub-matrix over them
    rng = random.Random(29)
    dead = 0
    for _ in range(60):
        ra = random_automaton(rng, max_registers=4, max_constants=2)
        graph = quotient_graph(ra)
        classes = universe(ra.num_registers, ra.constants)
        narrowed = False
        for _ in range(4):
            f = random_formula(rng, ra, depth=3)
            assert ctl.check(ra, f) == ctl.model_check(graph, f), (ra, f)
            sat = ctl.compute_ctl(graph, f)
            for _ in range(3):
                config = RepConfig(rng.choice(ra.locations), rng.choice(classes))
                assert ctl.check(ra, f, config) == (config in sat), (ra, f, config)
            narrowed |= len(ctl._projected(ra, f)[0]) < ra.num_registers
        dead += narrowed
    # most machines leave some register dead for some formula
    assert dead >= 20, dead
    wrong = RepConfig(ra.initial, universe(ra.num_registers + 1, ra.constants)[0])
    with pytest.raises(ValueError, match="not a consistent class"):
        ctl.check(ra, formulas.TRUE, wrong)


@pytest.mark.parametrize("ra", [chain(4, 6), havoc(4, 1)], ids=["chain4_6", "havoc4_1"])
def test_projected_labelling_matches_full_kernels_on_dead_registers(ra):
    rng = random.Random(ra.num_registers * 100 + len(ra.locations))
    graph = quotient_graph(ra)
    for _ in range(25):
        _agrees(graph, random_formula(rng, ra, depth=3))
    last = formulas.AtLocation(ra.locations[-1])
    for f in (formulas.ef(last), formulas.ag(formulas.RegEq(0, 1)), formulas.EG(formulas.RegEqConst(2, 0)), formulas.TRUE):
        _agrees(graph, f)


def test_location_only_formulas_when_no_guard_reads_a_register():
    # guards over parameters and constants only, and one copy between
    # registers: a formula over locations observes nothing, so nothing is live
    p1 = ParameterTerm(1)
    ra = RegisterAutomaton(
        constants=(0,),
        registers=("x1", "x2", "x3"),
        actions=(Action("a", 1),),
        locations=("u", "v", "w"),
        initial="u",
        transitions=(
            Transition("u", "a", (Atom(p1, ConstantTerm(0), False),), Assignment(((1, p1),)), "v"),
            Transition("v", "a", (), Assignment(((0, ParameterTerm(1)), (2, ParameterTerm(1)))), "u"),
            Transition("v", "a", (Atom(p1, ConstantTerm(0), True),), Assignment(), "w"),
        ),
    )
    assert live_registers(ra, ()) == ()
    assert live_registers(havoc(4), ()) == ()
    u, w = formulas.AtLocation("u"), formulas.AtLocation("w")
    for machine in (ra, havoc(4)):
        graph = quotient_graph(machine)
        here = formulas.AtLocation(machine.initial)
        for f in (here, formulas.ef(here), formulas.EG(here), formulas.ax(here), formulas.TRUE, formulas.FALSE):
            _agrees(graph, f)
    graph = quotient_graph(ra)
    for f in (formulas.ef(w), formulas.ag(formulas.implies(w, formulas.ax(formulas.FALSE))), formulas.EU(u, formulas.EX(w))):
        _agrees(graph, f)
    assert ctl.model_check(graph, formulas.ef(w)) is True


def test_byzantine_live_set():
    ra = byzantine()
    # the guards read r1, r2, s and t; D1 and D2 are stored from s, t and
    # themselves; r3 and D3 are only ever copied into themselves
    assert live_registers(ra, (D1, D2)) == (R1, R2, D1, D2, S, T)
    assert live_registers(ra, ()) == (R1, R2, S, T)
    assert live_registers(ra, (R3, D3)) == (R1, R2, R3, D3, S, T)
    graph = quotient_graph(ra)
    live = live_registers(ra, (D1, D2))
    assert len(graph._projection(live).table.key) == universe_size(6, 1) == 877
    assert len(graph._groups(live)) == len(graph.table.key) == 21147
    every = tuple(range(8))
    assert graph._projection(every) is graph
    assert np.array_equal(graph._groups(every), np.arange(21147))


def test_only_the_lift_groups_the_full_table(monkeypatch):
    # ``model_check`` reads the projected initial row alone, so it groups
    # none of the 8 registers' classes; ``compute_ctl`` lifts its answer
    # through one grouping per live set, kept by the graph
    widths: list[tuple[int, ...]] = []
    groups = reach_module.UniverseTable.groups

    def counted(table, registers):
        if table.values.shape[1] == 8:
            widths.append(registers)
        return groups(table, registers)

    monkeypatch.setattr(reach_module.UniverseTable, "groups", counted)
    ra = byzantine()
    graph = quotient_graph(ra)
    d12 = formulas.af(formulas.RegEq(D1, D2))
    assert ctl.model_check(graph, d12) is False
    assert ctl.model_check(graph, formulas.ag(formulas.RegEq(D1, D2))) is False
    assert widths == []
    ctl.compute_ctl(graph, d12)
    ctl.compute_ctl(graph, formulas.EG(formulas.Not(formulas.RegEq(D1, D2))))
    assert widths == [live_registers(ra, (D1, D2))]
    ctl.compute_ctl(graph, formulas.ef(formulas.RegEq(R3, D3)))
    assert widths == [live_registers(ra, (D1, D2)), live_registers(ra, (R3, D3))]


def _kernel_widths(monkeypatch) -> list[int]:
    """The register count of the table of every kernel built from now on."""
    widths: list[int] = []
    build = reach_module._build_kernel

    def counted(ra, t, table, groups):
        widths.append(table.values.shape[1])
        return build(ra, t, table, groups)

    monkeypatch.setattr(reach_module, "_build_kernel", counted)
    return widths


def test_byzantine_questions_build_no_full_kernel(monkeypatch):
    ra = byzantine()
    widths = _kernel_widths(monkeypatch)
    graph = quotient_graph(ra)
    agree = formulas.RegEq(D1, D2)
    assert ctl.model_check(graph, formulas.af(agree)) is False
    assert len(ctl.compute_ctl(graph, formulas.EG(formulas.Not(agree)))) == 92676
    assert len(ctl.compute_ctl(graph, formulas.EX(formulas.Not(agree)))) == 118602
    assert widths and set(widths) == {6}


def test_set_operators_and_reachability_build_full_kernels_once_per_graph(monkeypatch):
    ra = byzantine()
    steps = len({(t.guard, t.assignment) for t in ra.transitions})
    widths = _kernel_widths(monkeypatch)
    graph = quotient_graph(ra)
    assert widths == []
    disagree = ctl.compute_ctl(graph, formulas.Not(formulas.RegEq(D1, D2)))
    assert widths == []
    assert np.count_nonzero(graph._ex_masks(disagree.masks)) == 118602
    assert widths == [8] * steps
    node = next(iter(disagree))
    assert oracles.edges(graph, node)
    graph._ex_masks(disagree.masks)
    assert widths == [8] * steps
    # ``reach`` builds a graph of its own, and its kernels once
    widths.clear()
    assert reach(ra, node)
    assert widths == [8] * steps


def test_chain_check_memory_stays_off_the_full_graph():
    # every register but r1 and r2 is dead for a location question; on the
    # full 120 x 21147 nodes the fixpoint's masks and kernel answers alone
    # held about 15 MB
    graph = quotient_graph(chain(8, 120))
    tracemalloc.start()
    try:
        assert ctl.model_check(graph, formulas.ef(formulas.AtLocation("q119"))) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_errors_are_those_of_the_full_labelling():
    ra = byzantine()
    graph = quotient_graph(ra)
    agree = formulas.RegEq(D1, D2)
    for bad in (
        formulas.And(agree, formulas.AtLocation("nowhere")),
        formulas.EX(formulas.RegEq(D1, 8)),
        formulas.ef(formulas.RegEqConst(S, 7)),
        formulas.And(formulas.EG(agree), formulas.Not("agree")),
    ):
        with pytest.raises(ValueError) as full:
            ctl._eval(graph, bad)
        for ask in (ctl.compute_ctl, ctl.model_check):
            with pytest.raises(ValueError) as projected:
                ask(graph, bad)
            assert str(projected.value) == str(full.value)
