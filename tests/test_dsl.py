"""Grammar, error reporting, and round-trip laws for the textual formats."""

from __future__ import annotations

import pathlib
import random

import pytest

from gens import byzantine, figure_one, random_automaton, random_formula
from regmc import ctl, dsl
from regmc.core import Action, RegisterAutomaton
from regmc.ctl import EG, EU, EX, And, AtLocation, Not, RegEq, RegEqConst
from regmc.dsl import ParseError
from regmc.matrices import ONE, ZERO, RepConfig, RepMatrix, universe

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def span_inside(err: ParseError, text: str) -> bool:
    s = err.span
    return s.line >= 1 and s.column >= 1 and 0 <= s.offset <= max(0, len(text) - 1)


def fails(text: str, parse=dsl.parse_automaton, *args) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(text, *args)
    assert span_inside(info.value, text)
    return info.value


# --- automaton files ---


def test_figure_fixture_matches_builder():
    text = (FIXTURES / "figure1.ra").read_text()
    ra = dsl.parse_automaton(text)
    assert ra == figure_one()
    assert len(ra.locations) == 2
    assert len(ra.transitions) == 6
    assert ra.constants == (2,)
    assert dsl.parse_automaton(dsl.serialize(ra)) == ra


def test_byzantine_fixture_matches_builder():
    text = (FIXTURES / "byzantine.ra").read_text()
    ra = dsl.parse_automaton(text)
    assert ra == byzantine()
    assert len(ra.locations) == 6
    assert len(ra.registers) == 8
    assert len(ra.transitions) == 12
    assert ra.constants == (0,)
    assert dsl.parse_automaton(dsl.serialize(ra)) == ra


def test_surface_freedoms():
    # Comments, blank lines, declaration order, and whitespace are all free;
    # an absent constants line means no constants at all.
    text = """
    # a one-transition machine
    format 1

    registers  x1   x2
    locations  q0*  q1   # trailing comment
    actions    a/1
    trans q0 -> q1 on a(p1) when true do -
    """
    ra = dsl.parse_automaton(text)
    assert ra.constants == ()
    assert ra.initial == "q0"
    assert ra.transitions[0].guard == ()
    assert ra.transitions[0].assignment.updates == ()


def test_guard_and_assignment_forms():
    text = (
        "format 1\n"
        "constants 0 2\n"
        "registers x1 x2\n"
        "actions a/2\n"
        "locations q0*\n"
        "trans q0 -> q0 on a(p1, p2) when x1 = p2 & p1 != 2 & 0 != x2 "
        "do x2 := 0, x1 := p1\n"
    )
    ra = dsl.parse_automaton(text)
    (t,) = ra.transitions
    assert len(t.guard) == 3
    assert t.guard[0].equal and not t.guard[1].equal
    # Assignments normalize to register order no matter how they were written.
    assert [i for i, _ in t.assignment.updates] == [0, 1]
    assert dsl.parse_automaton(dsl.serialize(ra)) == ra


def test_automaton_errors():
    head = "format 1\nconstants 2\nregisters x1 x2\nactions a/2 z/0\nlocations q0* q1\n"

    def tr(line: str) -> str:
        return head + line + "\n"

    fails("registers x1\n")  # missing header
    fails("format 2\nregisters x1\nactions a/0\nlocations q0*\n")
    fails(head + "registers y1\n")  # duplicate section
    fails(tr("trans q0 -> q9 on a(p1, p2) when true do -"))  # unknown location
    fails(tr("trans q0 -> q1 on boom(p1) when true do -"))  # unknown action
    fails(tr("trans q0 -> q1 on a(p1) when true do -"))  # too few parameters
    fails(tr("trans q0 -> q1 on z(p1) when true do -"))  # params on arity 0
    fails(tr("trans q0 -> q1 on a(p1, p2) when p3 = x1 do -"))  # arity in guard
    fails(tr("trans q0 -> q1 on a(p1, p2) when x3 = p1 do -"))  # unknown register
    fails(tr("trans q0 -> q1 on a(p1, p2) when x1 = 5 do -"))  # undeclared constant
    fails(tr("trans q0 -> q1 on a(p1, p2) when true do x1 := p1, x1 := p2"))
    fails(tr("trans q0 -> q1 on a(p1, p2) when true do x1 := 7"))
    fails(tr("trans q0 -> q1 on a(p1, p2) when true do x1 := p1 x2 := p2"))
    fails("format 1\nconstants 2 2\nregisters x1\nactions a/0\nlocations q0*\n")
    fails("format 1\nregisters x1 trans\nactions a/0\nlocations q0*\n")  # reserved
    fails("format 1\nregisters x1 p2\nactions a/0\nlocations q0*\n")  # param-shaped
    fails("format 1\nregisters x1 x1\nactions a/0\nlocations q0*\n")
    fails("format 1\nregisters x1\nactions a/0\nlocations q0* q1*\n")  # two initials
    fails("format 1\nregisters x1\nactions a/0\nlocations q0 q1\n")  # no initial
    fails("format 1\nregisters x1\nactions a/0\n")  # missing locations
    fails("format 1\ntrans q0 -> q0 on a() when true do -\n")  # trans before decls


def test_error_spans_point_at_the_problem():
    text = "format 1\nregisters x1\nactions a/1\nlocations q0*\ntrans q0 -> q0 on a(p1) when x9 = p1 do -\n"
    err = fails(text)
    assert err.span.line == 5
    assert text[err.span.offset : err.span.offset + 2] == "x9"
    assert "x9" in err.message


# --- formulas ---


def test_formula_examples():
    byz = byzantine()
    f = dsl.parse_formula("AF (D1 = D2)", byz)
    assert f == Not(EG(Not(RegEq(3, 4))))
    assert f == ctl.af(RegEq(3, 4))

    fig = figure_one()
    assert dsl.parse_formula("@l0", fig) == AtLocation("l0")
    assert dsl.parse_formula("x1 = x2", fig) == RegEq(0, 1)
    assert dsl.parse_formula("x1 = 2", fig) == RegEqConst(0, 2)
    assert dsl.parse_formula("2 = x1", fig) == RegEqConst(0, 2)
    assert dsl.parse_formula("true", fig) == ctl.TRUE
    assert dsl.parse_formula("false", fig) == ctl.FALSE
    assert dsl.parse_formula("E [ @l0 U @l1 ]", fig) == EU(AtLocation("l0"), AtLocation("l1"))
    assert dsl.parse_formula("EX @l1", fig) == EX(AtLocation("l1"))
    assert dsl.parse_formula("AX @l1", fig) == ctl.ax(AtLocation("l1"))
    assert dsl.parse_formula("EF @l1", fig) == ctl.ef(AtLocation("l1"))
    assert dsl.parse_formula("AG @l1", fig) == ctl.ag(AtLocation("l1"))
    assert dsl.parse_formula("EG @l1", fig) == EG(AtLocation("l1"))


def test_formula_precedence():
    fig = figure_one()
    a, b = AtLocation("l0"), AtLocation("l1")
    got = dsl.parse_formula("! @l0 & @l1 | @l0 -> EX @l1", fig)
    assert got == ctl.implies(ctl.or_(And(Not(a), b), a), EX(b))
    # -> is right-associative, & left-associative.
    assert dsl.parse_formula("@l0 -> @l1 -> @l0", fig) == ctl.implies(a, ctl.implies(b, a))
    assert dsl.parse_formula("@l0 & @l1 & @l0", fig) == And(And(a, b), a)
    # Prefix operators grab a single operand.
    assert dsl.parse_formula("EX @l0 & @l1", fig) == And(EX(a), b)
    assert dsl.parse_formula("EX (@l0 & @l1)", fig) == EX(And(a, b))


def test_formula_invariant_example():
    ra = RegisterAutomaton(
        constants=(),
        registers=("x1", "x2"),
        actions=(Action("a", 0),),
        locations=("l_start", "l_end"),
        initial="l_start",
        transitions=(),
    )
    f = dsl.parse_formula(
        "AG ((@l_start & !(x1 = x2)) -> EF (@l_end & (x1 = x2)))", ra
    )
    body = ctl.implies(
        And(AtLocation("l_start"), Not(RegEq(0, 1))),
        ctl.ef(And(AtLocation("l_end"), RegEq(0, 1))),
    )
    assert f == ctl.ag(body)
    assert dsl.parse_formula(dsl.serialize(f, ra), ra) == f


def test_formula_errors():
    fig = figure_one()
    fails("x1 = 5", dsl.parse_formula, fig)  # 5 is not a declared constant
    fails("x1 != x2", dsl.parse_formula, fig)  # only = in formulas
    fails("x3 = x1", dsl.parse_formula, fig)
    fails("p1 = x1", dsl.parse_formula, fig)
    fails("@nowhere", dsl.parse_formula, fig)
    fails("2 = 2", dsl.parse_formula, fig)
    fails("@l0 @l1", dsl.parse_formula, fig)  # trailing junk
    fails("(@l0", dsl.parse_formula, fig)
    fails("E [ @l0 U @l1", dsl.parse_formula, fig)
    fails("E [ @l0 @l1 ]", dsl.parse_formula, fig)
    fails("", dsl.parse_formula, fig)
    fails("@l0 &", dsl.parse_formula, fig)


def test_formula_nesting_limit():
    fig = figure_one()
    atom = "x1 = x2"
    fails("!" * 3000 + atom, dsl.parse_formula, fig)
    fails("(" * 3000 + atom + ")" * 3000, dsl.parse_formula, fig)
    fails(" & ".join([atom] * 3000), dsl.parse_formula, fig)
    fails(" -> ".join([atom] * 3000), dsl.parse_formula, fig)
    fails("E [ " * 3000 + atom + " U @l0 ]" * 3000, dsl.parse_formula, fig)

    limit = dsl.MAX_FORMULA_DEPTH
    leaf = RegEq(0, 1)
    chains = [leaf, leaf, leaf]
    for _ in range(limit - 1):
        chains = [Not(chains[0]), And(chains[1], leaf), EU(leaf, chains[2])]
    for f in chains:  # exactly at the limit: accepted, and round-trips
        assert dsl.parse_formula(dsl.serialize(f, fig), fig) == f
        fails("EX (" + dsl.serialize(f, fig) + ")", dsl.parse_formula, fig)
        with pytest.raises(ValueError):
            dsl.serialize(EX(f), fig)  # one level over: refused before recursing
    assert dsl.parse_formula("(" * (limit - 1) + atom + ")" * (limit - 1), fig) == leaf
    fails("(" * limit + atom + ")" * limit, dsl.parse_formula, fig)


# --- representative configurations ---


def test_repconfig_examples():
    fig = figure_one()
    rc = dsl.parse_repconfig("l1 | {x1=2} {x2}", fig)
    assert rc == RepConfig("l1", RepMatrix(((2, ZERO), (ZERO, ONE))))
    rc0 = dsl.parse_repconfig("l0 | {x1 x2}", fig)
    assert rc0 == RepConfig("l0", RepMatrix(((ONE, ONE), (ONE, ONE))))
    fails("l0 | {x1 x2} {x2}", dsl.parse_repconfig, fig)  # x2 twice


def test_repconfig_forms():
    fig = figure_one()
    # Unmentioned registers become their own unpinned classes.
    assert dsl.parse_repconfig("l0 | {x1=2}", fig) == dsl.parse_repconfig(
        "l0 | {x1=2} {x2}", fig
    )
    assert dsl.parse_repconfig("l0 |", fig) == RepConfig(
        "l0", RepMatrix(((ONE, ZERO), (ZERO, ONE)))
    )
    # The constant may sit on any member of the class.
    ra = RegisterAutomaton(
        constants=(0,),
        registers=("x1", "x2", "x3"),
        actions=(Action("a", 0),),
        locations=("q0",),
        initial="q0",
        transitions=(),
    )
    a = dsl.parse_repconfig("q0 | {x1=0 x2} {x3}", ra)
    b = dsl.parse_repconfig("q0 | {x1 x2=0} {x3}", ra)
    c = dsl.parse_repconfig("q0 | {x1=0 x2=0} {x3}", ra)
    assert a == b == c
    assert a.matrix.entry(0, 1) == 0 and a.matrix.entry(2, 2) == ONE


def test_repconfig_errors():
    fig = figure_one()
    fails("l9 | {x1 x2}", dsl.parse_repconfig, fig)
    fails("l0 | {x1 x9}", dsl.parse_repconfig, fig)
    fails("l0 | {x1=7} {x2}", dsl.parse_repconfig, fig)  # not a constant
    fails("l0 | {} {x1 x2}", dsl.parse_repconfig, fig)
    fails("l0 {x1 x2}", dsl.parse_repconfig, fig)  # missing separator
    fails("l0 | {x1 x2} junk", dsl.parse_repconfig, fig)
    ra = RegisterAutomaton(
        constants=(0, 2),
        registers=("x1", "x2"),
        actions=(Action("a", 0),),
        locations=("q0",),
        initial="q0",
        transitions=(),
    )
    fails("q0 | {x1=0 x2=2}", dsl.parse_repconfig, ra)  # two constants, one class
    fails("q0 | {x1=0} {x2=0}", dsl.parse_repconfig, ra)  # one constant, two classes


# --- serialization round-trips ---


def test_serialize_needs_the_automaton_for_named_values():
    fig = figure_one()
    rc = dsl.parse_repconfig("l0 | {x1 x2}", fig)
    with pytest.raises(ValueError):
        dsl.serialize(rc)
    with pytest.raises(ValueError):
        dsl.serialize(ctl.TRUE)
    with pytest.raises(TypeError):
        dsl.serialize(42)


def test_random_automaton_round_trips():
    rng = random.Random(20)
    for _ in range(150):
        ra = random_automaton(rng)
        assert dsl.parse_automaton(dsl.serialize(ra)) == ra


def test_random_formula_round_trips():
    rng = random.Random(21)
    for _ in range(150):
        ra = random_automaton(rng)
        f = random_formula(rng, ra, depth=3)
        assert dsl.parse_formula(dsl.serialize(f, ra), ra) == f


def test_every_three_register_repconfig_round_trips():
    ra = RegisterAutomaton(
        constants=(0,),
        registers=("x1", "x2", "x3"),
        actions=(Action("a", 0),),
        locations=("q0", "q1"),
        initial="q0",
        transitions=(),
    )
    for m in universe(3, (0,)):
        for loc in ra.locations:
            rc = RepConfig(loc, m)
            text = dsl.serialize(rc, ra)
            assert dsl.parse_repconfig(text, ra) == rc


def test_bare_class_lists_round_trip():
    names = ("x1", "x2", "x3")
    for constants in ((), (0,), (0, 2)):
        for m in universe(3, constants):
            text = dsl.classes_text(m, names)
            assert dsl.parse_classes(text, names, constants) == m
    assert dsl.classes_text(universe(1, ())[0], ("x1",)) == "{x1}"
