"""Builders shared across the test suite.

``figure_one`` and ``byzantine`` construct the two showcase machines
programmatically; the DSL tests check that parsing ``fixtures/*.ra`` yields
exactly these objects.  The ``random_*`` helpers generate seeded instances
for differential testing against the brute-force oracles.  ``wide``,
``load``, ``chain``, ``havoc`` and ``many_constants`` build the scaling
machines the ROADMAP measures, at any size.
"""

from __future__ import annotations

import dataclasses
import random

from regmc import dsl, formulas
from regmc.classes import ONE, ZERO, RepMatrix
from regmc.core import (
    Action,
    Assignment,
    Atom,
    ConstantTerm,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Term,
    Transition,
)

P1, P2 = ParameterTerm(1), ParameterTerm(2)

# each names no class of figure one: an undeclared constant, one register
# where it has two, and three inconsistent matrices (a zero diagonal, an
# asymmetric pair, and a near miss whose first related registers and
# diagonal are those of the class {x1=2 x2=2} but whose (0, 1) entry is not)
NOT_A_FIGURE_ONE_CLASS = [
    RepMatrix(((7, ZERO), (ZERO, ONE))),
    RepMatrix(((ONE,),)),
    RepMatrix(((ZERO, ZERO), (ZERO, ZERO))),
    RepMatrix(((ONE, ONE), (ZERO, ONE))),
    RepMatrix(((2, ZERO), (2, 2))),
]


def figure_one() -> RegisterAutomaton:
    """Two registers, constant 2: stores a distinct pair, then matches on it."""
    x1, x2 = RegisterTerm(0), RegisterTerm(1)
    two = ConstantTerm(2)
    keep = Assignment.identity((0, 1))
    return RegisterAutomaton(
        constants=(2,),
        registers=("x1", "x2"),
        actions=(Action("alpha", 2), Action("beta", 1)),
        locations=("l0", "l1"),
        initial="l0",
        transitions=(
            Transition("l0", "alpha", (Atom(P1, P2, False),), Assignment(((0, P1), (1, P2))), "l1"),
            Transition("l0", "alpha", (Atom(P1, P2, True),), Assignment(), "l0"),
            Transition(
                "l1",
                "beta",
                (Atom(x1, P1, False), Atom(x2, P1, False), Atom(P1, two, False)),
                Assignment(),
                "l0",
            ),
            Transition("l1", "beta", (Atom(x1, P1, True),), keep, "l1"),
            Transition("l1", "beta", (Atom(x2, P1, True),), keep, "l1"),
            Transition("l1", "beta", (Atom(P1, two, True),), Assignment(((0, P1), (1, x2))), "l1"),
        ),
    )


# Register layout of the fault-tolerant voting machine.
R1, R2, R3, D1, D2, D3, S, T = range(8)


def byzantine() -> RegisterAutomaton:
    """Majority voting with one unreliable participant and default value 0.

    Two voting rounds (locations l1 and l2 pick ``D1`` resp. ``D2`` out of
    the proposals held in ``s``/``t``); the final location loops with an
    identity assignment so that reached valuations persist.
    """

    def regs(*indices: int) -> tuple[Term, ...]:
        return tuple(RegisterTerm(i) for i in indices)

    r1, r2, s, t = regs(R1, R2, S, T)
    zero = ConstantTerm(0)

    def vote(src: str, dst: str, anchor: Term, decided: int) -> tuple[Transition, ...]:
        """The four ways round ``src`` can settle register ``decided``.

        The anchor register's own proposal wins when it matches either
        received value, agreement of the received pair wins otherwise, and
        complete disagreement falls back to the default 0.
        """
        base = dict(
            zip((R1, R2, R3), regs(R1, R2, R3))
        )
        if decided == D2:
            base[D1] = RegisterTerm(D1)
            base[D3] = RegisterTerm(D3)
        cases: tuple[tuple[tuple[Atom, ...], Term], ...] = (
            ((Atom(anchor, s, True),), s),
            ((Atom(anchor, t, True),), t),
            ((Atom(s, t, True),), s),
            ((Atom(anchor, s, False), Atom(anchor, t, False), Atom(s, t, False)), zero),
        )
        return tuple(
            Transition(src, "alphaM", guard, Assignment(tuple({**base, decided: value}.items())), dst)
            for guard, value in cases
        )

    return RegisterAutomaton(
        constants=(0,),
        registers=("r1", "r2", "r3", "D1", "D2", "D3", "s", "t"),
        actions=(
            Action("alpha1", 2),
            Action("alpha2", 2),
            Action("alpha3", 2),
            Action("alphaM", 0),
        ),
        locations=("l0", "l1", "L1", "L3", "l2", "L2"),
        initial="l0",
        transitions=(
            Transition(
                "l0",
                "alpha1",
                (Atom(P1, r2, True),),
                Assignment(tuple({R1: r1, R2: r2, R3: RegisterTerm(R3), S: P1, T: P2}.items())),
                "l1",
            ),
            *vote("l1", "L1", r1, D1),
            Transition(
                "L1",
                "alpha3",
                (Atom(P1, r1, True), Atom(P2, r2, True)),
                Assignment(tuple({i: RegisterTerm(i) for i in (R1, R2, R3, D1)}.items())),
                "L3",
            ),
            Transition(
                "L3",
                "alpha2",
                (Atom(P1, r1, True),),
                Assignment(
                    tuple({**{i: RegisterTerm(i) for i in (R1, R2, R3, D1, D3)}, S: P1, T: P2}.items())
                ),
                "l2",
            ),
            *vote("l2", "L2", r2, D2),
            Transition("L2", "alphaM", (), Assignment.identity(range(8)), "L2"),
        ),
    )


def random_term(rng: random.Random, num_registers: int, arity: int, constants: tuple[int, ...]) -> Term:
    kinds = ["reg"]
    if arity:
        kinds.append("par")
    if constants:
        kinds.append("const")
    kind = rng.choice(kinds)
    if kind == "reg":
        return RegisterTerm(rng.randrange(num_registers))
    if kind == "par":
        return ParameterTerm(rng.randint(1, arity))
    return ConstantTerm(rng.choice(constants))


def random_automaton(
    rng: random.Random,
    *,
    max_registers: int = 3,
    max_locations: int = 3,
    max_transitions: int = 5,
    max_arity: int = 2,
    max_constants: int = 1,
    max_atoms: int = 2,
) -> RegisterAutomaton:
    """A seeded machine; each transition's guard has up to ``max_atoms``
    atoms (the default keeps the machines earlier seeds drew)."""
    num_registers = rng.randint(1, max_registers)
    constants = tuple(sorted(rng.sample(range(4), rng.randint(0, max_constants))))
    actions = tuple(
        Action(name, rng.randint(0, max_arity)) for name in ("a", "b")[: rng.randint(1, 2)]
    )
    locations = tuple(f"q{i}" for i in range(rng.randint(1, max_locations)))

    def transition() -> Transition:
        action = rng.choice(actions)
        guard = tuple(
            Atom(
                random_term(rng, num_registers, action.arity, constants),
                random_term(rng, num_registers, action.arity, constants),
                rng.random() < 0.6,
            )
            for _ in range(rng.randrange(max_atoms + 1))
        )
        updates = tuple(
            (i, random_term(rng, num_registers, action.arity, constants))
            for i in range(num_registers)
            if rng.random() < 0.5
        )
        return Transition(
            rng.choice(locations), action.name, guard, Assignment(updates), rng.choice(locations)
        )

    return RegisterAutomaton(
        constants=constants,
        registers=tuple(f"x{i + 1}" for i in range(num_registers)),
        actions=actions,
        locations=locations,
        initial=locations[0],
        transitions=tuple(transition() for _ in range(rng.randrange(max_transitions + 1))),
    )


def random_formula(rng: random.Random, ra: RegisterAutomaton, depth: int) -> formulas.CtlFormula:
    n = ra.num_registers
    if depth == 0 or rng.random() < 0.25:
        kinds = ["loc", "eq"]
        if ra.constants:
            kinds.append("eqc")
        kind = rng.choice(kinds)
        if kind == "loc":
            return formulas.AtLocation(rng.choice(ra.locations))
        if kind == "eq":
            return formulas.RegEq(rng.randrange(n), rng.randrange(n))
        return formulas.RegEqConst(rng.randrange(n), rng.choice(ra.constants))
    sub = lambda: random_formula(rng, ra, depth - 1)
    kind = rng.choice(["not", "and", "or", "ex", "ax", "eu", "ef", "eg", "ag", "af"])
    if kind == "not":
        return formulas.Not(sub())
    if kind == "and":
        return formulas.And(sub(), sub())
    if kind == "or":
        return formulas.or_(sub(), sub())
    if kind == "ex":
        return formulas.EX(sub())
    if kind == "ax":
        return formulas.ax(sub())
    if kind == "eu":
        return formulas.EU(sub(), sub())
    if kind == "ef":
        return formulas.ef(sub())
    if kind == "eg":
        return formulas.EG(sub())
    if kind == "ag":
        return formulas.ag(sub())
    return formulas.af(sub())

def shift_machine() -> RegisterAutomaton:
    """One transition over three registers: x1 gets old x2, the rest the parameters."""
    x1, x2 = RegisterTerm(0), RegisterTerm(1)
    p1, p2 = ParameterTerm(1), ParameterTerm(2)
    return RegisterAutomaton(
        constants=(),
        registers=("x1", "x2", "x3"),
        actions=(Action("alpha", 2),),
        locations=("l", "m"),
        initial="l",
        transitions=(
            Transition(
                "l",
                "alpha",
                (Atom(x1, x2, False), Atom(p1, p2, False)),
                Assignment(((0, x2), (1, p1), (2, p2))),
                "m",
            ),
        ),
    )


# The 9-register machine of the benchmark's wide-post workload.
WIDE_POST = """\
format 1
constants 0
registers r1 r2 r3 r4 r5 r6 r7 r8 r9
actions load/1 pair/2 tick/0
locations w0* w1 w2 w3
trans w0 -> w0 on load(p1) when r1 != p1 & r2 = p1 do r1 := r1, r2 := r2, r3 := r6, r4 := r4, r5 := r8, r6 := r6, r7 := p1, r8 := r8, r9 := r9
trans w0 -> w1 on load(p1) when r1 = 0 & r9 = r7 do r1 := r1, r2 := r2, r3 := r3, r4 := r4, r5 := r5, r7 := r7, r8 := r8, r9 := r9
trans w0 -> w3 on tick() when r6 != 0 & r6 = r9 do r1 := r1, r2 := r2, r3 := r4, r5 := r7, r6 := r6, r7 := r7, r8 := r8, r9 := r7
trans w1 -> w1 on tick() when r9 = r6 do r1 := r1, r2 := r2, r3 := r1, r4 := r4, r5 := r5, r7 := r7, r8 := r8, r9 := r9
trans w1 -> w2 on tick() when r6 != r1 do r1 := r4, r2 := r2, r3 := r3, r4 := r4, r5 := r5, r6 := r6, r8 := r8, r9 := r9
trans w1 -> w1 on tick() when r2 = r9 do r1 := r1, r2 := r2, r3 := r3, r4 := r4, r5 := r3, r6 := r6, r7 := r9, r8 := r8, r9 := r9
trans w2 -> w2 on load(p1) when r5 != r6 & r9 = r8 do r1 := r1, r2 := r2, r3 := r3, r4 := r3, r5 := r5, r6 := r6, r7 := r7, r8 := r8, r9 := r9
trans w2 -> w3 on pair(p1, p2) when r3 = r2 & r9 = r8 do r1 := r1, r2 := p2, r3 := r3, r4 := r1, r5 := r5, r6 := r6, r7 := r7, r8 := r8, r9 := r9
trans w2 -> w1 on pair(p1, p2) when r3 != 0 & r5 != p2 do r1 := r1, r2 := r2, r3 := r3, r4 := r4, r5 := r5, r6 := r6, r7 := r5, r9 := r9
trans w3 -> w3 on pair(p1, p2) when r2 != 0 & r3 != p2 do r1 := r1, r2 := r2, r3 := r3, r4 := r8, r5 := r5, r6 := r6, r7 := r7, r8 := r8
trans w3 -> w0 on load(p1) when r1 = 0 do r1 := r1, r2 := r2, r3 := r3, r4 := r4, r5 := p1, r6 := r6, r8 := r8, r9 := r9
trans w3 -> w3 on pair(p1, p2) when r2 != r8 & r5 != r6 do r1 := r1, r3 := r3, r4 := r4, r5 := r5, r6 := r6, r7 := r7, r8 := r8, r9 := r2
"""


def wide(n: int) -> RegisterAutomaton:
    """The wide-post machine with registers ``r10 … rn`` appended, each kept
    by every transition (``wide(9)`` is the machine itself)."""
    ra = dsl.parse_automaton(WIDE_POST)
    extra = range(ra.num_registers, n)
    keep = tuple((i, RegisterTerm(i)) for i in extra)
    return dataclasses.replace(
        ra,
        registers=ra.registers + tuple(f"r{i + 1}" for i in extra),
        transitions=tuple(
            dataclasses.replace(t, assignment=Assignment(t.assignment.updates + keep))
            for t in ra.transitions
        ),
    )


def _registers(n: int) -> tuple[str, ...]:
    return tuple(f"r{i + 1}" for i in range(n))


def load(n: int, equal: bool = False) -> RegisterAutomaton:
    """One step loads n parameters, each distinct from (or, with ``equal``,
    equal to) the register it replaces."""
    params = [ParameterTerm(i + 1) for i in range(n)]
    guard = tuple(Atom(RegisterTerm(i), p, equal) for i, p in enumerate(params))
    step = Transition("q", "ld", guard, Assignment(tuple(enumerate(params))), "q")
    return RegisterAutomaton((0,), _registers(n), (Action("ld", n),), ("q",), "q", (step,))


def pinned(n: int) -> RegisterAutomaton:
    """One step stores n parameters, every one equal to the first, which
    differs from the first register."""
    params = [ParameterTerm(i + 1) for i in range(n)]
    guard = (Atom(params[0], RegisterTerm(0), False),)
    guard += tuple(Atom(p, params[0], True) for p in params[1:])
    step = Transition("q", "st", guard, Assignment(tuple(enumerate(params))), "q")
    return RegisterAutomaton((0,), _registers(n), (Action("st", n),), ("q",), "q", (step,))


def chain(n: int, length: int) -> RegisterAutomaton:
    """``length`` locations in a line, each step guarded by ``r1 != r2`` and
    keeping every register."""
    locations = tuple(f"q{i}" for i in range(length))
    guard = (Atom(RegisterTerm(0), RegisterTerm(1), False),)
    steps = tuple(
        Transition(a, "go", guard, Assignment.identity(range(n)), b)
        for a, b in zip(locations, locations[1:])
    )
    return RegisterAutomaton((0,), _registers(n), (Action("go", 0),), locations, "q0", steps)


def havoc(n: int, kept: int = 0) -> RegisterAutomaton:
    """One unguarded self-loop that keeps the first ``kept`` registers and
    releases the rest."""
    step = Transition("q", "go", (), Assignment.identity(range(kept)), "q")
    return RegisterAutomaton((0,), _registers(n), (Action("go", 0),), ("q",), "q", (step,))


def many_constants(m: int, release_all: bool = False) -> RegisterAutomaton:
    """Two registers ``x1 x2`` over the constants ``0 … m - 1`` at one
    location: one step guarded by ``x1 != x2`` keeps ``x1`` and releases
    ``x2``, or, with ``release_all``, one unguarded step releases both."""
    if release_all:
        step = Transition("q", "go", (), Assignment(), "q")
    else:
        guard = (Atom(RegisterTerm(0), RegisterTerm(1), False),)
        step = Transition("q", "go", guard, Assignment.identity((0,)), "q")
    return RegisterAutomaton(tuple(range(m)), ("x1", "x2"), (Action("go", 0),), ("q",), "q", (step,))
