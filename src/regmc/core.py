"""Register automata over an infinite alphabet, and their concrete semantics.

A machine reads actions carrying tuples of naturals, compares them against a
finite set of registers and declared constants using (dis)equality guards,
and updates registers by simultaneous assignment.  Registers left out of a
step's assignment are *havocked*: the step relation lets them take any value
whatsoever.  Because of that, concrete enumeration is always parameterised
by an explicit finite pool of values; ``sufficient_pool`` returns one large
enough that every behaviour distinguishable by (dis)equality already shows
up inside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Action:
    name: str
    arity: int


@dataclass(frozen=True)
class RegisterTerm:
    """The current value of register ``index`` (0-based)."""

    index: int


@dataclass(frozen=True)
class ParameterTerm:
    """The ``index``-th value carried by the action (1-based)."""

    index: int


@dataclass(frozen=True)
class ConstantTerm:
    value: int


Term = RegisterTerm | ParameterTerm | ConstantTerm


@dataclass(frozen=True)
class Atom:
    """``left = right`` when ``equal``, otherwise ``left != right``."""

    left: Term
    right: Term
    equal: bool


@dataclass(frozen=True)
class Assignment:
    """Simultaneous update of some registers; the rest are havocked.

    ``updates`` maps target register indices to terms evaluated under the
    *old* valuation.  Normalised to be sorted by target, with duplicate
    targets rejected.
    """

    updates: tuple[tuple[int, Term], ...] = ()

    def __post_init__(self) -> None:
        targets = [i for i, _ in self.updates]
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate assignment targets: {sorted(targets)}")
        object.__setattr__(self, "updates", tuple(sorted(self.updates, key=lambda u: u[0])))

    @staticmethod
    def identity(indices: Iterable[int]) -> Assignment:
        """Explicitly rebind each register to itself, shielding it from havoc."""
        return Assignment(tuple((i, RegisterTerm(i)) for i in indices))

    def targets(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.updates)


@dataclass(frozen=True)
class Transition:
    source: str
    action: str
    guard: tuple[Atom, ...]
    assignment: Assignment
    target: str


@dataclass(frozen=True)
class RegisterAutomaton:
    constants: tuple[int, ...]
    registers: tuple[str, ...]
    actions: tuple[Action, ...]
    locations: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if not self.registers:
            raise ValueError("need at least one register")
        if len(set(self.registers)) != len(self.registers):
            raise ValueError("duplicate register names")
        if len(set(self.constants)) != len(self.constants):
            raise ValueError("duplicate constants")
        if any(c < 0 for c in self.constants):
            raise ValueError("constants must be naturals")
        if not self.locations or len(set(self.locations)) != len(self.locations):
            raise ValueError("locations must be nonempty and distinct")
        if self.initial not in self.locations:
            raise ValueError(f"unknown initial location {self.initial!r}")
        arity = {a.name: a.arity for a in self.actions}
        if len(arity) != len(self.actions):
            raise ValueError("duplicate action names")
        if any(a.arity < 0 for a in self.actions):
            raise ValueError("negative arity")
        for t in self.transitions:
            if t.source not in self.locations or t.target not in self.locations:
                raise ValueError(f"transition endpoints unknown: {t.source}->{t.target}")
            if t.action not in arity:
                raise ValueError(f"unknown action {t.action!r}")
            for atom in t.guard:
                self._check_term(atom.left, arity[t.action])
                self._check_term(atom.right, arity[t.action])
            for i, term in t.assignment.updates:
                if not 0 <= i < self.num_registers:
                    raise ValueError(f"assignment to unknown register {i}")
                self._check_term(term, arity[t.action])
        object.__setattr__(self, "_arity", arity)

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    def _check_term(self, term: Term, arity: int) -> None:
        if isinstance(term, RegisterTerm):
            if not 0 <= term.index < self.num_registers:
                raise ValueError(f"register index {term.index} out of range")
        elif isinstance(term, ParameterTerm):
            if not 1 <= term.index <= arity:
                raise ValueError(f"parameter p{term.index} exceeds arity {arity}")
        else:
            if term.value not in self.constants:
                raise ValueError(f"constant {term.value} not declared")

    def action_arity(self, name: str) -> int:
        return self._arity[name]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Configuration:
    location: str
    valuation: tuple[int, ...]


def eval_term(term: Term, valuation: Sequence[int], args: Sequence[int]) -> int:
    if isinstance(term, RegisterTerm):
        return valuation[term.index]
    if isinstance(term, ParameterTerm):
        return args[term.index - 1]
    return term.value


def eval_guard(guard: Iterable[Atom], valuation: Sequence[int], args: Sequence[int]) -> bool:
    return all(
        (eval_term(a.left, valuation, args) == eval_term(a.right, valuation, args)) == a.equal
        for a in guard
    )


def apply_assignment(
    assignment: Assignment,
    valuation: Sequence[int],
    args: Sequence[int],
    pool: Sequence[int],
) -> set[tuple[int, ...]]:
    """All successor valuations, havocking unassigned registers over ``pool``.

    Assigned registers evaluate their terms against the old valuation, so
    swaps like ``x1 := x2, x2 := x1`` behave simultaneously.
    """
    fixed = {i: eval_term(term, valuation, args) for i, term in assignment.updates}
    free = [i for i in range(len(valuation)) if i not in fixed]
    out: set[tuple[int, ...]] = set()
    for choice in itertools.product(pool, repeat=len(free)):
        v = list(valuation)
        for i, value in fixed.items():
            v[i] = value
        for i, value in zip(free, choice):
            v[i] = value
        out.add(tuple(v))
    return out


def concrete_steps(
    ra: RegisterAutomaton, config: Configuration, pool: Sequence[int]
) -> Iterator[tuple[str, tuple[int, ...], Configuration]]:
    """Every labelled one-step successor: (action, arguments, next configuration).

    Action arguments and havocked values are drawn from ``pool``; transitions
    come in declaration order and arguments in ``itertools.product`` order.
    """
    for t in ra.transitions:
        if t.source != config.location:
            continue
        for args in itertools.product(pool, repeat=ra.action_arity(t.action)):
            if not eval_guard(t.guard, config.valuation, args):
                continue
            for val in apply_assignment(t.assignment, config.valuation, args, pool):
                yield t.action, args, Configuration(t.target, val)


def concrete_successors(
    ra: RegisterAutomaton, config: Configuration, pool: Sequence[int]
) -> set[Configuration]:
    """One-step successors with action arguments and havoc drawn from ``pool``."""
    return {c for _, _, c in concrete_steps(ra, config, pool)}


def check_run(
    ra: RegisterAutomaton,
    word: Sequence[tuple[str, Sequence[int]]],
    run: Sequence[Configuration],
) -> bool:
    """Whether ``run`` is a run of ``ra`` over ``word``.

    ``word`` is a sequence of ``(action, args)`` pairs and ``run`` must be
    one configuration longer, starting in the initial location.  A step is
    valid when some transition matches the action, its guard holds, every
    assigned register takes its term's value, and havocked registers take
    whatever the next configuration says.
    """
    if len(run) != len(word) + 1:
        raise ValueError("need exactly one more configuration than word letters")
    for c in run:
        if c.location not in ra.locations:
            raise ValueError(f"unknown location {c.location!r}")
        if len(c.valuation) != ra.num_registers:
            raise ValueError("valuation length does not match register count")
    if run[0].location != ra.initial:
        return False
    for (action, args), before, after in zip(word, run, run[1:]):
        args = tuple(args)
        if len(args) != ra.action_arity(action):
            raise ValueError(f"action {action!r} takes {ra.action_arity(action)} arguments")
        if not any(
            t.source == before.location
            and t.target == after.location
            and t.action == action
            and eval_guard(t.guard, before.valuation, args)
            and all(
                after.valuation[i] == eval_term(term, before.valuation, args)
                for i, term in t.assignment.updates
            )
            for t in ra.transitions
        ):
            return False
    return True


def sufficient_pool(ra: RegisterAutomaton) -> tuple[int, ...]:
    """A finite value pool that exhausts the automaton's behaviours.

    Any step can be mimicked, up to (dis)equality with registers and
    constants, using the declared constants plus ``num_registers +
    max-arity + 1`` fresh values: enough for all registers and action
    arguments to be pairwise distinct and still leave one value to spare.
    """
    fresh_needed = ra.num_registers + max((a.arity for a in ra.actions), default=0) + 1
    fresh: list[int] = []
    candidate = 0
    while len(fresh) < fresh_needed:
        if candidate not in ra.constants:
            fresh.append(candidate)
        candidate += 1
    return tuple(sorted(set(ra.constants) | set(fresh)))
