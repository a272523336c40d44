"""Register automata over an infinite alphabet, and their concrete semantics.

A machine reads actions carrying tuples of naturals, compares them against a
finite set of registers and declared constants using (dis)equality guards,
and updates registers by simultaneous assignment.  Registers left out of a
step's assignment are *havocked*: the step relation lets them take any value
whatsoever.  Because of that, concrete enumeration is always parameterised
by an explicit finite pool of values; ``sufficient_pool`` returns one large
enough that every behaviour distinguishable by (dis)equality already shows
up inside it.  ``concrete_steps`` lists every step over a pool, which costs
pool^arity tuples and more; ``sample_step`` draws one without listing any.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections.abc import Container, Iterable, Iterator, Sequence, Set
from dataclasses import dataclass


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
        """Raises ``ValueError`` for an undeclared action."""
        arity = self._arity.get(name)  # type: ignore[attr-defined]
        if arity is None:
            raise ValueError(f"unknown action {name!r}")
        return arity


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


def _extends(
    guard: Sequence[Atom], valuation: Sequence[int], args: Sequence[int], pool: Container[int]
) -> bool:
    """Whether the guard's equalities, closed over its terms, leave it
    satisfiable with the first ``len(args)`` parameters set to ``args``.

    The closure fails when it equates two distinct values, puts both sides
    of a disequality in one class, or forces a parameter still unset to a
    value outside ``pool``.  Every extension of ``args`` to a satisfying
    tuple passes, so the test never prunes a solution.  It is exact when
    every parameter is set, and also whenever the pool leaves each
    parameter-only class its own value outside every value in the closure.
    """
    parent: dict[object, object] = {}

    def find(x: object) -> object:
        while x in parent:
            x = parent[x]
        return x

    def node(term: Term) -> object:
        if isinstance(term, ParameterTerm) and term.index > len(args):
            return term
        return eval_term(term, valuation, args)

    for a in guard:
        if a.equal:
            x, y = find(node(a.left)), find(node(a.right))
            if x != y:
                if isinstance(x, int) and isinstance(y, int):
                    return False
                if isinstance(x, int):
                    x, y = y, x
                parent[x] = y  # a value stays the root of its class
    if any(find(node(a.left)) == find(node(a.right)) for a in guard if not a.equal):
        return False
    roots = [find(x) for x in parent if isinstance(x, ParameterTerm)]
    return all(not isinstance(r, int) or r in pool for r in roots)


class ValuePool(Sequence[int]):
    """The distinct values ``base``, in order, then the ``extra`` naturals
    just above the largest of them (or from 0 when ``base`` is empty).

    A pool widened by many fresh values (``regmc simulate --pool-size``) is
    described, not listed: length, item access, membership and ``index``
    are arithmetic over the range part, so a step costs the same at any
    width.  A negative ``extra``, or one that makes the length pass
    ``sys.maxsize`` (where ``len`` stops working), is refused with
    ``ValueError``.
    """

    def __init__(self, base: Iterable[int], extra: int = 0):
        self.base = tuple(base)
        if extra < 0:
            raise ValueError(f"extra must be nonnegative, not {extra}")
        if extra > sys.maxsize - len(self.base):
            raise ValueError(f"extra must be at most {sys.maxsize - len(self.base)}")
        self._where = {v: i for i, v in enumerate(self.base)}
        start = max(self.base) + 1 if self.base else 0
        self.extra = range(start, start + extra)

    def __len__(self) -> int:
        return len(self.base) + len(self.extra)

    def __getitem__(self, i: int) -> int:  # type: ignore[override]
        if not -len(self) <= i < len(self):
            raise IndexError("pool index out of range")
        i %= len(self)
        return self.base[i] if i < len(self.base) else self.extra[i - len(self.base)]

    def __iter__(self) -> Iterator[int]:
        return itertools.chain(self.base, self.extra)

    def __contains__(self, value: object) -> bool:
        return value in self._where or value in self.extra

    def index(self, value: int) -> int:  # type: ignore[override]
        """The position of ``value``; ``ValueError`` outside the pool."""
        if value in self._where:
            return self._where[value]
        return len(self.base) + self.extra.index(value)


def _fresh_value(pool: ValuePool, taken: Set[int], rng: random.Random) -> int | None:
    """A pool value outside ``taken``, uniformly, or None when there is
    none: a uniform index among the rest, stepped past the taken values'
    positions."""
    skip = sorted(pool.index(v) for v in taken if v in pool)
    if len(skip) == len(pool):
        return None
    k = rng.randrange(len(pool) - len(skip))
    for at in skip:
        if at > k:
            break
        k += 1
    return pool[k]


def _sample_args(
    ra: RegisterAutomaton,
    t: Transition,
    valuation: Sequence[int],
    pool: ValuePool,
    rng: random.Random,
) -> tuple[int, ...] | None:
    """Arguments from ``pool`` that satisfy ``t``'s guard, drawn one
    parameter at a time, or None when there are none.

    Parameter k is drawn from the pool values a register holds, the
    declared constants, parameters 1 … k-1, and one pool value outside all
    of those: any satisfying tuple maps onto such a one by a bijection of
    the other pool values, which no guard can tell apart.  Candidates are
    tried in random order and kept when ``_extends`` passes, backtracking
    over the candidates only.
    """
    known = {v for v in (*valuation, *ra.constants) if v in pool}
    if not _extends(t.guard, valuation, (), pool):
        return None

    def candidates(args: list[int]) -> list[int]:
        taken = known.union(args)
        out = sorted(taken)
        fresh = _fresh_value(pool, taken, rng)
        if fresh is not None:
            out.append(fresh)
        rng.shuffle(out)
        return out

    arity = ra.action_arity(t.action)
    args: list[int] = []
    options = [candidates(args)] if arity else []
    while len(args) < arity:
        if not options[-1]:
            options.pop()
            if not args:
                return None
            args.pop()
        else:
            value = options[-1].pop()
            if _extends(t.guard, valuation, [*args, value], pool):
                args.append(value)
                if len(args) < arity:
                    options.append(candidates(args))
    return tuple(args)


def sample_step(
    ra: RegisterAutomaton, config: Configuration, pool: Sequence[int], rng: random.Random
) -> tuple[str, tuple[int, ...], Configuration] | None:
    """One labelled step drawn from ``concrete_steps(ra, config, pool)``, or
    None exactly when that yields nothing.

    The transition is uniform among the enabled ones.  Its parameters are
    drawn in order, each uniformly among the candidates of ``_sample_args``
    that still let the guard hold; each released register takes a uniform
    pool value.  No tuple of the pool is ever enumerated: with a pool at
    least ``sufficient_pool``'s size a parameter never backtracks, and the
    work is polynomial in the registers and the arity.  ``pool`` holds
    distinct values; a ``ValuePool`` is never copied, so the work does not
    grow with its width.
    """
    if not isinstance(pool, ValuePool):
        pool = ValuePool(pool)
    outgoing = [t for t in ra.transitions if t.source == config.location]
    rng.shuffle(outgoing)
    for t in outgoing:
        targets = t.assignment.targets()
        released = [i for i in range(ra.num_registers) if i not in targets]
        if released and not pool:
            continue
        args = _sample_args(ra, t, config.valuation, pool, rng)
        if args is None:
            continue
        valuation = list(config.valuation)
        for i, term in t.assignment.updates:
            valuation[i] = eval_term(term, config.valuation, args)
        for i in released:
            valuation[i] = rng.choice(pool)
        return t.action, args, Configuration(t.target, tuple(valuation))
    return None


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
