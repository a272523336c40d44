"""One-step successors and reachability over the finite quotient.

A class is exact: its row of the universe table (``matrices``) fixes which
registers share a value and which constant, if any, each shared value is.
So the table holds each class as a valuation (``UniverseTable.values``):
a register pinned to a constant holds it, and each unpinned block holds
its own negative marker, distinct from every other block and every
declared constant.  Only the action's parameters are unknown, and a guard
atom over such rows is a compare of two value columns.

A transition's step is one relational join (``_join``).  Each guard
equality naming a parameter is first solved for it by substitution, and
a parameter no assigned term then names is eliminated (``_solved``).  The
join starts from value rows over the constants the step names and the k
registers it reads, and extends them by one column per parameter left: a
new column takes a value already in the row, a declared constant the row
does not hold, or one fresh value, below every value in the row
(``_grow``).  A row is dropped as soon as every column of some guard
atom exists and the atom fails, and a column as soon as no later atom
and no assigned term reads it; rows of one start row that then agree on
the live columns, up to renaming of non-constant values, have the same
futures and are kept once.  So the
rows a stage holds per start row are bounded by the classes over its
live columns, not by the product of the column counts (``_plan``), and a
join whose bound times its start rows passes ``MAX_JOIN_ROWS`` is
refused before it runs.  Each surviving row's *image* is the values of
the assigned terms.  Registers outside the assignment are released and
may take any value, so the successors of a class are exactly the classes
whose sub-matrix over the q assigned registers is the class of one of
its images.

Both sides of the relation are positions in smaller universes: a class's
*read group* is its sub-matrix over the read registers, a position in
``universe_table(k, C)``, and its *target group* its sub-matrix over the
assigned registers, a position in ``universe_table(q, C)``.  One
projection code, the tables' own rank key (``matrices.class_keys``), finds
both, for the rows of the full table and for the images alike.
``quotient_graph`` refuses a graph of more than ``MAX_NODES`` nodes and
builds only the n-register table.  The first question that needs the
graph's kernels runs the join once per distinct step (guard and
assignment) over the whole k-register table, a chunk of read groups at a
time, and stores it as CSR rows from read groups to target groups
(``_Kernel``); kernels over one register set share one grouping of the
classes.  A question that observes only some registers needs only the
*live* ones (``live_registers``): those it observes, those a guard
reads, and every register copied into a live one.  Classes that agree on
them are bisimilar, so such a question runs on the graph of the machine
over the live registers alone (``QuotientGraph._projection``); an
answer over full classes is lifted back through ``UniverseTable.groups``,
one grouping per register set and graph (``QuotientGraph._groups``).

``successor_rows`` runs the join from a single class's marker valuation
(``classes.marker_valuation``) and generates the successors' marker
valuations instead (``post`` builds their matrices): each distinct image
class is extended to all n registers by the same column growth, one
released register at a time (``_extend``), so it needs no n-register
table.  It counts the extensions first by a closed form
(``classes.extension_count``) and refuses more than ``MAX_CLASSES``.
A set of nodes is one (locations × classes) boolean array, so the
branching-time operators run as one backward worklist over its location
rows, through each kernel's predecessors (``QuotientGraph._fixpoint``;
Clarke, Emerson & Sistla, TOPLAS 1986, over the partitioned relation of
Burch, Clarke & Long, "Symbolic model checking with partitioned
transition relations", 1991).  Reachability is one of them: a class is
reachable exactly when some initial-location node satisfies EF of it
(``reach``).
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Iterable, Iterator, Set
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from regmc.classes import (
    MAX_CLASSES,
    RepConfig,
    RepMatrix,
    check_universe_args,
    checked_universe_size,
    extension_count,
    is_class,
    marker_valuation,
    universe_size,
)
from regmc.core import (
    Assignment,
    Atom,
    ConstantTerm,
    ParameterTerm,
    RegisterAutomaton,
    RegisterTerm,
    Term,
    Transition,
)
from regmc.matrices import (
    UniverseTable,
    build_matrices,
    chunk_rows,
    class_keys,
    distinct,
    first_of_each,
    universe_table,
    value_dtype,
)

# One chunk of ``_build_kernel`` joins as many read groups as the plan
# bounds (``_Plan.rows``) under this many rows, or under half the table's
# class count on larger tables, so the rows stay within the per-class
# arrays the kernel stores.
_JOIN_ROWS = 1 << 16

# The most rows one transition's join may hold in all, over every start
# row, counted before it runs (``_Plan.rows``): a kernel build joins every
# read group, ``post`` one class.  Admits ``load(6)``'s kernel (877 read
# groups x 7016 rows) and ``load(9)``'s post (1275725 rows); refuses
# ``load(7)``'s kernel (4140 x 37260).
MAX_JOIN_ROWS = 1 << 25

# The most (location, class) nodes ``quotient_graph`` admits: one node set
# is a 32 MB mask at the limit.  Admits byzantine (126882 nodes) and ten
# registers with one constant over four locations (2714280).
MAX_NODES = 1 << 25


def _solved(t: Transition) -> tuple[list[Atom], list[Term]] | None:
    """``t``'s guard and assigned terms with every equality that names a
    parameter (the later one, of two) solved for it by substitution, or
    None when no valuation satisfies the guard.  A parameter no assigned
    term then names only has to exist, in disequalities alone: one fresh
    value per parameter meets them all, so they are dropped.  An atom
    comparing a term with itself is decided outright."""
    atoms, image = list(t.guard), [x for _, x in t.assignment.updates]
    while solved := [
        (k, x, y)
        for k, a in enumerate(atoms)
        if a.equal
        for x, y in ((a.left, a.right), (a.right, a.left))
        if isinstance(x, ParameterTerm)
        and not (isinstance(y, ParameterTerm) and y.index >= x.index)
    ]:
        k, x, y = solved[0]
        atoms = [
            Atom(y if a.left == x else a.left, y if a.right == x else a.right, a.equal)
            for j, a in enumerate(atoms)
            if j != k
        ]
        image = [y if z == x else z for z in image]
    if any(a.left == a.right and not a.equal for a in atoms):
        return None
    unstored = {x for a in atoms for x in (a.left, a.right) if isinstance(x, ParameterTerm)}
    unstored -= set(image)
    return [a for a in atoms if a.left != a.right and not {a.left, a.right} & unstored], image


class _Stage(NamedTuple):
    """One stage of a transition's join.

    ``atoms`` are the guard atoms checked once the stage has added its
    column (``_grow``), as column pairs that must match or differ; ``live``
    the columns kept after them, or None for all; with ``dedupe`` rows of
    one origin that agree on those columns, up to renaming of non-constant
    values, are kept once; ``rows`` is the most rows the stage holds per
    start row.
    """

    atoms: tuple[tuple[int, int, bool], ...]
    live: tuple[int, ...] | None
    dedupe: bool
    rows: int


class _Plan(NamedTuple):
    """A transition's join, stage by stage (``_Stage``).

    ``reads`` are the registers it reads, ascending; ``constants`` the
    declared constants its solved guard and assigned terms name, one
    leading column each; ``image`` the columns of the assigned terms after
    the last stage; ``rows`` the most rows the join holds per start row,
    bounded by the classes over the columns each stage keeps live.  Start rows times ``rows`` is checked against
    ``MAX_JOIN_ROWS`` before a join runs (``_check_join``).
    """

    reads: tuple[int, ...]
    constants: tuple[int, ...]
    stages: tuple[_Stage, ...]
    image: tuple[int, ...]
    rows: int


@lru_cache(maxsize=1024)
def _plan(t: Transition, constants: tuple[int, ...]) -> _Plan | None:
    """The join of ``t``, or None when its guard is unsatisfiable.

    The columns are the declared constants that the solved guard and
    assigned terms name (``_solved``), then the registers they read, then
    one column per parameter they name, added in index order by every
    stage but the first.  Each atom is checked at the first stage that has
    both its columns.  After that, a column that no later atom and no
    assigned term reads is dead and is dropped (early quantification:
    Burch, Clarke & Long 1991; Ranjan, Aziz, Brayton, Plessier & Pixley,
    IWLS 1995).  Rows of one origin that then agree on the live columns
    have the same futures, so they are kept once wherever that tightens
    the bound: a new column
    multiplies the rows by at most one plus the columns before it plus the
    declared constants no column holds (``_grow``), and the rows of one
    origin, once distinct, are at most the classes over the live columns
    that are not constants, with every declared constant
    (``universe_size``).
    """
    solved = _solved(t)
    if solved is None:
        return None
    guard, image = solved
    terms = [x for a in guard for x in (a.left, a.right)] + image
    reads = sorted({x.index for x in terms if isinstance(x, RegisterTerm)})
    params = sorted({x.index for x in terms if isinstance(x, ParameterTerm)})
    named = tuple(c for c in constants if ConstantTerm(c) in terms)
    m, k = len(constants), len(named)
    cols: list[Term] = [ConstantTerm(c) for c in named] + [RegisterTerm(r) for r in reads]
    checks: list[list[Atom]] = [[] for _ in range(len(params) + 1)]
    for a in guard:
        at = [params.index(x.index) + 1 for x in (a.left, a.right) if isinstance(x, ParameterTerm)]
        checks[max(at, default=0)].append(a)
    stages, kept, distinct_rows = [], 1, True
    for s, atoms in enumerate(checks):
        grown = kept
        if s:
            cols.append(ParameterTerm(params[s - 1]))
            grown *= len(cols) + m - k
        pairs = tuple((cols.index(a.left), cols.index(a.right), a.equal) for a in atoms)
        later = itertools.chain.from_iterable(checks[s + 1 :])
        needed = set(image).union(x for a in later for x in (a.left, a.right))
        live = [i for i, x in enumerate(cols) if i < k or x in needed]
        dropped = len(live) < len(cols)
        if dropped:
            cols = [cols[i] for i in live]
            distinct_rows = distinct_rows and grown == 1
        # the universe over w columns has at least 2^(w - 1) classes, so a
        # wide one bounds nothing that a join is let hold
        width = len(cols) - k
        classes = universe_size(width, m) if width <= min(grown.bit_length(), 32) else grown
        dedupe = not distinct_rows and classes < grown
        distinct_rows = distinct_rows or dedupe
        kept = min(grown, classes) if distinct_rows else grown
        stages.append(_Stage(pairs, tuple(live) if dropped else None, dedupe, grown))
    image_cols = tuple(cols.index(x) for x in image)
    return _Plan(tuple(reads), named, tuple(stages), image_cols, max(s.rows for s in stages))


def _grow(rows: np.ndarray, constants: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every way to add one column to ``rows``: a value the row holds, once
    each; one fresh value, below every value in ``rows``; or a declared
    constant the row does not hold.  Returns how many new rows each row
    makes, and the new rows in order."""
    width = rows.shape[1]
    pins = np.array(constants, dtype=rows.dtype)
    fresh = np.full((len(rows), 1), rows.min(initial=-1) - 1, dtype=rows.dtype)
    cand = np.concatenate((rows, fresh, np.broadcast_to(pins, (len(rows), len(pins)))), axis=1)
    first = np.ones(cand.shape, dtype=bool)
    for c in range(width):
        first[:, c] = ~(rows[:, :c] == rows[:, c : c + 1]).any(axis=1)
        first[:, width + 1 :] &= rows[:, c : c + 1] != pins
    counts = first.sum(axis=1)
    grown = np.repeat(cand[:, : width + 1], counts, axis=0)
    grown[:, width] = cand[first]
    return counts, grown


def _check_join(t: Transition, plan: _Plan, starts: int) -> None:
    """Raise ``ValueError`` when joining ``t`` from ``starts`` rows could
    hold more than ``MAX_JOIN_ROWS`` rows in all."""
    if starts * plan.rows > MAX_JOIN_ROWS:
        raise ValueError(
            f"the step {t.source} -> {t.target} on {t.action} joins up to "
            f"{starts * plan.rows} rows, past the {MAX_JOIN_ROWS} row limit"
        )


def _join(
    ra: RegisterAutomaton, plan: _Plan, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The firing rows of a transition over the classes ``start``, and their
    images.

    ``start`` holds one valuation per class over ``plan.reads``; the join
    puts the columns of ``plan.constants`` before them.  Each parameter
    adds a column (``_grow``), dead columns are dropped, and where the
    plan says so, rows are kept once per origin and class of the live
    columns: one int64 code per row, the rank of its class key
    (``class_keys``) among the stage's combined with its origin.  Returns,
    for every kept row that satisfies the guard, the index of the ``start``
    row it extends and the values of the assigned terms, in target order.
    The rows are held in the smallest integer type that holds every value
    they can take.
    """
    m = len(plan.constants)
    # each stage's fresh value is one below the least value before it
    dtype = value_dtype(len(plan.stages) - int(start.min(initial=0)), ra.constants)
    fixed = np.broadcast_to(np.array(plan.constants, dtype=dtype), (len(start), m))
    rows = np.column_stack((fixed, start.astype(dtype, copy=False)))
    origin = np.arange(len(start))
    for s, stage in enumerate(plan.stages):
        if s:
            counts, rows = _grow(rows, ra.constants)
            origin = np.repeat(origin, counts)
        keep = np.ones(len(rows), dtype=bool)
        for a, b, equal in stage.atoms:
            keep &= (rows[:, a] == rows[:, b]) == equal
        rows, origin = rows[keep], origin[keep]
        if stage.live is not None:
            rows = rows[:, stage.live]
        if stage.dedupe:
            keys = class_keys(rows[:, m:], ra.constants)
            ranks = distinct(keys)
            once = first_of_each(origin * len(ranks) + ranks.searchsorted(keys))
            rows, origin = rows[once], origin[once]
    return origin, rows[:, plan.image]


def _node_positions(
    ra: RegisterAutomaton, table: UniverseTable, configs: list[object]
) -> tuple[np.ndarray, np.ndarray]:
    """Each element's location index and universe position, by one batched
    ``positions`` lookup; both are -1 where the element is no node: not a
    ``RepConfig``, at an unknown location, or with a matrix that is not a
    class of ``table``."""
    index = {loc: i for i, loc in enumerate(ra.locations)}
    locs = np.full(len(configs), -1, dtype=np.intp)
    ks = np.full(len(configs), -1, dtype=np.intp)
    found = [
        i
        for i, c in enumerate(configs)
        if isinstance(c, RepConfig) and isinstance(c.matrix, RepMatrix) and c.location in index
    ]
    if found:
        ks[found] = table.positions([configs[i].matrix for i in found])
        locs[found] = [index[configs[i].location] for i in found]
    locs[ks < 0] = -1
    return locs, ks


def _not_a_node(ra: RegisterAutomaton, c: object) -> ValueError:
    if not isinstance(c, RepConfig):
        return ValueError(f"not a configuration: {c!r}")
    if c.location not in ra.locations:
        return ValueError(f"unknown location: {c.location}")
    return ValueError(
        f"matrix is not a consistent class over {ra.num_registers} registers "
        f"and constants {ra.constants}"
    )


def _check_node(ra: RegisterAutomaton, c: object) -> None:
    """Raise ``ValueError`` for invalid universe arguments
    (``check_universe_args``) or unless ``c`` is a node of ``ra``'s graph,
    without building any table."""
    check_universe_args(ra.num_registers, ra.constants)
    if not (
        isinstance(c, RepConfig)
        and isinstance(c.matrix, RepMatrix)
        and c.location in ra.locations
        and is_class(c.matrix, ra.num_registers, ra.constants)
    ):
        raise _not_a_node(ra, c)


def _image_classes(images: np.ndarray, dtype: np.dtype, constants: tuple[int, ...]) -> np.ndarray:
    """One marker row per distinct class among ``images``, in ``dtype``.

    A value that is no constant is negative, so it becomes ``-1`` minus the
    first column that holds it; rows of one class then coincide.
    """
    images = images[first_of_each(class_keys(images, constants))]
    same = images[:, :, None] == images[:, None, :]
    holder = same.argmax(axis=1) if images.size else images  # no argmax over no columns
    return np.where(images >= 0, images, -1 - holder).astype(dtype)


def _extension_count(images: np.ndarray, released: int, constants: tuple[int, ...]) -> int:
    """How many classes ``_extend`` makes of the marker rows ``images``."""
    if released > MAX_CLASSES.bit_length():
        return MAX_CLASSES + 1  # one class alone has at least 2^(released - 1)
    pinned = (images[:, :, None] == np.array(constants, dtype=images.dtype)).any(axis=1).sum(axis=1)
    blocks = (images == -1 - np.arange(images.shape[1])).sum(axis=1) + pinned
    return sum(
        extension_count(b, p, released, len(constants))
        for b, p in zip(blocks.tolist(), pinned.tolist())
    )


def _extend(
    images: np.ndarray, targets: list[int], n: int, constants: tuple[int, ...]
) -> np.ndarray:
    """The marker valuations over ``n`` registers whose sub-matrix over
    ``targets`` is the class of one of ``images``.

    Each released register in turn joins a block of the row, opens a new
    block, or takes a constant no register holds yet: it is one more
    column (``_grow``) behind the images.
    """
    rows = images
    released = [i for i in range(n) if i not in targets]
    for _ in released:
        rows = _grow(rows, constants)[1]
    out = np.empty((len(rows), n), dtype=rows.dtype)
    out[:, targets + released] = rows
    return out


def successor_rows(ra: RegisterAutomaton, c: RepConfig) -> list[tuple[str, np.ndarray]]:
    """The one-step successor classes of ``c``, as each firing transition's
    target location and the marker valuations of its successors.

    Every transition from ``c``'s location is joined from ``c``'s marker
    valuation (``marker_valuation``), and each distinct image class is
    extended to every register (``_extend``).  Two transitions may reach
    one class.  Raises ``ValueError`` for an unknown location, a matrix of
    the wrong size, an undeclared constant or an inconsistent matrix,
    before any join past ``MAX_JOIN_ROWS`` (``_check_join``), and, before
    any row is extended, when there would be more than ``MAX_CLASSES``
    successors.
    """
    n, constants = ra.num_registers, ra.constants
    _check_node(ra, c)
    plans = [(t, _plan(t, constants)) for t in ra.transitions if t.source == c.location]
    plans = [(t, plan) for t, plan in plans if plan is not None]
    for t, plan in plans:
        _check_join(t, plan, 1)
    valuation = np.array([marker_valuation(c.matrix)])
    steps = []
    for t, plan in plans:
        _, images = _join(ra, plan, valuation[:, plan.reads])
        if len(images):
            steps.append((t, _image_classes(images, value_dtype(n, constants), constants)))
    count = sum(
        _extension_count(images, n - images.shape[1], constants) for _, images in steps
    )
    if count > MAX_CLASSES:
        raise ValueError(
            f"{c.location} has more than {MAX_CLASSES} successor classes over {n} registers"
        )
    return [
        (t.target, _extend(images, [i for i, _ in t.assignment.updates], n, constants))
        for t, images in steps
    ]


def post(ra: RegisterAutomaton, c: RepConfig) -> set[RepConfig]:
    """All one-step successor classes of ``c`` (``successor_rows``)."""
    steps = successor_rows(ra, c)
    return {RepConfig(loc, m) for loc, rows in steps for m in build_matrices(rows, ra.constants)}


@dataclass(eq=False)
class _Kernel:
    """One transition's successor relation over universe indices, factored.

    Class ``u`` steps to class ``v`` exactly when the read group
    ``key_of[u]`` relates to the target group ``tkey_of[v]``; the relation
    is stored as CSR rows (``indptr``, ``indices``), one row of target
    groups per read group, empty when the group cannot fire.  A read group
    is a class's sub-matrix over the registers the transition reads
    (``_Plan.reads``), a target group its sub-matrix over the assigned
    registers, each named by its position in the universe over that many
    registers (the one class over none when there are none).  ``key_of``
    and ``tkey_of`` (``UniverseTable.groups``) are shared with every kernel
    of the same graph over the same registers.
    """

    key_of: np.ndarray
    tkey_of: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    num_targets: int

    def pre(self, target: np.ndarray) -> np.ndarray:
        """Classes with at least one successor inside ``target``."""
        hit = np.zeros(self.num_targets, dtype=bool)
        hit[self.tkey_of[target]] = True
        seen = np.concatenate(([0], np.cumsum(hit[self.indices])))
        return (seen[self.indptr[1:]] > seen[self.indptr[:-1]])[self.key_of]


def _sub_universe(width: int, constants: tuple[int, ...]) -> UniverseTable:
    """The universe over ``width`` registers.  Over none it has one class,
    the empty valuation, of key 0 (``class_keys`` of an empty row), which
    ``universe_table`` refuses to build."""
    if width:
        return universe_table(width, constants)
    return UniverseTable(np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int64), constants)


def _build_kernel(
    ra: RegisterAutomaton,
    t: Transition,
    table: UniverseTable,
    groups: Callable[[tuple[int, ...]], np.ndarray],
) -> _Kernel:
    """``t``'s relation over ``table``, by one join per chunk of read groups;
    ``groups`` gives the groupings (``table.groups`` or a cache of it).

    Raises ``ValueError`` before any join past ``MAX_JOIN_ROWS``
    (``_check_join``).  Every chunk holds the same number of read groups:
    as many as keep the join's bound (``_Plan.rows`` per group) under
    ``_JOIN_ROWS`` or half the table's class count, whichever is more.
    """
    plan = _plan(t, ra.constants)
    reads = () if plan is None else plan.reads
    targets = tuple(i for i, _ in t.assignment.updates)
    read_table = _sub_universe(len(reads), ra.constants)
    target_keys = _sub_universe(len(targets), ra.constants).key
    num_groups = len(read_table.key)
    pairs = [np.zeros(0, dtype=np.int64)]
    if plan is not None:
        _check_join(t, plan, num_groups)
        step = max(1, max(len(table.key) // 2, _JOIN_ROWS) // plan.rows)
        for lo in range(0, num_groups, step):
            origin, images = _join(ra, plan, read_table.values[lo : lo + step])
            found = np.searchsorted(target_keys, class_keys(images, ra.constants))
            pairs.append(distinct((lo + origin) * len(target_keys) + found))
    read, found = np.divmod(np.concatenate(pairs), len(target_keys))
    indptr = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(read, minlength=num_groups), out=indptr[1:])
    return _Kernel(groups(reads), groups(targets), indptr, found.astype(np.int32), len(target_keys))


def live_registers(ra: RegisterAutomaton, observed: Iterable[int]) -> tuple[int, ...]:
    """The least register set, ascending, that holds ``observed`` and every
    register a guard reads, and that holds ``y`` whenever an assignment
    ``x := y`` stores into a member ``x``.

    A step's effect on such a set depends only on the set, so classes that
    agree on it are bisimilar for every atom over ``observed`` (Yorav &
    Grumberg, "Static analysis for state-space reductions preserving
    temporal logics", FMSD 2004).
    """
    live = set(observed)
    live.update(
        x.index
        for t in ra.transitions
        for a in t.guard
        for x in (a.left, a.right)
        if isinstance(x, RegisterTerm)
    )
    copies = [
        (i, x.index)
        for t in ra.transitions
        for i, x in t.assignment.updates
        if isinstance(x, RegisterTerm)
    ]
    while True:
        grown = {y for x, y in copies if x in live} - live
        if not grown:
            return tuple(sorted(live))
        live |= grown


def _project(ra: RegisterAutomaton, live: tuple[int, ...]) -> RegisterAutomaton:
    """``ra`` over the registers ``live`` (``live_registers``) alone,
    renumbered in order, with every store into another register dropped."""
    new = {r: i for i, r in enumerate(live)}

    def term(x: Term) -> Term:
        return RegisterTerm(new[x.index]) if isinstance(x, RegisterTerm) else x

    def step(t: Transition) -> Transition:
        guard = tuple(Atom(term(a.left), term(a.right), a.equal) for a in t.guard)
        stores = tuple((new[i], term(x)) for i, x in t.assignment.updates if i in new)
        return dataclasses.replace(t, guard=guard, assignment=Assignment(stores))

    return dataclasses.replace(
        ra,
        registers=tuple(ra.registers[r] for r in live),
        transitions=tuple(map(step, ra.transitions)),
    )


@dataclass(eq=False)
class QuotientGraph:
    """The full abstract transition system of one automaton.

    Nodes are every (location, universe matrix) pair; edges are the
    one-step successor relation, held per transition as a factored
    relation between read groups and target groups (``_Kernel``), tagged
    with the positions of the transition's source and target locations.
    Transitions with one step (guard and assignment) share one kernel, and
    the kernels are built on first use (``_steps``).  A set of nodes is
    one (locations × classes) boolean array, rows in declaration order and
    columns in universe order, so a fixpoint round is one vectorized pass
    per kernel and location row (``_fixpoint``).  A question about a few
    registers runs on the graph of the registers live for it
    (``_projection``) instead.  A graph compares equal to itself alone.
    """

    ra: RegisterAutomaton
    table: UniverseTable
    # the graph of each proper live register set (``_projection``)
    _projections: dict[tuple[int, ...], QuotientGraph] = field(
        init=False, repr=False, default_factory=dict
    )

    @cached_property
    def _built(self) -> list[RepMatrix | None]:
        """Each class's matrix once ``_matrices_of`` has built it, else None;
        made on the first read, so a graph no view iterates holds none."""
        return [None] * len(self.table.key)

    @cached_property
    def _groups(self) -> Callable[[tuple[int, ...]], np.ndarray]:
        """``table.groups``, computed once per register set for the kernels
        and the lifts of this graph."""
        return lru_cache(maxsize=None)(self.table.groups)

    @cached_property
    def _steps(self) -> list[tuple[int, int, _Kernel]]:
        """Each transition's source and target location positions and
        kernel, built on the first read: one kernel per step, whatever its
        locations and action, and one grouping per register set."""
        kernels, steps = {}, []
        loc = self.ra.locations.index
        for t in self.ra.transitions:
            step = (t.guard, t.assignment)
            if step not in kernels:
                kernels[step] = _build_kernel(self.ra, t, self.table, self._groups)
            steps.append((loc(t.source), loc(t.target), kernels[step]))
        return steps

    def _projection(self, live: tuple[int, ...]) -> QuotientGraph:
        """The graph of ``ra`` over the registers ``live`` (``live_registers``,
        ``_project``), made once per set; over every register, this graph.
        A class's node in it is its group (``_groups(live)``)."""
        if len(live) == self.ra.num_registers:
            return self
        if live not in self._projections:
            self._projections[live] = quotient_graph(_project(self.ra, live))
        return self._projections[live]

    def _matrices_of(self, ks: np.ndarray) -> Iterator[list[RepMatrix]]:
        """The matrices of classes ``ks``, in order, one ``build_matrices``
        chunk (``chunk_rows``) at a time.  A class's matrix is built the
        first time a view reads it and is shared from then on."""
        built, ks = self._built, ks.tolist()
        step = chunk_rows(self.table.values.shape[1])
        for lo in range(0, len(ks), step):
            chunk = ks[lo : lo + step]
            missing = [k for k in chunk if built[k] is None]
            new = build_matrices(self.table.values[missing], self.table.constants)
            for k, m in zip(missing, new):
                built[k] = m
            yield [built[k] for k in chunk]

    @property
    def nodes(self) -> LabelSet:
        return LabelSet(self, ~self._empty_masks())

    # --- (locations × classes) arrays shared with the branching-time operators ---

    def _empty_masks(self) -> np.ndarray:
        return np.zeros((len(self.ra.locations), len(self.table.key)), dtype=bool)

    def _masks_of(self, configs: Iterable[RepConfig]) -> np.ndarray:
        """The masks of ``configs``, by one batched lookup; raises
        ``ValueError`` for the first element that is not a node."""
        configs = list(configs)
        locs, ks = _node_positions(self.ra, self.table, configs)
        bad = np.flatnonzero(locs < 0)
        if bad.size:
            raise _not_a_node(self.ra, configs[bad[0]])
        masks = self._empty_masks()
        masks[locs, ks] = True
        return masks

    def _ex_masks(self, target: np.ndarray) -> np.ndarray:
        """Sources with at least one successor inside ``target``."""
        out = self._empty_masks()
        for src, dst, ker in self._steps:
            out[src] |= ker.pre(target[dst])
        return out

    def _fixpoint(
        self, z: np.ndarray, update: Callable[[int, np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Replace each row ``r`` of ``z`` by ``update(r, x)`` until nothing
        changes, where ``x`` is row ``r`` of EX ``z`` (``_ex_masks``).

        Each transition's kernel runs on its target row and its last answer
        is kept: a round re-runs only the kernels whose target row changed
        in the last one, and updates only the source rows they feed.
        """
        steps = self._steps
        last = [None] * len(steps)
        dirty, touched = range(len(steps)), range(len(z))
        while True:
            for i in dirty:
                _, dst, ker = steps[i]
                last[i] = ker.pre(z[dst])
            changed = set()
            for r in touched:
                x = np.zeros(z.shape[1], dtype=bool)
                for i, (src, _, _) in enumerate(steps):
                    if src == r:
                        x |= last[i]
                new = update(r, x)
                if not np.array_equal(new, z[r]):
                    z[r] = new
                    changed.add(r)
            if not changed:
                return z
            dirty = [i for i, (_, dst, _) in enumerate(steps) if dst in changed]
            touched = {steps[i][0] for i in dirty}


class LabelSet(Set):
    """A read-only set of nodes of one quotient graph, held as its
    (locations × classes) boolean array (``masks``).

    Three primitives: ``len`` counts the array; ``in`` is one universe
    lookup, and anything that is not a node is simply not a member;
    iteration builds each ``RepConfig`` as it is reached, in location and
    universe order, over matrices the graph builds once
    (``QuotientGraph._matrices_of``).  The ``collections.abc.Set`` mixins
    derive every comparison and operator from them, and answer with a
    builtin ``frozenset`` (``_from_iterable``).  A mixin that tests each
    element of another set for membership here does one lookup per
    element, so a caller that compares large sets turns a view into a
    builtin set first.
    """

    __slots__ = ("_graph", "_masks")

    def __init__(self, graph: QuotientGraph, masks: np.ndarray) -> None:
        masks.flags.writeable = False  # frozen in place: hand over a fresh array
        self._graph, self._masks = graph, masks

    @property
    def graph(self) -> QuotientGraph:
        return self._graph

    @property
    def masks(self) -> np.ndarray:
        return self._masks

    def __len__(self) -> int:
        return int(np.count_nonzero(self._masks))

    def __contains__(self, x: object) -> bool:
        locs, ks = _node_positions(self._graph.ra, self._graph.table, [x])
        return bool(locs[0] >= 0 and self._masks[locs[0], ks[0]])

    def __iter__(self) -> Iterator[RepConfig]:
        graph = self._graph
        for loc, mask in zip(graph.ra.locations, self._masks):
            for matrices in graph._matrices_of(np.flatnonzero(mask)):
                for m in matrices:
                    yield RepConfig(loc, m)

    def __repr__(self) -> str:
        return f"<LabelSet: {len(self)} of {self._masks.size} nodes>"

    @classmethod
    def _from_iterable(cls, it: Iterable[object]) -> frozenset[object]:
        return frozenset(it)


def quotient_graph(ra: RegisterAutomaton) -> QuotientGraph:
    """Build the abstract transition system, once, for shared use.

    Builds the universe table only; each kernel is built when a question
    first needs it.  Raises ``ValueError`` before the table is built when
    there are more than ``MAX_CLASSES`` classes or ``MAX_NODES`` nodes.
    """
    classes = checked_universe_size(ra.num_registers, ra.constants)
    if len(ra.locations) * classes > MAX_NODES:
        raise ValueError(
            f"{len(ra.locations)} locations x {classes} classes exceed "
            f"the {MAX_NODES} node limit"
        )
    return QuotientGraph(ra, universe_table(ra.num_registers, ra.constants))


def reach(ra: RegisterAutomaton, target: RepConfig) -> bool:
    """Whether ``target`` is reachable from any initial-location class.

    Computes EF ``target``, the least fixpoint ``E[true U target]``, backward
    from the target's mask (``QuotientGraph._fixpoint``), and reads the
    initial location's row.  Each call builds its own graph and keeps
    nothing.  Raises ``ValueError`` unless ``target`` is a node of ``ra``'s
    graph (``_check_node``), and where ``quotient_graph`` or a kernel build
    refuses.
    """
    _check_node(ra, target)
    graph = quotient_graph(ra)
    start = graph._masks_of([target])
    ef = graph._fixpoint(start.copy(), lambda r, x: start[r] | x)
    return bool(ef[ra.locations.index(ra.initial)].any())

