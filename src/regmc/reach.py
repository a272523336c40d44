"""One-step successors and reachability over the finite quotient.

A class is exact: its row of the universe table (``matrices``) fixes which
registers share a value and which constant, if any, each shared value is.
So inside a class every register is a known value, and only the action's
parameters are unknown.  ``_step_conditions`` reads the row that way: a
register pinned to a constant holds it, and each unpinned block holds its
own negative marker value, distinct from every other block and every
declared constant.  The step formula is then just the guard over those
values and the parameters.  Its closure (see ``eqlogic``) forces a partial
skeleton on the updated registers, read off the assigned terms: which pairs
must match, which must differ, which diagonal constants are required or
ruled out.  Unforced entries (in particular whole rows of registers the
transition leaves unassigned, which may take any value) are free.  Each
forced entry is one column compare on the table: a match or mismatch
compares two block columns, a required or ruled-out constant compares a
label column.

``quotient_graph`` materializes the node set and stores each transition as
a partitioned relation between two groupings of the universe.  The forced
skeleton depends only on the sub-matrix over the registers the transition
reads, so matrices with one such *read key* share a single closure; and
the skeleton constrains only the sub-matrix over the assigned registers,
so the successor set of a read group is a union of *target-key* groups,
found by filtering one representative per target key; both groupings are
integer keys built from the same block and label columns.  A set of nodes
is one (locations × classes) boolean array, so reachability and the
branching-time operators run as a few numpy passes per transition (see
Burch, Clarke & Long, "Symbolic model checking with partitioned transition
relations", 1991).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from regmc import eqlogic
from regmc.core import ParameterTerm, RegisterAutomaton, RegisterTerm, Term, Transition
from regmc.eqlogic import Var, const, par
from regmc.matrices import ONE, RepConfig, RepMatrix, UniverseTable, universe, universe_table


def _guard_registers(t: Transition) -> set[int]:
    out = set()
    for a in t.guard:
        for term in (a.left, a.right):
            if isinstance(term, RegisterTerm):
                out.add(term.index)
    return out


def _source_registers(t: Transition) -> set[int]:
    return {
        term.index for _, term in t.assignment.updates if isinstance(term, RegisterTerm)
    }


def _step_conditions(
    ra: RegisterAutomaton, t: Transition, block_row: np.ndarray, label_row: np.ndarray
) -> list[tuple[str, int, int]] | None:
    """Forced successor-matrix entries for one transition from one class.

    The class is its universe-table row (``block_row``, ``label_row``), read
    as a valuation: a register pinned to constant ``c`` holds ``c``, and one
    in unpinned block ``b`` holds ``-1 - b``, a negative value and so never
    a declared constant.  The step formula is then the guard alone, over
    those values and the action's parameters.  Returns None when it is
    unsatisfiable (the transition cannot fire from this class).  Otherwise
    each condition constrains one entry, read off the assigned terms:
    ``eq``/``ne`` fix whether two updated registers are related,
    ``pin``/``avoid`` fix a diagonal against a declared constant.
    Registers outside the assignment are unconstrained.
    """

    def var(term: Term) -> Var:
        if isinstance(term, RegisterTerm):
            lab = int(label_row[term.index])
            return const(-1 - int(block_row[term.index]) if lab == ONE else lab)
        if isinstance(term, ParameterTerm):
            return par(term.index)
        return const(term.value)

    clo = eqlogic.closure(
        eqlogic.system(eqlogic.Atom(var(a.left), var(a.right), a.equal) for a in t.guard)
    )
    if clo is None:
        return None
    updates = t.assignment.updates
    conds: list[tuple[str, int, int]] = []
    for pos, (i, term) in enumerate(updates):
        v = var(term)
        pinned = clo.constant_of(v)
        if pinned in ra.constants:
            conds.append(("pin", i, pinned))
        else:
            conds += [("avoid", i, c) for c in ra.constants if clo.disequal(v, const(c))]
        for j, other in updates[pos + 1 :]:
            if clo.equal(v, var(other)):
                conds.append(("eq", i, j))
            elif clo.disequal(v, var(other)):
                conds.append(("ne", i, j))
    return conds


def _filter_universe(
    block: np.ndarray, label: np.ndarray, conds: list[tuple[str, int, int]]
) -> np.ndarray:
    """Rows of a universe table (``block``, ``label``) meeting every condition."""
    mask = np.ones(len(block), dtype=bool)
    for kind, i, v in conds:
        if kind == "eq":
            mask &= block[:, i] == block[:, v]
        elif kind == "ne":
            mask &= block[:, i] != block[:, v]
        elif kind == "pin":
            mask &= label[:, i] == v
        else:
            mask &= label[:, i] != v
    return mask


def _classes_of(ra: RegisterAutomaton, table: UniverseTable, configs: list[RepConfig]) -> list[int]:
    """The universe positions of the configurations' matrices.

    Raises ``ValueError`` for an unknown location or a matrix that is not a
    class: of the wrong size, with an undeclared constant, or inconsistent.
    """
    for c in configs:
        if c.location not in ra.locations:
            raise ValueError(f"unknown location: {c.location}")
    ks = table.positions([c.matrix for c in configs]).tolist()
    if -1 in ks:
        raise ValueError(
            f"matrix is not a consistent class over {ra.num_registers} registers "
            f"and constants {ra.constants}"
        )
    return ks


def post(ra: RegisterAutomaton, c: RepConfig) -> set[RepConfig]:
    """All one-step successor classes of ``c``.

    Raises ``ValueError`` for an unknown location, a matrix of the wrong
    size, an undeclared constant, or an inconsistent matrix.
    """
    table = universe_table(ra.num_registers, ra.constants)
    [k] = _classes_of(ra, table, [c])
    out: set[RepConfig] = set()
    for t in ra.transitions:
        if t.source != c.location:
            continue
        conds = _step_conditions(ra, t, table.block[k], table.label[k])
        if conds is None:
            continue
        hits = np.nonzero(_filter_universe(table.block, table.label, conds))[0]
        out.update(RepConfig(t.target, m) for m in table.iter_matrices(hits))
    return out


def _group_keys(
    block: np.ndarray, label: np.ndarray, regs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a universe table by their sub-matrix over ``regs``.

    Returns each row's dense group id and the first row of every group.
    The sub-matrix is fixed by, for each listed register, the position of
    the first listed register in its block and its diagonal label; each
    register adds that pair as one integer column, and re-ranking after
    every column keeps the running code below the row count.
    """
    key = np.zeros(len(block), dtype=np.int64)
    for p, r in enumerate(regs):
        first = np.argmax(block[:, regs[: p + 1]] == block[:, [r]], axis=1)
        labels, lab = np.unique(label[:, r], return_inverse=True)
        width = (p + 1) * len(labels)
        key = key * width + first * len(labels) + lab.reshape(-1)
        _, key = np.unique(key, return_inverse=True)
        key = key.reshape(-1)
    _, first_rows, key = np.unique(key, return_index=True, return_inverse=True)
    return key.reshape(-1).astype(np.int32), first_rows


def _is_full_identity(ra: RegisterAutomaton, t: Transition) -> bool:
    upd = t.assignment.updates
    return len(upd) == ra.num_registers and all(
        tgt == i and isinstance(term, RegisterTerm) and term.index == i
        for i, (tgt, term) in enumerate(upd)
    )


@dataclass
class _Kernel:
    """One transition's successor relation over universe indices, factored.

    Class ``u`` steps to class ``v`` exactly when the read group
    ``key_of[u]`` relates to the target group ``tkey_of[v]``; the relation
    is stored as CSR rows (``indptr``, ``indices``), one row of target
    groups per read group, empty when the group cannot fire.  A read group
    collects the classes with one sub-matrix over the registers the guard
    and the assignment read, a target group those with one sub-matrix over
    the assigned registers.  A transition that keeps every register is the
    diagonal case: every class is its own read and target group, and its
    row holds itself wherever the guard is satisfiable.
    """

    key_of: np.ndarray
    tkey_of: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    num_targets: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_targets = int(self.tkey_of.max()) + 1

    def successor_indices(self, u: int) -> np.ndarray:
        g = self.key_of[u]
        hit = np.zeros(self.num_targets, dtype=bool)
        hit[self.indices[self.indptr[g] : self.indptr[g + 1]]] = True
        return np.nonzero(hit[self.tkey_of])[0]

    def pre(self, target: np.ndarray) -> np.ndarray:
        """Classes with at least one successor inside ``target``."""
        hit = np.zeros(self.num_targets, dtype=bool)
        hit[self.tkey_of[target]] = True
        seen = np.concatenate(([0], np.cumsum(hit[self.indices])))
        return (seen[self.indptr[1:]] > seen[self.indptr[:-1]])[self.key_of]

    def image(self, source: np.ndarray) -> np.ndarray:
        """Classes with at least one predecessor inside ``source``."""
        active = np.zeros(len(self.indptr) - 1, dtype=bool)
        active[self.key_of[source]] = True
        hit = np.zeros(self.num_targets, dtype=bool)
        hit[self.indices[np.repeat(active, np.diff(self.indptr))]] = True
        return hit[self.tkey_of]


def _build_kernel(ra: RegisterAutomaton, t: Transition, table: UniverseTable) -> _Kernel:
    block, label = table.block, table.label
    if _is_full_identity(ra, t):
        guard_of, reps = _group_keys(block, label, sorted(_guard_registers(t)))
        fires = np.array(
            [_step_conditions(ra, t, block[r], label[r]) is not None for r in reps], dtype=bool
        )[guard_of]
        every = np.arange(len(block), dtype=np.int32)
        indptr = np.zeros(len(block) + 1, dtype=np.int64)
        np.cumsum(fires, out=indptr[1:])
        return _Kernel(every, every, indptr, every[fires])
    key_of, reps = _group_keys(block, label, sorted(_guard_registers(t) | _source_registers(t)))
    tkey_of, treps = _group_keys(block, label, sorted(t.assignment.targets()))
    rows = []
    for r in reps:
        conds = _step_conditions(ra, t, block[r], label[r])
        if conds is None:
            rows.append(np.zeros(0, dtype=np.int32))
        else:
            rows.append(np.nonzero(_filter_universe(block[treps], label[treps], conds))[0])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return _Kernel(key_of, tkey_of, indptr, np.concatenate(rows).astype(np.int32))


@dataclass
class QuotientGraph:
    """The full abstract transition system of one automaton.

    Nodes are every (location, universe matrix) pair; edges are the
    one-step successor relation, held per transition as a factored
    relation between read groups and target groups (``_Kernel``), tagged
    with the positions of the transition's source and target locations.
    A set of nodes is one (locations × classes) boolean array, rows in
    declaration order and columns in universe order, so the whole-graph
    fixpoints run as one vectorized pass per transition.
    """

    ra: RegisterAutomaton
    table: UniverseTable
    _steps: list[tuple[int, int, _Kernel]]

    @property
    def matrices(self) -> tuple[RepMatrix, ...]:
        return universe(self.ra.num_registers, self.ra.constants)

    @property
    def nodes(self) -> set[RepConfig]:
        return {RepConfig(l, m) for l in self.ra.locations for m in self.matrices}

    def edges(self, node: RepConfig) -> set[RepConfig]:
        [u] = _classes_of(self.ra, self.table, [node])
        loc = self.ra.locations.index(node.location)
        return {
            RepConfig(self.ra.locations[dst], self.matrices[k])
            for src, dst, ker in self._steps
            if src == loc
            for k in ker.successor_indices(u)
        }

    def _location_index(self, location: str) -> int:
        if location not in self.ra.locations:
            raise ValueError(f"unknown location: {location}")
        return self.ra.locations.index(location)

    # --- (locations × classes) arrays shared with the branching-time operators ---

    def _empty_masks(self) -> np.ndarray:
        return np.zeros((len(self.ra.locations), len(self.table.key)), dtype=bool)

    def _masks_of(self, configs: Iterable[RepConfig]) -> np.ndarray:
        configs = list(configs)
        ks = _classes_of(self.ra, self.table, configs)
        locs = [self.ra.locations.index(c.location) for c in configs]
        masks = self._empty_masks()
        masks[np.array(locs, dtype=np.intp), np.array(ks, dtype=np.intp)] = True
        return masks

    def _labelset(self, masks: np.ndarray) -> set[RepConfig]:
        mats = self.matrices
        return {
            RepConfig(l, mats[k])
            for l, mask in zip(self.ra.locations, masks)
            for k in np.flatnonzero(mask).tolist()
        }

    def _ex_masks(self, target: np.ndarray) -> np.ndarray:
        """Sources with at least one successor inside ``target``."""
        out = self._empty_masks()
        for src, dst, ker in self._steps:
            out[src] |= ker.pre(target[dst])
        return out

    def _reachable_masks(self) -> np.ndarray:
        reached = self._empty_masks()
        reached[self._location_index(self.ra.initial)] = True
        changed = True
        while changed:
            changed = False
            for src, dst, ker in self._steps:
                add = ker.image(reached[src]) & ~reached[dst]
                if add.any():
                    reached[dst] |= add
                    changed = True
        return reached


def quotient_graph(ra: RegisterAutomaton) -> QuotientGraph:
    """Build the abstract transition system, once, for shared use."""
    table = universe_table(ra.num_registers, ra.constants)
    loc = ra.locations.index
    return QuotientGraph(
        ra,
        table,
        [(loc(t.source), loc(t.target), _build_kernel(ra, t, table)) for t in ra.transitions],
    )


def reach(ra: RegisterAutomaton, target: RepConfig) -> bool:
    """Whether ``target`` is reachable from any initial-location class."""
    [u] = _classes_of(ra, universe_table(ra.num_registers, ra.constants), [target])
    graph = quotient_graph(ra)
    return bool(graph._reachable_masks()[ra.locations.index(target.location), u])


def reachable_set(ra: RegisterAutomaton) -> set[RepConfig]:
    """Least set of classes containing every initial one and closed under post."""
    graph = quotient_graph(ra)
    return graph._labelset(graph._reachable_masks())
