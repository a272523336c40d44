"""Brute-force references the library is judged against.

Nothing here shares successor or fixpoint machinery with the package:
graphs come from enumerating concrete steps over an explicit value pool,
the CTL labeling is the textbook explicit-state one over materialized
edge sets (predecessor worklist for until, iterative pruning for EG), and
the universe listing is the class-at-a-time recursive enumeration that
``matrices.universe_table`` replaces with array passes.  A quotient
graph's edges are read one node at a time off its kernels' stored rows
(``edges``), never through the vector passes the fixpoints run.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from regmc.classes import ONE, ZERO, RepConfig, RepMatrix, canonical_valuation, matrix_of_valuation
from regmc.core import Configuration, RegisterAutomaton, concrete_steps
from regmc.formulas import EG, EU, EX, And, AtLocation, Not, RegEq, RegEqConst
from regmc.reach import LabelSet, QuotientGraph


def equivalent(u: Sequence[int], v: Sequence[int], constants: Sequence[int]) -> bool:
    """Whether some constant-fixing bijection of the alphabet maps u onto v.

    Holds exactly when both valuations share their equality pattern and
    agree wherever either touches a declared constant; equivalently, when
    their matrices coincide — the checks here are deliberately the direct
    ones so tests can play them against ``matrix_of_valuation``.
    """
    if len(u) != len(v):
        raise ValueError("valuations must have equal length")
    cset = set(constants)
    for i in range(len(u)):
        if (u[i] in cset or v[i] in cset) and u[i] != v[i]:
            return False
        for j in range(i + 1, len(u)):
            if (u[i] == u[j]) != (v[i] == v[j]):
                return False
    return True


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of ``range(n)`` as restricted growth strings, lexicographic."""
    s = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(s)
            return
        for b in range(mx + 2):
            s[i] = b
            yield from rec(i + 1, max(mx, b))

    return rec(1, 0)


def _block_labelings(k: int, constants: tuple[int, ...]) -> Iterator[tuple[int | None, ...]]:
    """Ways to pin blocks to constants: None = no constant, injectively otherwise."""
    for labels in itertools.product((None, *constants), repeat=k):
        pinned = [c for c in labels if c is not None]
        if len(set(pinned)) == len(pinned):
            yield labels


def enumerate_universe(
    n: int, constants: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, list[RepMatrix]]:
    """The universe one class at a time: block and label columns, and matrices.

    Partitions in growth-string order, each with its pinnings, None before
    the constants in declared order; every matrix goes through the
    validating ``RepMatrix`` constructor.
    """
    matrices: list[RepMatrix] = []
    blocks: list[tuple[int, ...]] = []
    labels: list[list[int]] = []
    for rgs in _growth_strings(n):
        members = [[b == r for r in rgs] for b in range(max(rgs) + 1)]
        for pins in _block_labelings(len(members), constants):
            diag = [ONE if c is None else c for c in pins]
            rows = [tuple(d if m else ZERO for m in ms) for ms, d in zip(members, diag)]
            matrices.append(RepMatrix(tuple(rows[b] for b in rgs)))
            blocks.append(rgs)
            labels.append([diag[b] for b in rgs])
    return (
        np.array(blocks, dtype=np.int8).reshape(-1, n),
        np.array(labels, dtype=np.int64).reshape(-1, n),
        matrices,
    )


@dataclass
class OracleGraph:
    """A finite graph with explicit nodes and materialized successor sets."""

    nodes: set
    edge_map: dict

    def edges(self, n):
        return self.edge_map[n]


def edges(graph: QuotientGraph, node: RepConfig) -> set[RepConfig]:
    """The successors of one node of a quotient graph, read off each
    outgoing kernel's CSR row: the node's read group ``key_of[k]`` relates
    to the target groups ``indices[indptr[g]:indptr[g + 1]]``, and every
    class whose ``tkey_of`` is one of them is a successor.  Raises
    ``ValueError`` when ``node`` is not a node of ``graph``."""
    (loc, k), = np.argwhere(graph._masks_of([node]))
    out = graph._empty_masks()
    for src, dst, ker in graph._steps:
        if src == loc:
            g = ker.key_of[k]
            out[dst] |= np.isin(ker.tkey_of, ker.indices[ker.indptr[g] : ker.indptr[g + 1]])
    return set(LabelSet(graph, out))


def reachable(graph: QuotientGraph) -> set[RepConfig]:
    """The nodes of a quotient graph reachable from an initial-location
    node, by a forward search over ``edges``."""
    seen = {c for c in graph.nodes if c.location == graph.ra.initial}
    frontier = list(seen)
    while frontier:
        for nxt in edges(graph, frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_pool(ra: RegisterAutomaton, pool) -> None:
    max_arity = max((a.arity for a in ra.actions), default=0)
    fresh = set(pool) - set(ra.constants)
    if not set(ra.constants) <= set(pool):
        raise ValueError("pool must contain every constant")
    if len(fresh) < ra.num_registers + max_arity + 1:
        raise ValueError(
            f"pool has {len(fresh)} non-constant values, "
            f"need at least {ra.num_registers + max_arity + 1}"
        )


def concrete_successors(ra: RegisterAutomaton, config: Configuration, pool) -> set[Configuration]:
    """One-step successors over ``pool``: ``concrete_steps`` without the labels."""
    return {c for _, _, c in concrete_steps(ra, config, pool)}


def concrete_graph(ra: RegisterAutomaton, pool) -> OracleGraph:
    """Every concrete configuration over the pool, with one-step edges."""
    check_pool(ra, pool)
    nodes = {
        Configuration(l, v)
        for l in ra.locations
        for v in itertools.product(pool, repeat=ra.num_registers)
    }
    return OracleGraph(nodes, {c: concrete_successors(ra, c, pool) for c in nodes})


def concrete_quotient(ra: RegisterAutomaton, pool) -> OracleGraph:
    """The concrete graph with every configuration collapsed to its class."""
    cg = concrete_graph(ra, pool)
    classes = {
        c: RepConfig(c.location, matrix_of_valuation(c.valuation, ra.constants))
        for c in cg.nodes
    }
    edge_map = defaultdict(set)
    for c in cg.nodes:
        edge_map[classes[c]].update(classes[s] for s in cg.edge_map[c])
    return OracleGraph(set(classes.values()), dict(edge_map))


def concrete_post_of(ra: RegisterAutomaton, config: RepConfig, pool) -> set[RepConfig]:
    """Successor classes seen from one canonical concrete representative."""
    check_pool(ra, pool)
    w = canonical_valuation(config.matrix, ra.constants)
    return {
        RepConfig(s.location, matrix_of_valuation(s.valuation, ra.constants))
        for s in concrete_successors(ra, Configuration(config.location, w), pool)
    }


def _atom_holds(node, f) -> bool:
    concrete = isinstance(node, Configuration)
    if isinstance(f, AtLocation):
        return node.location == f.location
    if isinstance(f, RegEq):
        if concrete:
            return node.valuation[f.i] == node.valuation[f.j]
        return node.matrix.entry(f.i, f.j) != ZERO
    if concrete:
        return node.valuation[f.i] == f.c
    return node.matrix.entry(f.i, f.i) == f.c


def explicit_ctl(graph, f) -> set:
    """Textbook explicit-state CTL labeling over any finite graph.

    Works over concrete graphs (valuation nodes) and quotient graphs
    (matrix nodes, their successors read by ``edges``) alike; atoms read
    whichever representation the node carries.
    """
    nodes = set(graph.nodes)
    successors = graph.edges if isinstance(graph, OracleGraph) else functools.partial(edges, graph)
    succ = {n: set(successors(n)) for n in nodes}
    preds = defaultdict(set)
    for n, succs in succ.items():
        for m in succs:
            preds[m].add(n)

    def sat(g) -> set:
        if isinstance(g, (AtLocation, RegEq, RegEqConst)):
            return {n for n in nodes if _atom_holds(n, g)}
        if isinstance(g, Not):
            return nodes - sat(g.f)
        if isinstance(g, And):
            return sat(g.f0) & sat(g.f1)
        if isinstance(g, EX):
            s = sat(g.f)
            return {n for n in nodes if succ[n] & s}
        if isinstance(g, EU):
            s0, s1 = sat(g.f0), sat(g.f1)
            result = set(s1)
            frontier = list(s1)
            while frontier:
                m = frontier.pop()
                for n in preds[m]:
                    if n in s0 and n not in result:
                        result.add(n)
                        frontier.append(n)
            return result
        if isinstance(g, EG):
            u = sat(g.f)
            while True:
                drop = [n for n in u if not (succ[n] & u)]
                if not drop:
                    return u
                u -= set(drop)
        raise ValueError(f"not a formula: {g!r}")

    return sat(f)
