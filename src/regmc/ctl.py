"""Branching-time (CTL) property checking over the quotient graph.

The formulas (``formulas``, which also defines the derived operators
such as ``ef`` and ``ag``) speak about locations and register
(dis)equalities, exactly the observations the finite quotient preserves,
with next (EX), until (EU) and always-on-some-path (EG) as the core
temporal operators.  Satisfaction sets are computed by the standard
labeling recursion: atoms compare the value columns of the universe table
(``matrices.universe_table``), EU is a least fixpoint of
``Z ↦ f₁ ∪ (f₀ ∩ EX Z)``, EG a greatest fixpoint of ``Z ↦ f ∩ EX Z``
started at the full labeling of ``f``.  Both run as one worklist over
location rows (``QuotientGraph._fixpoint``): a round re-runs a transition
kernel only where its input row changed in the round before, so the work
follows the rows that change rather than rounds × transitions.  A class
satisfies a formula exactly when every valuation in it does, so answers
transfer verbatim to the infinite concrete system; the test suite checks
this against an explicit-state checker over bounded concrete graphs.

Every question labels a formula on the graph of the registers live for it
(``reach.live_registers``): its atoms are checked against the full
machine, and it is renamed onto that smaller graph and labelled there.
Classes that agree on the live registers are bisimilar (Yorav &
Grumberg, FMSD 2004), so the answer is the full graph's; a byzantine
formula over ``D1`` and ``D2`` is labelled on 877 classes per location
instead of 21147.  ``check`` builds that graph alone: every full class
extends a projected one, so all initial classes satisfy the formula when
all projected ones do, and a class is a member when its marker
valuation's columns over the live registers are, found by their key.
``compute_ctl`` lifts to full classes by one gather through the graph's
grouping.  ``compute_ctl``, ``model_check`` and ``check`` are the public
entry points, and ``_eval`` is the one labelling path under all three.

A set of configurations is one (locations × classes) boolean array, rows
in declaration order and columns in universe order, so NOT, AND and the
fixpoint steps are plain array expressions, with results memoized per
structurally-equal subformula.  ``compute_ctl`` answers with a read-only
``LabelSet`` view over that array, which counts and tests membership
without building a configuration, and builds each one only as iteration
reaches it.  Evaluation walks each distinct node once
(``formulas.postorder``), so a formula that shares its subterms costs
time in its size, not in its unfolded tree.  Each entry still refuses
formulas nested deeper than ``formulas.MAX_FORMULA_DEPTH`` with
``ValueError``, the limit the parser and the serializer keep.
"""

from __future__ import annotations

import numpy as np

from regmc.classes import RepConfig, marker_valuation
from regmc.core import RegisterAutomaton
from regmc.formulas import (
    EG,
    EU,
    EX,
    And,
    AtLocation,
    CtlFormula,
    Not,
    RegEq,
    RegEqConst,
    check_atom,
    check_depth,
    children,
    postorder,
)
from regmc.matrices import class_keys
from regmc.reach import (
    LabelSet, QuotientGraph, _check_node, _project, live_registers, quotient_graph,
)


def _ap_masks(graph: QuotientGraph, atom: CtlFormula) -> np.ndarray:
    check_atom(graph.ra, atom)
    if isinstance(atom, AtLocation):
        masks = graph._empty_masks()
        masks[graph.ra.locations.index(atom.location)] = True
        return masks
    if isinstance(atom, RegEq):
        row = graph.table.values[:, atom.i] == graph.table.values[:, atom.j]
    else:
        row = graph.table.values[:, atom.i] == atom.c
    return np.repeat(row[None, :], len(graph.ra.locations), axis=0)


def _eu_masks(graph: QuotientGraph, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    return graph._fixpoint(m1.copy(), lambda r, ex: m1[r] | (m0[r] & ex))


def _eg_masks(graph: QuotientGraph, s: np.ndarray) -> np.ndarray:
    return graph._fixpoint(s.copy(), lambda r, ex: s[r] & ex)


def _apply(graph: QuotientGraph, f: CtlFormula, args: list[np.ndarray]) -> np.ndarray:
    """The masks of ``f`` given the masks of its children."""
    if isinstance(f, (AtLocation, RegEq, RegEqConst)):
        return _ap_masks(graph, f)
    if isinstance(f, Not):
        return ~args[0]
    if isinstance(f, And):
        return args[0] & args[1]
    if isinstance(f, EX):
        return graph._ex_masks(args[0])
    if isinstance(f, EU):
        return _eu_masks(graph, args[0], args[1])
    if isinstance(f, EG):
        return _eg_masks(graph, args[0])
    raise ValueError(f"not a formula: {f!r}")


def _eval(graph: QuotientGraph, f: CtlFormula) -> np.ndarray:
    """The masks of ``f``, computed once per structurally distinct subformula.

    A node's key is its type and its children's keys (an atom is its own
    key), so equal subformulas share one result without the formulas'
    recursive hashing.
    """
    key_of: dict[int, int] = {}
    keys: dict[object, int] = {}
    sats: list[np.ndarray] = []
    for g in postorder(f):
        kids = [key_of[id(k)] for k in children(g)]
        sig = (type(g), *kids) if kids else g
        if sig not in keys:
            keys[sig] = len(sats)
            sats.append(_apply(graph, g, [sats[k] for k in kids]))
        key_of[id(g)] = keys[sig]
    return sats[key_of[id(f)]]


def _projected(ra: RegisterAutomaton, f: CtlFormula) -> tuple[tuple[int, ...], CtlFormula]:
    """The registers ``f`` is labelled over, and ``f`` renamed onto the
    machine over them (``reach._project``).

    ``f``'s depth, and every atom against ``ra`` itself, are checked first.
    The projection keeps the registers live for the ones ``f`` observes
    (``reach.live_registers``), or for register 0 when it observes none:
    an automaton has at least one register.  An atom ``i = i`` observes
    nothing and becomes ``0 = 0``.
    """
    check_depth(f)
    nodes = postorder(f)
    observed: set[int] = set()
    for g in nodes:
        if isinstance(g, (AtLocation, RegEq, RegEqConst)):
            check_atom(ra, g)
        elif not isinstance(g, (Not, And, EX, EU, EG)):
            raise ValueError(f"not a formula: {g!r}")
        if isinstance(g, RegEq) and g.i != g.j:
            observed |= {g.i, g.j}
        elif isinstance(g, RegEqConst):
            observed.add(g.i)
    live = live_registers(ra, observed) or live_registers(ra, (0,))
    new = {r: i for i, r in enumerate(live)}
    renamed: dict[int, CtlFormula] = {}
    for g in nodes:
        if isinstance(g, RegEq):
            h = RegEq(new[g.i], new[g.j]) if g.i != g.j else RegEq(0, 0)
        elif isinstance(g, RegEqConst):
            h = RegEqConst(new[g.i], g.c)
        elif isinstance(g, AtLocation):
            h = g
        else:
            h = type(g)(*(renamed[id(k)] for k in children(g)))
        renamed[id(g)] = h
    return live, renamed[id(f)]


def _holds(sub: QuotientGraph, g: CtlFormula) -> bool:
    """Whether every initial-location class of ``sub`` satisfies ``g``."""
    return bool(_eval(sub, g)[sub.ra.locations.index(sub.ra.initial)].all())


def compute_ctl(graph: QuotientGraph, f: CtlFormula) -> LabelSet:
    """All configurations satisfying ``f``: labelled on the graph of the
    registers live for ``f`` (``_projected``) and lifted by one gather."""
    live, g = _projected(graph.ra, f)
    return LabelSet(graph, _eval(graph._projection(live), g)[:, graph._groups(live)])


def model_check(graph: QuotientGraph, f: CtlFormula) -> bool:
    """Whether every initial-location configuration satisfies ``f``."""
    live, g = _projected(graph.ra, f)
    return _holds(graph._projection(live), g)


def check(ra: RegisterAutomaton, f: CtlFormula, config: RepConfig | None = None) -> bool:
    """``model_check`` of ``f``, or ``config in compute_ctl``, on the graph of
    the registers live for ``f`` alone; ``ValueError`` past its size limits.
    ``config``'s node there is its marker valuation (``marker_valuation``)
    over the live registers, found by its key (``class_keys``)."""
    if config is not None:
        _check_node(ra, config)
    live, g = _projected(ra, f)
    sub = quotient_graph(_project(ra, live))
    if config is None:
        return _holds(sub, g)
    part = np.array([marker_valuation(config.matrix)])[:, live]
    k = sub.table.key.searchsorted(class_keys(part, ra.constants))[0]
    return bool(_eval(sub, g)[ra.locations.index(config.location), k])
