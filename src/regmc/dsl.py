"""Textual formats for automata, branching-time formulas, and configurations.

Automaton files are line-oriented: a ``format 1`` header, then ``constants``
/ ``registers`` / ``actions`` / ``locations`` declarations (one line each,
declarations before any transition), then one ``trans`` line per transition::

    trans l0 -> l1 on alpha(p1, p2) when p1 != p2 do x1 := p1, x2 := p2

``when true`` stands for the empty guard and ``do -`` for the empty
assignment.  ``#`` starts a comment anywhere on a line.  The starred
location is initial.

Formulas use ``@loc`` for location atoms, ``=`` between registers and
declared constants, the connectives ``!``, ``&``, ``|``, ``->``, the
temporal operators ``EX EF EG AX AF AG`` and ``E [ f U g ]``; ``!`` and
the prefix operators bind tightest, then ``&``, then ``|``, then the
right-associative ``->``.  Derived operators expand on the spot, so the
parsed tree is over the core connectives only.  A formula may nest at most
``ctl.MAX_FORMULA_DEPTH`` levels, counted both on that tree and on the
brackets of the text (parentheses, ``E [ … ]`` and ``->`` chains); deeper
input is a ``ParseError``.  The serializer refuses a deeper formula built
in Python with ``ValueError``, and writes at most one bracket per tree
level, so every accepted formula round-trips.

A representative configuration is a location plus the partition of the
registers into equality classes, constants attached to their class::

    l1 | {x1=2} {x2}

Registers omitted from the class list sit alone in fresh unpinned classes;
the serializer always writes every class out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from regmc import ctl
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
from regmc.ctl import (
    EG, EU, EX, MAX_FORMULA_DEPTH, And, AtLocation, CtlFormula, Not, RegEq, RegEqConst,
)
from regmc.matrices import ONE, ZERO, RepConfig, RepMatrix


@dataclass(frozen=True)
class SourceSpan:
    """A position in the input: 1-based line and column, 0-based offset."""

    line: int
    column: int
    offset: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.span = span
        self.message = message
        self.expected = tuple(expected)


_RESERVED = frozenset(
    "format constants registers actions locations trans on when do true false "
    "E U EX EU EG EF AX AF AG".split()
)

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>!=|:=|->|[=!&|()\[\]{}@,*/-])"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num", "name", "op", "nl", "eof"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        span = SourceSpan(line, pos - line_start + 1, pos)
        if m is None:
            raise ParseError(span, f"unexpected character {text[pos]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "nl":
            toks.append(_Tok("nl", "\n", span))
            line += 1
            line_start = pos
            continue
        toks.append(_Tok(kind, m.group(), span))
    end = SourceSpan(line, pos - line_start + 1, max(0, len(text) - 1))
    toks.append(_Tok("eof", "", end))
    return toks


class _Cursor:
    """A token stream with one-token lookahead and span-carrying failures."""

    def __init__(self, toks: list[_Tok]):
        self._toks = toks
        self._i = 0

    def peek(self) -> _Tok:
        return self._toks[self._i]

    def next(self) -> _Tok:
        t = self._toks[self._i]
        if t.kind != "eof":
            self._i += 1
        return t

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    def eat_op(self, text: str) -> bool:
        if self.at_op(text):
            self.next()
            return True
        return False

    def expect_op(self, text: str) -> _Tok:
        t = self.peek()
        if t.kind != "op" or t.text != text:
            raise ParseError(t.span, f"expected {text!r}", (text,))
        return self.next()

    def expect_name(self, what: str = "name") -> _Tok:
        t = self.peek()
        if t.kind != "name":
            raise ParseError(t.span, f"expected {what}", (what,))
        return self.next()

    def expect_num(self, what: str = "number") -> _Tok:
        t = self.peek()
        if t.kind != "num":
            raise ParseError(t.span, f"expected {what}", (what,))
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind == "nl":
            self.next()

    def expect_end_of_line(self) -> None:
        t = self.peek()
        if t.kind not in ("nl", "eof"):
            raise ParseError(t.span, f"unexpected {t.text!r} at end of line")


_PARAM_RE = re.compile(r"^p([1-9][0-9]*)$")


def _check_fresh_name(tok: _Tok, taken: dict[str, str]) -> None:
    name = tok.text
    if name in _RESERVED:
        raise ParseError(tok.span, f"{name!r} is a reserved word")
    if _PARAM_RE.match(name):
        raise ParseError(tok.span, f"{name!r} is reserved for action parameters")
    if name in taken:
        raise ParseError(tok.span, f"{name!r} already names a {taken[name]}")


def parse_automaton(text: str) -> RegisterAutomaton:
    cur = _Cursor(_tokenize(text))
    cur.skip_newlines()
    head = cur.peek()
    if not (head.kind == "name" and head.text == "format"):
        raise ParseError(head.span, "expected 'format 1' header", ("format",))
    cur.next()
    version = cur.expect_num("format version")
    if version.text != "1":
        raise ParseError(version.span, f"unsupported format version {version.text}")
    cur.expect_end_of_line()

    constants: list[int] | None = None
    registers: list[str] | None = None
    actions: list[Action] | None = None
    locations: list[str] | None = None
    initial: str | None = None
    transitions: list[Transition] = []
    names: dict[str, str] = {}

    def declared(section: str, value) -> None:
        if value is not None:
            raise ParseError(cur.peek().span, f"duplicate {section} declaration")

    while True:
        cur.skip_newlines()
        tok = cur.peek()
        if tok.kind == "eof":
            break
        if tok.kind != "name":
            raise ParseError(tok.span, "expected a declaration or transition")
        keyword = tok.text
        cur.next()
        if keyword == "constants":
            declared("constants", constants)
            constants = []
            while cur.peek().kind == "num":
                value = int(cur.next().text)
                if value in constants:
                    raise ParseError(tok.span, f"constant {value} declared twice")
                constants.append(value)
            cur.expect_end_of_line()
        elif keyword == "registers":
            declared("registers", registers)
            registers = []
            while cur.peek().kind == "name":
                name_tok = cur.next()
                _check_fresh_name(name_tok, names)
                names[name_tok.text] = "register"
                registers.append(name_tok.text)
            if not registers:
                raise ParseError(cur.peek().span, "expected at least one register name")
            cur.expect_end_of_line()
        elif keyword == "actions":
            declared("actions", actions)
            actions = []
            while cur.peek().kind == "name":
                name_tok = cur.next()
                _check_fresh_name(name_tok, names)
                names[name_tok.text] = "action"
                cur.expect_op("/")
                arity = cur.expect_num("arity")
                actions.append(Action(name_tok.text, int(arity.text)))
            if not actions:
                raise ParseError(cur.peek().span, "expected at least one action")
            cur.expect_end_of_line()
        elif keyword == "locations":
            declared("locations", locations)
            locations = []
            while cur.peek().kind == "name":
                name_tok = cur.next()
                _check_fresh_name(name_tok, names)
                names[name_tok.text] = "location"
                locations.append(name_tok.text)
                if cur.eat_op("*"):
                    if initial is not None:
                        raise ParseError(name_tok.span, "two locations are starred")
                    initial = name_tok.text
            if not locations:
                raise ParseError(cur.peek().span, "expected at least one location")
            if initial is None:
                raise ParseError(tok.span, "no location is starred as initial")
            cur.expect_end_of_line()
        elif keyword == "trans":
            if registers is None or actions is None or locations is None:
                raise ParseError(tok.span, "transitions must follow the declarations")
            transitions.append(
                _parse_transition(
                    cur, constants or [], registers, actions, locations
                )
            )
        else:
            raise ParseError(tok.span, f"unknown section {keyword!r}")

    end = cur.peek().span
    if registers is None:
        raise ParseError(end, "missing registers declaration")
    if actions is None:
        raise ParseError(end, "missing actions declaration")
    if locations is None:
        raise ParseError(end, "missing locations declaration")
    return RegisterAutomaton(
        constants=tuple(constants or []),
        registers=tuple(registers),
        actions=tuple(actions),
        locations=tuple(locations),
        initial=initial,
        transitions=tuple(transitions),
    )


def _parse_transition(
    cur: _Cursor,
    constants: list[int],
    registers: list[str],
    actions: list[Action],
    locations: list[str],
) -> Transition:
    def location(tok: _Tok) -> str:
        if tok.text not in locations:
            raise ParseError(tok.span, f"unknown location {tok.text!r}")
        return tok.text

    src = location(cur.expect_name("source location"))
    cur.expect_op("->")
    dst = location(cur.expect_name("target location"))

    on = cur.expect_name("'on'")
    if on.text != "on":
        raise ParseError(on.span, "expected 'on'", ("on",))
    act_tok = cur.expect_name("action name")
    action = next((a for a in actions if a.name == act_tok.text), None)
    if action is None:
        raise ParseError(act_tok.span, f"unknown action {act_tok.text!r}")
    cur.expect_op("(")
    for k in range(1, action.arity + 1):
        if k > 1:
            cur.expect_op(",")
        p = cur.expect_name("parameter")
        if p.text != f"p{k}":
            raise ParseError(
                p.span, f"parameter {k} of {action.name}/{action.arity} must be p{k}"
            )
    close = cur.peek()
    if not cur.eat_op(")"):
        raise ParseError(
            close.span, f"{action.name} takes {action.arity} parameters", (")",)
        )

    def term(tok: _Tok) -> Term:
        if tok.kind == "num":
            value = int(tok.text)
            if value not in constants:
                raise ParseError(tok.span, f"{value} is not a declared constant")
            return ConstantTerm(value)
        if tok.kind != "name":
            raise ParseError(tok.span, "expected a register, parameter, or constant")
        m = _PARAM_RE.match(tok.text)
        if m:
            k = int(m.group(1))
            if k > action.arity:
                raise ParseError(
                    tok.span,
                    f"parameter {tok.text} exceeds the arity of {action.name}/{action.arity}",
                )
            return ParameterTerm(k)
        if tok.text in registers:
            return RegisterTerm(registers.index(tok.text))
        raise ParseError(tok.span, f"unknown register {tok.text!r}")

    when = cur.expect_name("'when'")
    if when.text != "when":
        raise ParseError(when.span, "expected 'when'", ("when",))
    guard: list[Atom] = []
    first = cur.peek()
    if first.kind == "name" and first.text == "true":
        cur.next()
    else:
        while True:
            left = term(cur.next())
            op = cur.peek()
            if op.kind == "op" and op.text in ("=", "!="):
                cur.next()
            else:
                raise ParseError(op.span, "expected '=' or '!='", ("=", "!="))
            right = term(cur.next())
            guard.append(Atom(left, right, op.text == "="))
            if not cur.eat_op("&"):
                break

    do = cur.expect_name("'do'")
    if do.text != "do":
        raise ParseError(do.span, "expected 'do'", ("do",))
    updates: list[tuple[int, Term]] = []
    if cur.eat_op("-"):
        pass
    else:
        while True:
            tgt = cur.expect_name("register")
            if tgt.text not in registers:
                raise ParseError(tgt.span, f"unknown register {tgt.text!r}")
            index = registers.index(tgt.text)
            if any(i == index for i, _ in updates):
                raise ParseError(tgt.span, f"register {tgt.text!r} assigned twice")
            cur.expect_op(":=")
            updates.append((index, term(cur.next())))
            if not cur.eat_op(","):
                break
    cur.expect_end_of_line()
    return Transition(src, action.name, tuple(guard), Assignment(tuple(updates)), dst)


# --- formulas ---

def parse_formula(text: str, ra: RegisterAutomaton) -> CtlFormula:
    cur = _Cursor(_tokenize(text))
    cur.skip_newlines()
    first = cur.peek()
    f = _formula(cur, ra, 1)
    cur.skip_newlines()
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise ParseError(trailing.span, f"unexpected {trailing.text!r} after the formula")
    if ctl.formula_depth(f) > MAX_FORMULA_DEPTH:
        raise ParseError(first.span, f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
    return f


def _formula(cur: _Cursor, ra: RegisterAutomaton, brackets: int) -> CtlFormula:
    """One formula, ``brackets`` deep in parentheses, ``E [`` and ``->``."""
    if brackets > MAX_FORMULA_DEPTH:
        raise ParseError(cur.peek().span, f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
    left = _or_level(cur, ra, brackets)
    if cur.eat_op("->"):
        return ctl.implies(left, _formula(cur, ra, brackets + 1))
    return left


def _or_level(cur: _Cursor, ra: RegisterAutomaton, brackets: int) -> CtlFormula:
    out = _and_level(cur, ra, brackets)
    while cur.eat_op("|"):
        out = ctl.or_(out, _and_level(cur, ra, brackets))
    return out


def _and_level(cur: _Cursor, ra: RegisterAutomaton, brackets: int) -> CtlFormula:
    out = _unary(cur, ra, brackets)
    while cur.eat_op("&"):
        out = And(out, _unary(cur, ra, brackets))
    return out


_PREFIX = {
    "EX": EX,
    "EG": EG,
    "EF": ctl.ef,
    "AX": ctl.ax,
    "AF": ctl.af,
    "AG": ctl.ag,
}


def _unary(cur: _Cursor, ra: RegisterAutomaton, brackets: int) -> CtlFormula:
    # prefix operators are collected in a loop, not by recursion, so a long
    # run of them is refused by the depth check instead of overflowing
    wraps = []
    while True:
        tok = cur.peek()
        if cur.eat_op("!"):
            wraps.append(Not)
        elif tok.kind == "name" and tok.text in _PREFIX:
            cur.next()
            wraps.append(_PREFIX[tok.text])
        else:
            break
    out = _operand(cur, ra, brackets)
    for wrap in reversed(wraps):
        out = wrap(out)
    return out


def _operand(cur: _Cursor, ra: RegisterAutomaton, brackets: int) -> CtlFormula:
    tok = cur.peek()
    if cur.eat_op("("):
        inner = _formula(cur, ra, brackets + 1)
        cur.expect_op(")")
        return inner
    if cur.eat_op("@"):
        loc = cur.expect_name("location")
        if loc.text not in ra.locations:
            raise ParseError(loc.span, f"unknown location {loc.text!r}")
        return AtLocation(loc.text)
    if tok.kind == "name":
        if tok.text == "E":
            cur.next()
            cur.expect_op("[")
            f0 = _formula(cur, ra, brackets + 1)
            u = cur.expect_name("'U'")
            if u.text != "U":
                raise ParseError(u.span, "expected 'U'", ("U",))
            f1 = _formula(cur, ra, brackets + 1)
            cur.expect_op("]")
            return EU(f0, f1)
        if tok.text == "true":
            cur.next()
            return ctl.TRUE
        if tok.text == "false":
            cur.next()
            return ctl.FALSE
    return _atom(cur, ra)


def _atom(cur: _Cursor, ra: RegisterAutomaton) -> CtlFormula:
    def side(tok: _Tok) -> tuple[str, int]:
        if tok.kind == "num":
            value = int(tok.text)
            if value not in ra.constants:
                raise ParseError(tok.span, f"{value} is not a declared constant")
            return ("const", value)
        if tok.kind == "name" and tok.text in ra.registers:
            return ("reg", ra.registers.index(tok.text))
        raise ParseError(tok.span, "expected a register or declared constant")

    first = cur.peek()
    lhs = side(cur.next())
    eq = cur.peek()
    if not cur.eat_op("="):
        raise ParseError(eq.span, "expected '='", ("=",))
    rhs = side(cur.next())
    if lhs[0] == "reg" and rhs[0] == "reg":
        return RegEq(lhs[1], rhs[1])
    if lhs[0] == "reg":
        return RegEqConst(lhs[1], rhs[1])
    if rhs[0] == "reg":
        return RegEqConst(rhs[1], lhs[1])
    raise ParseError(first.span, "an atom must mention a register")


# --- representative configurations ---


def parse_repconfig(text: str, ra: RegisterAutomaton) -> RepConfig:
    cur = _Cursor(_tokenize(text))
    cur.skip_newlines()
    loc = cur.expect_name("location")
    if loc.text not in ra.locations:
        raise ParseError(loc.span, f"unknown location {loc.text!r}")
    cur.expect_op("|")
    matrix = _parse_classes(cur, ra.registers, ra.constants)
    cur.skip_newlines()
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise ParseError(trailing.span, f"unexpected {trailing.text!r} after the classes")
    return RepConfig(loc.text, matrix)


def _parse_classes(
    cur: _Cursor, registers: tuple[str, ...], constants: tuple[int, ...]
) -> RepMatrix:
    n = len(registers)
    klass_of: dict[int, int] = {}
    pinned: dict[int, int] = {}
    classes: list[list[int]] = []
    while cur.at_op("{"):
        open_tok = cur.next()
        members: list[int] = []
        constant: int | None = None
        while cur.peek().kind == "name":
            name_tok = cur.next()
            if name_tok.text not in registers:
                raise ParseError(name_tok.span, f"unknown register {name_tok.text!r}")
            i = registers.index(name_tok.text)
            if i in klass_of:
                raise ParseError(
                    name_tok.span, f"register {name_tok.text!r} appears in two classes"
                )
            klass_of[i] = len(classes)
            members.append(i)
            if cur.eat_op("="):
                num = cur.expect_num("constant")
                value = int(num.text)
                if value not in constants:
                    raise ParseError(num.span, f"{value} is not a declared constant")
                if constant is not None and constant != value:
                    raise ParseError(num.span, "two constants in one class")
                constant = value
        if not members:
            raise ParseError(open_tok.span, "empty class")
        cur.expect_op("}")
        if constant is not None:
            if constant in pinned.values():
                raise ParseError(
                    open_tok.span, f"constant {constant} pins two separate classes"
                )
            pinned[len(classes)] = constant
        classes.append(members)
    if not classes and cur.peek().kind not in ("eof", "nl"):
        raise ParseError(cur.peek().span, "expected '{'", ("{",))
    for i in range(n):
        if i not in klass_of:
            klass_of[i] = len(classes)
            classes.append([i])
    rows = tuple(
        tuple(
            (pinned.get(klass_of[i], ONE) if klass_of[i] == klass_of[j] else ZERO)
            for j in range(n)
        )
        for i in range(n)
    )
    return RepMatrix(rows)


def parse_classes(text: str, registers: tuple[str, ...], constants: tuple[int, ...]) -> RepMatrix:
    """A bare class list (no location), as printed by the universe listing."""
    cur = _Cursor(_tokenize(text))
    cur.skip_newlines()
    matrix = _parse_classes(cur, registers, constants)
    cur.skip_newlines()
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise ParseError(trailing.span, f"unexpected {trailing.text!r} after the classes")
    return matrix


def classes_text(matrix: RepMatrix, registers: tuple[str, ...]) -> str:
    """Render a matrix as its equality classes, every class written out."""
    n = matrix.n
    seen: set[int] = set()
    parts: list[str] = []
    for i in range(n):
        if i in seen:
            continue
        members = [j for j in range(n) if matrix.entry(i, j) != ZERO]
        seen.update(members)
        constant = matrix.entry(i, i)
        if constant == ONE:
            parts.append("{" + " ".join(registers[j] for j in members) + "}")
        else:
            parts.append(
                "{" + " ".join(f"{registers[j]}={constant}" for j in members) + "}"
            )
    return " ".join(parts)


# --- serialization ---


def serialize(
    value: RegisterAutomaton | CtlFormula | RepConfig,
    ra: RegisterAutomaton | None = None,
) -> str:
    """Render a value in the concrete syntax its parser accepts.

    Formulas and configurations print register and location names, so those
    two kinds need the automaton they belong to.  A formula nested deeper
    than ``MAX_FORMULA_DEPTH`` raises ``ValueError``.
    """
    if isinstance(value, RegisterAutomaton):
        return _automaton_text(value)
    if isinstance(value, RepConfig):
        if ra is None:
            raise ValueError("serializing a configuration needs the automaton")
        return f"{value.location} | {classes_text(value.matrix, ra.registers)}"
    if isinstance(
        value, (AtLocation, RegEq, RegEqConst, Not, And, EX, EU, EG)
    ):
        if ra is None:
            raise ValueError("serializing a formula needs the automaton")
        ctl.check_depth(value)
        return _formula_text(value, ra)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _term_text(t: Term, registers: tuple[str, ...]) -> str:
    if isinstance(t, RegisterTerm):
        return registers[t.index]
    if isinstance(t, ParameterTerm):
        return f"p{t.index}"
    return str(t.value)


def _automaton_text(ra: RegisterAutomaton) -> str:
    lines = ["format 1"]
    if ra.constants:
        lines.append("constants " + " ".join(str(c) for c in ra.constants))
    lines.append("registers " + " ".join(ra.registers))
    lines.append("actions " + " ".join(f"{a.name}/{a.arity}" for a in ra.actions))
    lines.append(
        "locations "
        + " ".join(l + ("*" if l == ra.initial else "") for l in ra.locations)
    )
    for t in ra.transitions:
        arity = ra.action_arity(t.action)
        params = ", ".join(f"p{k}" for k in range(1, arity + 1))
        guard = (
            " & ".join(
                f"{_term_text(a.left, ra.registers)} "
                f"{'=' if a.equal else '!='} "
                f"{_term_text(a.right, ra.registers)}"
                for a in t.guard
            )
            or "true"
        )
        assign = (
            ", ".join(
                f"{ra.registers[i]} := {_term_text(term, ra.registers)}"
                for i, term in t.assignment.updates
            )
            or "-"
        )
        lines.append(
            f"trans {t.source} -> {t.target} on {t.action}({params}) "
            f"when {guard} do {assign}"
        )
    return "\n".join(lines) + "\n"


def _formula_text(f: CtlFormula, ra: RegisterAutomaton) -> str:
    def atomish(g: CtlFormula) -> str:
        if isinstance(g, (AtLocation, RegEq, RegEqConst, EU)):
            return _formula_text(g, ra)
        return "(" + _formula_text(g, ra) + ")"

    if isinstance(f, AtLocation):
        return f"@{f.location}"
    if isinstance(f, RegEq):
        return f"{ra.registers[f.i]} = {ra.registers[f.j]}"
    if isinstance(f, RegEqConst):
        return f"{ra.registers[f.i]} = {f.c}"
    if isinstance(f, Not):
        return "! " + atomish(f.f)
    if isinstance(f, And):
        return atomish(f.f0) + " & " + atomish(f.f1)
    if isinstance(f, EX):
        return "EX " + atomish(f.f)
    if isinstance(f, EG):
        return "EG " + atomish(f.f)
    if isinstance(f, EU):
        return (
            "E [ "
            + _formula_text(f.f0, ra)
            + " U "
            + _formula_text(f.f1, ra)
            + " ]"
        )
    raise TypeError(f"cannot serialize {type(f).__name__}")
