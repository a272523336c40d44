"""Write ``record.json`` and the small CLI machines: the benchmark's answer key.

The machines and questions come from fixed generator seeds below, and the
answers from the library at the commit that runs this script.  The engine
those answers come from is differentially tested against
``regmc.reference`` and the brute-force oracles of the test suite, which is
why a record made once can serve as the check for later commits.  Re-run
only to change the question pools, and say so in the change:

    PYTHONPATH=src python3 perfbench/make_record.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from regmc import dsl
from regmc.ctl import compute_ctl, model_check
from regmc.matrices import RepConfig, universe
from regmc.reach import post, quotient_graph
from workloads import HERE, RECORD, cli_answer, post_answer

ROOT = HERE.parent

# --- ring-ctl: a ring of locations over 6 registers and the constant 0 ---

RING_REGISTERS = ("a", "b", "c", "d", "e", "f")
RING_LOCATIONS = 8
RING_FORMULAS = 16
RING_MEMBERS = 4


def _guard(rng: random.Random, regs: tuple[str, ...], arity: int, constants: str = "0") -> str:
    terms = list(regs) + [f"p{k}" for k in range(1, arity + 1)] + constants.split()
    atoms = set()
    for _ in range(rng.choice((1, 1, 2))):
        left = rng.choice(regs)
        right = rng.choice([t for t in terms if t != left])
        atoms.add(f"{left} {rng.choice(('=', '!='))} {right}")
    return " & ".join(sorted(atoms))


def _assignment(rng: random.Random, regs: tuple[str, ...], arity: int, keep: float) -> str:
    sources = list(regs) + [f"p{k}" for k in range(1, arity + 1)]
    parts = []
    for r in regs:
        roll = rng.random()
        if roll < keep:
            parts.append(f"{r} := {r}")
        elif roll < keep + (1 - keep) * 0.8:
            parts.append(f"{r} := {rng.choice(sources)}")
        # otherwise the register is released
    return ", ".join(parts) or "-"


def ring_machine(rng: random.Random) -> str:
    regs, n = RING_REGISTERS, RING_LOCATIONS
    lines = [
        "format 1",
        "constants 0",
        "registers " + " ".join(regs),
        "actions put/1 move/0 swap/2",
        "locations " + " ".join(f"q{i}" + ("*" if i == 0 else "") for i in range(n)),
    ]
    arity = {"put": 1, "move": 0, "swap": 2}
    for i in range(n):
        edges = [(i + 1) % n, rng.choice((i, (i + 2) % n, (i - 1) % n))]
        for dst in edges:
            act = rng.choice(tuple(arity))
            lines.append(
                f"trans q{i} -> q{dst} on {act}({', '.join(f'p{k}' for k in range(1, arity[act] + 1))}) "
                f"when {_guard(rng, regs, arity[act])} do {_assignment(rng, regs, arity[act], 0.6)}"
            )
    return "\n".join(lines) + "\n"


def _atom(rng: random.Random, regs: tuple[str, ...], locations: int) -> str:
    roll = rng.random()
    if roll < 0.25:
        return f"@q{rng.randrange(locations)}"
    left = rng.choice(regs)
    if roll < 0.45:
        return f"{left} = 0"
    return f"{left} = {rng.choice([r for r in regs if r != left])}"


def ring_formula(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return _atom(rng, RING_REGISTERS, RING_LOCATIONS)
    op = rng.choice(("!", "&", "|", "EX", "AX", "EF", "AF", "EG", "AG", "EU"))
    f = ring_formula(rng, depth - 1)
    if op in ("&", "|"):
        return f"({f} {op} {ring_formula(rng, rng.randrange(depth))})"
    if op == "EU":
        return f"E [ {ring_formula(rng, rng.randrange(depth))} U {f} ]"
    return f"{op} ({f})"


def ring_record() -> dict:
    rng = random.Random("ring-ctl/record")
    text = ring_machine(rng)
    ra = dsl.parse_automaton(text)
    graph = quotient_graph(ra)
    mats = universe(ra.num_registers, ra.constants)
    questions, answers = [], []
    for _ in range(RING_FORMULAS):
        q = {"kind": "model_check", "formula": ring_formula(rng, 4)}
        questions.append(q)
        answers.append(model_check(graph, dsl.parse_formula(q["formula"], ra)))
    for _ in range(RING_MEMBERS):
        formula = ring_formula(rng, 3)
        sat = compute_ctl(graph, dsl.parse_formula(formula, ra))
        config = dsl.serialize(RepConfig(rng.choice(ra.locations), rng.choice(mats)), ra)
        questions.append({"kind": "member", "formula": formula, "config": config})
        answers.append([dsl.parse_repconfig(config, ra) in sat, len(sat)])
    return {"machine": text, "questions": questions, "answers": answers}


# --- wide-post: 9 registers and the constant 0, no quotient graph ---

WIDE_REGISTERS = tuple(f"r{i}" for i in range(1, 10))
WIDE_LOCATIONS = 4
WIDE_POOL = 600


def wide_machine(rng: random.Random) -> str:
    regs = WIDE_REGISTERS
    lines = [
        "format 1",
        "constants 0",
        "registers " + " ".join(regs),
        "actions load/1 pair/2 tick/0",
        "locations " + " ".join(f"w{i}" + ("*" if i == 0 else "") for i in range(WIDE_LOCATIONS)),
    ]
    arity = {"load": 1, "pair": 2, "tick": 0}
    for i in range(WIDE_LOCATIONS):
        for dst in (i, (i + 1) % WIDE_LOCATIONS, rng.randrange(WIDE_LOCATIONS)):
            act = rng.choice(tuple(arity))
            lines.append(
                f"trans w{i} -> w{dst} on {act}({', '.join(f'p{k}' for k in range(1, arity[act] + 1))}) "
                f"when {_guard(rng, regs, arity[act])} do {_assignment(rng, regs, arity[act], 0.8)}"
            )
    return "\n".join(lines) + "\n"


def wide_record() -> dict:
    rng = random.Random("wide-post/record")
    text = wide_machine(rng)
    ra = dsl.parse_automaton(text)
    mats = universe(ra.num_registers, ra.constants)
    questions, answers = [], []
    for _ in range(WIDE_POOL):
        config = dsl.serialize(RepConfig(rng.choice(ra.locations), rng.choice(mats)), ra)
        succ = post(ra, dsl.parse_repconfig(config, ra))
        questions.append({"kind": "post", "config": config})
        answers.append(post_answer([dsl.serialize(c, ra) for c in succ]))
    return {"machine": text, "questions": questions, "answers": answers}


# --- cli-small: fresh regmc processes on figure1 and two small machines ---

SMALL_MACHINES = ("small1.ra", "small2.ra")


def small_machine(rng: random.Random) -> str:
    regs = ("x", "y", "z")
    lines = [
        "format 1",
        "constants 1 2",
        "registers " + " ".join(regs),
        "actions get/1 put/2 go/0",
        "locations s0* s1 s2",
    ]
    arity = {"get": 1, "put": 2, "go": 0}
    for i in range(3):
        for dst in (i, (i + 1) % 3):
            act = rng.choice(tuple(arity))
            lines.append(
                f"trans s{i} -> s{dst} on {act}({', '.join(f'p{k}' for k in range(1, arity[act] + 1))}) "
                f"when {_guard(rng, regs, arity[act], '1 2')} do {_assignment(rng, regs, arity[act], 0.6)}"
            )
    return "\n".join(lines) + "\n"


def cli_questions() -> list[dict]:
    fig = "fixtures/figure1.ra"
    smalls = [f"perfbench/machines/{name}" for name in SMALL_MACHINES]
    argvs = [
        ["check", fig, "AG (@l1 -> !(x1 = x2))"],
        ["check", fig, "EF (x1 = 2)", "--config", "l0 | {x1} {x2}"],
        ["reach", fig, "l1 | {x1=2} {x2}"],
        ["post", fig, "l1 | {x1} {x2=2}"],
        ["universe", "-n", "7"],
        ["simulate", fig, "--steps", "30", "--pool-size", "16"],
        ["simulate", fig, "--steps", "10"],
    ]
    for path in smalls:
        argvs += [
            ["check", path, "AF (x = y) | EX (z = 1)"],
            ["reach", path, "s2 | {x y=2} {z}"],
            ["post", path, "s0 | {x} {y} {z}"],
            ["simulate", path, "--steps", "10"],
        ]
    return [{"kind": "cli", "argv": argv} for argv in argvs]


def cli_record() -> dict:
    machines = HERE / "machines"
    machines.mkdir(exist_ok=True)
    rng = random.Random("cli-small/record")
    for name in SMALL_MACHINES:
        (machines / name).write_text(small_machine(rng), encoding="utf-8")
    questions, answers = cli_questions(), []
    for q in questions:
        if q["argv"][0] == "simulate":
            answers.append([0, "valid"])
            continue
        done = subprocess.run(
            [sys.executable, "-m", "regmc.cli", *q["argv"]],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        answers.append(cli_answer(done.returncode, done.stdout))
    return {"questions": questions, "answers": answers}


if __name__ == "__main__":
    record = {"ring-ctl": ring_record(), "wide-post": wide_record(), "cli-small": cli_record()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
