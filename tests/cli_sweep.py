"""The CLI answer sweep: commands whose exit status and stdout are pinned.

    PYTHONPATH=src:tests python tests/cli_sweep.py

rewrites ``tests/cli_answers.json`` from the engine in this checkout: per
command, its argument list, exit status, stdout line count and the sha256
of stdout.  ``tests/test_cli.py::test_cli_answers_match_the_sweep`` replays
every command in-process through ``cli.main`` and compares.  A change that
alters an answer or a listing on purpose regenerates the file and names
every changed command, with the reason.

The commands are ``check`` (with and without ``--config``), ``reach``,
``post``, ``universe`` and ``simulate --seed`` over both fixtures,
``perfbench/machines/*.ra`` and small ``tests/gens.py`` machines, written
as machine files with ``dsl.serialize``.  Each takes well under 0.3 s
in-process; the slower shapes are fresh-process questions in
``BOUNDED_QUESTIONS``.  Argument lists name machine files relative to a
directory that holds every file ``machines()`` gives.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

from gens import (
    chain, figure_one, havoc, keep, load, many_constants, pinned, random_automaton,
    random_formula, shift_machine,
)
from regmc import dsl
from regmc.classes import RepConfig, matrix_of_valuation
from regmc.cli import main
from regmc.core import RegisterAutomaton

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
ANSWERS = TESTS / "cli_answers.json"


def machines() -> dict[str, str]:
    """Each machine file of the sweep, by file name: the committed files as
    they are, the generated machines as ``dsl.serialize`` writes them."""
    files = [*sorted((ROOT / "fixtures").glob("*.ra")), *sorted((ROOT / "perfbench" / "machines").glob("*.ra"))]
    texts = {f.name: f.read_text(encoding="utf-8") for f in files}
    built = {
        "shift": shift_machine(),
        "load3": load(3),
        "load3eq": load(3, True),
        "pinned4": pinned(4),
        "chain4_6": chain(4, 6),
        "keep5": keep(5),
        "havoc4": havoc(4, kept=2),
        "consts5": many_constants(5),
        "consts4all": many_constants(4, release_all=True),
        "blocked": dataclasses.replace(figure_one(), transitions=()),
        "chain3_20": chain(3, 20),
    }
    rng = random.Random(4100)
    for i in range(16):
        built[f"random{i}"] = random_automaton(
            rng, max_registers=4, max_locations=3, max_constants=2, max_atoms=3
        )
    texts.update({f"{name}.ra": dsl.serialize(ra) for name, ra in built.items()})
    return texts


def _configs(rng: random.Random, ra: RegisterAutomaton, per_location: int) -> list[str]:
    """Configurations at every location: all registers distinct, all equal,
    and ``per_location`` drawn classes, as ``dsl.serialize`` writes them."""
    n = ra.num_registers
    pool = list(ra.constants) + [100 + i for i in range(n)]
    valuations = [tuple(range(100, 100 + n)), (100,) * n]
    out = []
    for loc in ra.locations:
        drawn = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(per_location)]
        for v in valuations + drawn:
            out.append(dsl.serialize(RepConfig(loc, matrix_of_valuation(v, ra.constants)), ra))
    return list(dict.fromkeys(out))


def commands() -> list[list[str]]:
    """Every argument list of the sweep, in a fixed order."""
    rng = random.Random(4101)
    out: list[list[str]] = [
        ["universe", "-n", str(n), "-c", *cs]
        for n in range(1, 6)
        for cs in ([], ["0"], ["3", "1"])
    ]
    # refusals: over the class limit, an unknown location or register, a
    # formula that does not parse
    out += [
        ["universe", "-n", "12"],
        ["reach", "figure1.ra", "nowhere | {x1} {x2}"],
        ["post", "figure1.ra", "l0 | {x1 x9}"],
        ["check", "figure1.ra", "x1 != x2"],
    ]
    for name, text in machines().items():
        ra = dsl.parse_automaton(text)
        # byzantine's 8-register classes are asked about at the extremes only
        configs = _configs(rng, ra, 2 if ra.num_registers <= 4 else 0)
        formulas = [f"EF @{ra.locations[-1]}"] + [
            dsl.serialize(random_formula(rng, ra, depth), ra) for depth in (1, 2, 3)
        ]
        for f in formulas:
            out.append(["check", name, f])
            out.append(["check", name, f, "--config", rng.choice(configs)])
        for config in configs:
            out.append(["reach", name, config])
            out.append(["post", name, config])
        for seed in (1, 2):
            out.append(["simulate", name, "--steps", "4", "--seed", str(seed)])
    return out


def answer(argv: list[str], rc: int, stdout: str) -> dict[str, object]:
    """The record of one command: its argument list, exit status, stdout
    line count and the sha256 of stdout."""
    return {
        "argv": argv,
        "exit": rc,
        "lines": stdout.count("\n"),
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }


def run(argv: list[str]) -> dict[str, object]:
    """``answer`` of ``argv``, run in-process; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return answer(argv, rc, out.getvalue())


def write(directory: pathlib.Path) -> None:
    for name, text in machines().items():
        (directory / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write(pathlib.Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            records = [run(argv) for argv in commands()]
        finally:
            os.chdir(here)
    ANSWERS.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{len(records)} commands written to {ANSWERS}", file=sys.stderr)
