"""End-to-end command tests, run in-process through ``cli.main``."""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from gens import (
    chain, figure_one, havoc, keep, load, many_constants, pinned, random_automaton,
    shift_machine, wide,
)
import cli_sweep
import reference
from regmc import ctl, dsl
from regmc.classes import RepConfig, marker_valuation, matrix_of_valuation
from regmc.cli import _listing, main
from regmc.core import Configuration, check_run
from regmc.matrices import class_keys, classes_lines, universe, universe_table
from regmc.reach import post, reach, successor_rows

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIG = str(FIXTURES / "figure1.ra")
BYZ = str(FIXTURES / "byzantine.ra")
SRC = str(FIXTURES.parent / "src")
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(capsys, *argv: str) -> tuple[int, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert (rc == 2) == (captured.err != "")  # complaints go to stderr, only on 2
    return rc, captured.out


def test_universe_listing(capsys):
    rc, out = run(capsys, "universe", "-n", "2", "-c", "2")
    lines = out.splitlines()
    assert rc == 0
    assert lines[-1] == "count: 5"
    names = ("x1", "x2")
    parsed = [dsl.parse_classes(line, names, (2,)) for line in lines[:-1]]
    assert tuple(parsed) == universe(2, (2,))


def test_universe_single_register(capsys):
    rc, out = run(capsys, "universe", "-n", "1")
    assert rc == 0
    assert out == "{x1}\ncount: 1\n"


def test_universe_eight_registers(capsys):
    rc, out = run(capsys, "universe", "-n", "8", "-c", "0")
    assert rc == 0
    assert out.splitlines()[-1] == "count: 21147"


def test_universe_oracle_flag_agrees(capsys):
    # the literal scan finds the listed classes, written in listing order
    rc, out = run(capsys, "universe", "-n", "3", "-c", "0")
    scanned = reference.literal_universe(3, (0,))
    keys = class_keys(np.array([marker_valuation(m) for m in scanned]), (0,)).tolist()
    names = ("x1", "x2", "x3")
    lines = [dsl.classes_text(m, names) for _, m in sorted(zip(keys, scanned), key=lambda km: km[0])]
    assert (rc, out) == (0, "".join(line + "\n" for line in lines) + f"count: {len(scanned)}\n")


def test_universe_over_the_class_limit_exits_2(capsys):
    # 4213597 classes each; refused from the count, before any matrix is built
    for argv in (["-n", "12"], ["-n", "11", "-c", "0"]):
        start = time.perf_counter()
        rc, out = run(capsys, "universe", *argv)
        assert (rc, out) == (2, "")
        assert time.perf_counter() - start < 1.0


def test_universe_negative_constants_exit_2(capsys):
    # -1 and -2 would collide with the matrix alphabet's ZERO and ONE
    for c in ("-1", "-2"):
        rc, out = run(capsys, "universe", "-n", "2", "-c", c)
        assert (rc, out) == (2, "")


def test_constants_past_64_bits_exit_2(capsys, tmp_path):
    rc, out = run(capsys, "universe", "-n", "1", "-c", str(2**63))
    assert (rc, out) == (2, "")
    path = tmp_path / "huge.ra"
    path.write_text(
        "format 1\nconstants 99999999999999999999\nregisters x1\nactions a/1\n"
        "locations l0*\ntrans l0 -> l0 on a(p1) when p1 != 99999999999999999999 do x1 := p1\n"
    )
    for argv in (["post", str(path), "l0 | {x1}"], ["reach", str(path), "l0 | {x1}"]):
        assert run(capsys, *argv) == (2, "")
    assert run(capsys, "check", str(path), "EF @l0") == (2, "")
    # the concrete semantics is plain Python and takes any natural
    rc, out = run(capsys, "simulate", str(path), "--steps", "2")
    assert rc == 0 and out.count("config:") == 3


def test_largest_constant_lists_like_any_other(capsys):
    rc, small = run(capsys, "universe", "-n", "2", "-c", "0")
    rc2, large = run(capsys, "universe", "-n", "2", "-c", str(2**63 - 1))
    assert (rc, rc2) == (0, 0)
    assert large == small.replace("=0", f"={2**63 - 1}")


def test_post_listing(capsys):
    rc, out = run(capsys, "post", FIG, "l0 | {x1 x2}")
    assert rc == 0
    lines = out.splitlines()
    assert "l1 | {x1} {x2}" in lines
    fig = figure_one()
    parsed = [dsl.parse_repconfig(line, fig) for line in lines]
    assert set(parsed) == post(fig, dsl.parse_repconfig("l0 | {x1 x2}", fig))
    rc2, again = run(capsys, "post", FIG, "l0 | {x1 x2}")
    assert again == out  # deterministic order


def test_post_listing_matches_serialize_in_universe_order():
    # every class at every location, handed over as shuffled marker rows
    # with renamed markers, split over two steps per location that overlap,
    # comes back one ``serialize`` line each, by location and then in
    # universe order
    rng = random.Random(44)
    for _ in range(12):
        ra = random_automaton(rng, max_registers=4, max_constants=2)
        classes = universe(ra.num_registers, ra.constants)
        want = [dsl.serialize(RepConfig(loc, m), ra) for loc in ra.locations for m in classes]
        values = universe_table(ra.num_registers, ra.constants).values.astype(np.int64)
        steps = []
        for loc in ra.locations:
            rows = values[rng.sample(range(len(values)), len(values))]
            rows = np.where(rows < 0, 3 * rows - rng.randrange(5), rows)
            cut = rng.randrange(len(rows) + 1)
            steps += [(loc, rows[: cut + len(rows) // 3]), (loc, rows[cut:])]
        rng.shuffle(steps)
        assert list(_listing(ra, steps)) == want
    assert list(_listing(figure_one(), [])) == []


def test_post_listing_prints_a_class_reached_twice_once(capsys):
    # from l1, the two probes ``x1 = p1`` and ``x2 = p1`` both keep both
    # registers: two steps reach the same classes at l1
    fig = figure_one()
    config = dsl.parse_repconfig("l1 | {x1} {x2}", fig)
    steps = [rows for loc, rows in successor_rows(fig, config) if loc == "l1"]
    keys = [set(class_keys(rows, fig.constants).tolist()) for rows in steps]
    assert len(steps) == 3 and keys[0] & keys[1]
    rc, out = run(capsys, "post", FIG, "l1 | {x1} {x2}")
    assert rc == 0
    assert out.splitlines() == _listed(fig, post(fig, config))
    assert out.count("l1 | {x1} {x2}\n") == 1


def test_post_shift_example(capsys, tmp_path):
    ra = shift_machine()
    path = tmp_path / "shift.ra"
    path.write_text(dsl.serialize(ra))
    rc, out = run(capsys, "post", str(path), "l | {x1} {x2 x3}")
    assert rc == 0
    assert set(out.splitlines()) == {
        "m | {x1 x2} {x3}",
        "m | {x1 x3} {x2}",
        "m | {x1} {x2} {x3}",
    }
    # a location with no outgoing transitions has an empty listing
    rc, out = run(capsys, "post", str(path), "m | {x1} {x2 x3}")
    assert rc == 0
    assert out == ""


def test_post_needs_no_universe_of_the_machine(capsys, tmp_path):
    # wide11 has 4213597 classes, over the class limit, and post answers
    path = tmp_path / "wide11.ra"
    path.write_text(dsl.serialize(wide(11)))
    config = "w1 | {r1 r5 r7} {r2 r6} {r3=0 r4=0} {r8} {r9 r10} {r11}"
    rc, out = run(capsys, "post", str(path), config)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == len(set(lines)) > 0
    assert all(line.startswith(("w1 | ", "w2 | ")) for line in lines)


def test_post_over_its_limits_exits_2(capsys, tmp_path):
    # 4213597 successors; and 30 kept registers, whose classes no 63-bit
    # rank key orders
    for ra in (havoc(12), havoc(30, kept=30)):
        path = tmp_path / "havoc.ra"
        path.write_text(dsl.serialize(ra))
        config = "q | {" + " ".join(ra.registers) + "}"
        assert run(capsys, "post", str(path), config) == (2, "")


def test_graph_over_the_node_limit_exits_2(capsys, tmp_path):
    # reach observes every register, so it needs all 300 x 678570 nodes
    path = tmp_path / "chain.ra"
    path.write_text(dsl.serialize(chain(10, 300)))
    assert run(capsys, "reach", str(path), _all_distinct(chain(10, 300))) == (2, "")


def test_check_builds_only_the_live_registers_table(capsys, tmp_path, monkeypatch):
    # AG (r1 = r2) on wide11 is labelled on the machine over r1 .. r9; the
    # 11-register universe is past MAX_CLASSES, and is never asked for
    asked = []
    build = universe_table

    def refusing(n_registers, constants):
        asked.append(n_registers)
        if n_registers >= 11:
            raise AssertionError("the full 11-register table was asked for")
        return build(n_registers, constants)

    for module in ("regmc.matrices", "regmc.reach"):
        monkeypatch.setattr(importlib.import_module(module), "universe_table", refusing)
    path = tmp_path / "wide11.ra"
    path.write_text(dsl.serialize(wide(11)))
    assert run(capsys, "check", str(path), _AG) == (1, "result: fails\n")
    config = _all_distinct(wide(11))
    assert run(capsys, "check", str(path), _AG, "--config", config) == (1, "result: non-member\n")
    assert asked and max(asked) < 11


def test_a_closed_pipe_exits_2():
    # `regmc universe -n 9 -c 0 | head -1`: 115975 lines, far past a pipe's buffer
    with subprocess.Popen(
        [sys.executable, "-m", "regmc.cli", "universe", "-n", "9", "-c", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV,
    ) as child:
        assert child.stdout.readline() == b"{x1 x2 x3 x4 x5 x6 x7 x8 x9}\n"
        child.stdout.close()
        assert child.stderr.read() == b"error: [Errno 32] Broken pipe\n"
        assert child.wait(timeout=10) == 2


def test_joins_past_the_row_limit_exit_2(capsys, tmp_path):
    # load7's kernel joins 4140 read groups of up to 37260 rows each
    path = tmp_path / "load7.ra"
    path.write_text(dsl.serialize(load(7)))
    assert run(capsys, "check", str(path), "AG (r1 = r2)") == (2, "")
    assert run(capsys, "reach", str(path), "q | {r1 r2} {r3} {r4} {r5} {r6} {r7}") == (2, "")
    # stores pinned by equalities add no rows, and are answered
    path.write_text(dsl.serialize(load(7, True)))
    assert run(capsys, "check", str(path), "AG (r1 = r2)") == (1, "result: fails\n")
    path.write_text(dsl.serialize(pinned(12)))
    rc, out = run(capsys, "post", str(path), _all_distinct(pinned(12)))
    assert (rc, len(out.splitlines())) == (0, 2)


def _all_distinct(ra) -> str:
    return f"{ra.initial} | " + " ".join("{" + r + "}" for r in ra.registers)


def _listed(ra, configs) -> list[str]:
    """The listing lines of ``configs``, by location and then by universe
    position, the order of the classes' rank keys, written from their
    marker rows (``classes_lines``, which ``test_dsl`` judges against
    ``dsl.classes_text``)."""
    configs = list(configs)
    values = np.array([marker_valuation(c.matrix) for c in configs]).reshape(-1, ra.num_registers)
    keys = class_keys(values, ra.constants).tolist()
    locs = [ra.locations.index(c.location) for c in configs]
    order = sorted(range(len(configs)), key=lambda i: (locs[i], keys[i]))
    lines = classes_lines(values[order], ra.constants, ra.registers)
    return [dsl.configuration_text(configs[i].location, line) for i, line in zip(order, lines)]


# The robustness contract, one question per shape at or past a size limit:
# the parameter-storing joins of ``load``, stores pinned by equalities
# (``load(7, equal=True)``, ``pinned(12)``), a step that releases every
# register (``havoc(8)``), full graphs past the class and node limits
# whose formulas observe a few registers (``wide(11)``, ``chain(10,
# 300)``; ``reach`` observes all of them), the same shapes below those
# limits, asked with and without ``--config`` (``havoc(8)``, ``wide(10)``,
# ``chain(8, 120)``, and ``chain(10, 300)`` past them), ``reach`` of the
# all-distinct class on those machines and on ``keep(16)``, answered or
# refused at the class limit, and 990 declared constants, whose 982082
# classes every limit admits (``many_constants``), asked with and without
# ``--config`` too.  A shape that a later limit or CLI path touches joins
# this list.
_AG = "AG (r1 = r2)"
BOUNDED_QUESTIONS = [
    *((f"load{n}-post", load(n), "post", (_all_distinct(load(n)),)) for n in range(6, 10)),
    *((f"load{n}-check", load(n), "check", (_AG,)) for n in range(6, 10)),
    ("load7eq-post", load(7, True), "post", (_all_distinct(load(7)),)),
    ("load7eq-check", load(7, True), "check", (_AG,)),
    ("pinned12-post", pinned(12), "post", (_all_distinct(pinned(12)),)),
    *(
        question
        for name, ra in (("load6", load(6)), ("load7eq", load(7, True)), ("pinned12", pinned(12)))
        for question in (
            (f"{name}-reach", ra, "reach", (_all_distinct(ra),)),
            (f"{name}-check-config", ra, "check", (_AG, "--config", _all_distinct(ra))),
        )
    ),
    ("havoc8-check", havoc(8), "check", (_AG,)),
    ("havoc8-check-config", havoc(8), "check", (_AG, "--config", _all_distinct(havoc(8)))),
    ("havoc8-reach", havoc(8), "reach", (_all_distinct(havoc(8)),)),
    ("wide10-check-config", wide(10), "check", (_AG, "--config", _all_distinct(wide(10)))),
    ("chain8_120-check", chain(8, 120), "check", ("EF @q119",)),
    (
        "chain8_120-check-config", chain(8, 120), "check",
        ("EF @q119", "--config", _all_distinct(chain(8, 120))),
    ),
    ("chain8_120-reach", chain(8, 120), "reach", (_all_distinct(chain(8, 120)),)),
    ("wide11-check", wide(11), "check", (_AG,)),
    ("wide11-check-config", wide(11), "check", (_AG, "--config", _all_distinct(wide(11)))),
    ("wide11-reach", wide(11), "reach", (_all_distinct(wide(11)),)),
    ("chain10_300-check", chain(10, 300), "check", ("EF @q299",)),
    (
        "chain10_300-check-config", chain(10, 300), "check",
        ("EF @q299", "--config", _all_distinct(chain(10, 300))),
    ),
    ("chain10_300-reach", chain(10, 300), "reach", (_all_distinct(chain(10, 300)),)),
    ("consts990-check", many_constants(990), "check", ("AG (x1 = x2)",)),
    (
        "consts990-check-config", many_constants(990), "check",
        ("AG (x1 = x2)", "--config", _all_distinct(many_constants(990))),
    ),
    ("consts990-reach", many_constants(990), "reach", ("q | {x1} {x2}",)),
    *((f"keep{n}-post", keep(n), "post", (_all_distinct(keep(n)),)) for n in (16, 17)),
    ("keep16-reach", keep(16), "reach", (_all_distinct(keep(16)),)),
]


def _in_process(ra, command: str, args: tuple[str, ...]) -> tuple[int, str]:
    """The exit status and stdout the engine gives ``command`` in-process:
    (2, "") where it refuses."""
    try:
        if command == "post":
            successors = post(ra, dsl.parse_repconfig(args[0], ra))
            return 0, "".join(line + "\n" for line in _listed(ra, successors))
        if command == "reach":
            found = reach(ra, dsl.parse_repconfig(args[0], ra))
            return (0, "result: reachable\n") if found else (1, "result: unreachable\n")
        formula = dsl.parse_formula(args[0], ra)
        if args[1:]:
            member = ctl.check(ra, formula, dsl.parse_repconfig(args[2], ra))
            return (0, "result: member\n") if member else (1, "result: non-member\n")
        holds = ctl.check(ra, formula)
        return (0, "result: holds\n") if holds else (1, "result: fails\n")
    except ValueError:
        return 2, ""


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "name, ra, command, args", BOUNDED_QUESTIONS, ids=[q[0] for q in BOUNDED_QUESTIONS]
)
def test_every_question_gets_bounded_work(tmp_path, name, ra, command, args):
    """A fresh process under a 1 GB address-space cap and a 10 s limit
    answers as the engine does in-process (0 or 1, with nothing on stderr),
    or refuses up front as the engine does (2, printing nothing but its
    one-line error); it never crashes or runs away."""
    path = tmp_path / f"{name}.ra"
    path.write_text(dsl.serialize(ra))
    done = subprocess.run(
        [sys.executable, "-m", "regmc.cli", command, str(path), *args],
        capture_output=True, text=True, timeout=10, env=SUBPROCESS_ENV,
        preexec_fn=_cap_address_space,
    )
    assert done.returncode in (0, 1, 2), done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    else:
        assert done.stderr == ""
    assert (done.returncode, done.stdout) == _in_process(ra, command, args)


def test_cli_answers_match_the_sweep(capsys, tmp_path, monkeypatch):
    """Every command of the committed sweep (``cli_sweep``) exits and prints
    as it did when ``cli_answers.json`` was written."""
    cli_sweep.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    want = json.loads(cli_sweep.ANSWERS.read_text())
    got = []
    for entry in want:
        rc = main(entry["argv"])
        got.append(cli_sweep.answer(entry["argv"], rc, capsys.readouterr().out))
    changed = [g["argv"] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} commands changed, first {changed[:5]}"


def test_post_oracle_flag_agrees(capsys):
    # the literal scan finds the listed successors, written in listing order
    fig = figure_one()
    rc, out = run(capsys, "post", FIG, "l1 | {x1=2} {x2}")
    want = _listed(fig, reference.literal_post(fig, dsl.parse_repconfig("l1 | {x1=2} {x2}", fig)))
    assert (rc, out.splitlines()) == (0, want)


def test_reach_examples(capsys, tmp_path):
    rc, out = run(capsys, "reach", FIG, "l1 | {x1=2} {x2}")
    assert (rc, out) == (0, "result: reachable\n")
    rc, out = run(capsys, "reach", FIG, "l0 | {x1 x2}")
    assert rc == 0
    # with every transition removed, only the initial location is reachable
    trimmed = tmp_path / "trimmed.ra"
    trimmed.write_text(
        "\n".join(
            line
            for line in pathlib.Path(FIG).read_text().splitlines()
            if not line.startswith("trans")
        )
        + "\n"
    )
    rc, out = run(capsys, "reach", str(trimmed), "l1 | {x1} {x2}")
    assert (rc, out) == (1, "result: unreachable\n")


def test_check_figure_one(capsys):
    rc, out = run(capsys, "check", FIG, "EF @l1")
    assert (rc, out) == (0, "result: holds\n")
    rc, out = run(capsys, "check", FIG, "AG @l0")
    assert (rc, out) == (1, "result: fails\n")
    rc, out = run(capsys, "check", FIG, "EF (x1 = 2)", "--config", "l0 | {x1 x2}")
    assert (rc, out) == (0, "result: member\n")
    rc, out = run(capsys, "check", FIG, "@l1", "--config", "l0 | {x1 x2}")
    assert (rc, out) == (1, "result: non-member\n")


def test_check_deadlock(capsys, tmp_path):
    path = tmp_path / "deadlock.ra"
    path.write_text("format 1\nregisters x1\nactions a/1\nlocations d0*\n")
    rc, out = run(capsys, "check", str(path), "EX true")
    assert (rc, out) == (1, "result: fails\n")


def test_check_byzantine(capsys):
    rc, out = run(capsys, "check", BYZ, "AF (D1 = D2)")
    assert (rc, out) == (1, "result: fails\n")
    same_order = "l0 | {r1 r2} {r3} {D1} {D2} {D3} {s} {t}"
    rc, out = run(capsys, "check", BYZ, "AF (D1 = D2)", "--config", same_order)
    assert (rc, out) == (0, "result: member\n")


def test_simulate_zero_steps(capsys):
    rc, out = run(capsys, "simulate", FIG, "--steps", "0", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("config: l0 |")
    assert lines[1].startswith("quotient: l0 |")


CONFIG_RE = re.compile(r"^config: (\w+) \| (.*)$")
SYMBOL_RE = re.compile(r"^symbol: (\w+)\((.*)\)$")


def parse_trace(out: str):
    configs, symbols, quotients = [], [], []
    for line in out.splitlines():
        if m := CONFIG_RE.match(line):
            valuation = tuple(int(kv.split("=")[1]) for kv in m.group(2).split())
            configs.append(Configuration(m.group(1), valuation))
        elif m := SYMBOL_RE.match(line):
            args = tuple(int(d) for d in m.group(2).split(", ")) if m.group(2) else ()
            symbols.append((m.group(1), args))
        else:
            assert line.startswith("quotient: ")
            quotients.append(line[len("quotient: ") :])
    return configs, symbols, quotients


def test_simulate_trace_is_a_run(capsys):
    fig = figure_one()
    rc, out = run(capsys, "simulate", FIG, "--steps", "6", "--seed", "11")
    assert rc == 0
    configs, symbols, quotients = parse_trace(out)
    assert len(configs) == len(symbols) + 1 == len(quotients)
    assert check_run(fig, symbols, configs)
    # printed quotients match the concrete configurations and form a path
    reps = [dsl.parse_repconfig(q, fig) for q in quotients]
    for config, rep in zip(configs, reps):
        assert rep.location == config.location
        assert rep.matrix == matrix_of_valuation(config.valuation, fig.constants)
    for here, there in zip(reps, reps[1:]):
        assert there in post(fig, here)


def test_simulate_is_reproducible(capsys):
    rc, first = run(capsys, "simulate", FIG, "--steps", "4", "--seed", "9")
    rc2, second = run(capsys, "simulate", FIG, "--steps", "4", "--seed", "9")
    assert (rc, rc2) == (0, 0)
    assert first == second


@pytest.mark.parametrize(
    "machine, pool_size",
    [
        ("havoc8", []),  # 9^8 havoc tuples per step
        ("load8", []),  # 19^8 argument tuples per step
        ("figure1", ["--pool-size", "100000"]),
    ],
    ids=["havoc8", "load8", "figure1-pool-100000"],
)
def test_simulate_is_bounded(tmp_path, machine, pool_size):
    """Each step is sampled, never enumerated: a fresh process prints every
    step of a valid run well inside the budget."""
    ra = {"havoc8": havoc(8), "load8": load(8), "figure1": figure_one()}[machine]
    path = tmp_path / f"{machine}.ra"
    path.write_text(dsl.serialize(ra))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "regmc.cli", "simulate", str(path), "--steps", "3", *pool_size],
        capture_output=True, text=True, timeout=10, env=SUBPROCESS_ENV,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == 0, done.stderr
    configs, symbols, _ = parse_trace(done.stdout)
    assert len(symbols) == 3 and check_run(ra, symbols, configs)


def test_simulate_pool_width_costs_nothing(tmp_path):
    """A pool of 10^9 fresh values is described, never listed: a fresh
    process prints a valid three-step run in under a second."""
    path = tmp_path / "figure1.ra"
    path.write_text(dsl.serialize(figure_one()))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "regmc.cli", "simulate", str(path), "--steps", "3",
         "--pool-size", str(10**9)],
        capture_output=True, text=True, timeout=10, env=SUBPROCESS_ENV,
    )
    assert time.perf_counter() - start < 1
    assert done.returncode == 0, done.stderr
    configs, symbols, _ = parse_trace(done.stdout)
    assert len(symbols) == 3 and check_run(figure_one(), symbols, configs)
    # values past the sufficient pool's are drawn
    assert max(max(c.valuation) for c in configs) > 10**6


def test_simulate_pool_size(capsys):
    rc, out = run(capsys, "simulate", FIG, "--steps", "2", "--seed", "1", "--pool-size", "9")
    assert rc == 0
    rc, out = run(capsys, "simulate", FIG, "--steps", "2", "--pool-size", "1")
    assert rc == 2
    assert out == ""
    # the pool holds figure one's constant besides the fresh values, so this
    # pool has sys.maxsize values; one more is refused before any output
    widest = sys.maxsize - len(figure_one().constants)
    rc, out = run(capsys, "simulate", FIG, "--steps", "2", "--pool-size", str(widest))
    assert rc == 0 and out.startswith("config: ")
    assert main(["simulate", FIG, "--pool-size", str(widest + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_parse_failures_exit_2_silently(capsys):
    rc, out = run(capsys, "post", FIG, "l0 | {x1 x9}")
    assert (rc, out) == (2, "")
    rc, out = run(capsys, "check", FIG, "x1 != x2")
    assert (rc, out) == (2, "")
    rc, out = run(capsys, "reach", "no-such-file.ra", "l0 |")
    assert (rc, out) == (2, "")


def test_deep_formulas_exit_2(capsys):
    for formula in ("!" * 3000 + "x1 = x2", "(" * 3000 + "x1 = x2" + ")" * 3000):
        rc, out = run(capsys, "check", FIG, formula)
        assert (rc, out) == (2, "")
    deepest = "!" * 148 + "(" * 148 + "x1 = x2" + ")" * 148  # at the limit
    assert run(capsys, "check", FIG, deepest) == run(capsys, "check", FIG, "x1 = x2")


def test_internal_errors_exit_3(capsys, monkeypatch):
    def broken(ra):
        raise RuntimeError("boom")

    # the subcommand imports the engine when it runs; ``check`` builds its
    # graph through ``regmc.ctl``'s own name for the builder
    monkeypatch.setattr(importlib.import_module("regmc.ctl"), "quotient_graph", broken)
    assert main(["check", FIG, "EF @l1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: boom" in captured.err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["universe"])  # -n is required
    assert info.value.code == 2
    assert capsys.readouterr().out == ""
