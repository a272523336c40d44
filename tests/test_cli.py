"""End-to-end command tests, run in-process through ``cli.main``."""

from __future__ import annotations

import pathlib
import re
import time

import pytest

from gens import byzantine, figure_one, shift_machine
from regmc import dsl
from regmc.cli import main
from regmc.core import Configuration, check_run
from regmc.matrices import matrix_of_valuation, universe
from regmc.reach import post

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIG = str(FIXTURES / "figure1.ra")
BYZ = str(FIXTURES / "byzantine.ra")


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
    rc, plain = run(capsys, "universe", "-n", "3", "-c", "0")
    rc2, via_oracle = run(capsys, "--oracle", "universe", "-n", "3", "-c", "0")
    assert (rc, rc2) == (0, 0)
    assert plain == via_oracle


def test_universe_over_the_class_limit_exits_2(capsys):
    # 4213597 classes each; refused from the count, before any matrix is built
    for argv in (["-n", "12"], ["-n", "11", "-c", "0"]):
        start = time.perf_counter()
        rc, out = run(capsys, "universe", *argv)
        assert (rc, out) == (2, "")
        assert time.perf_counter() - start < 1.0


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


def test_post_oracle_flag_agrees(capsys):
    rc, plain = run(capsys, "post", FIG, "l1 | {x1=2} {x2}")
    rc2, via_oracle = run(capsys, "--oracle", "post", FIG, "l1 | {x1=2} {x2}")
    assert (rc, rc2) == (0, 0)
    assert plain == via_oracle


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


def test_simulate_pool_size(capsys):
    rc, out = run(capsys, "simulate", FIG, "--steps", "2", "--seed", "1", "--pool-size", "9")
    assert rc == 0
    rc, out = run(capsys, "simulate", FIG, "--steps", "2", "--pool-size", "1")
    assert rc == 2
    assert out == ""


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

    monkeypatch.setattr("regmc.cli.quotient_graph", broken)
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
