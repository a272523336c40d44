"""Command-line front end.

Five subcommands cover the library: ``universe`` lists the consistent
matrices over a register count, ``post`` and ``reach`` answer successor
and reachability queries for a configuration, ``check`` model-checks a
formula on the graph of the registers live for it alone (``ctl.check``),
and ``simulate`` walks a random concrete run (``core.sample_step``).
Exit status 0 means the property holds (or the configuration is a member
/ reachable), 1 means it does not, and 2 flags a usage or parse problem
or an input over a size limit — in which case nothing is written to
stdout.  Any other failure is a bug in regmc: it exits 3 with the
traceback on stderr, so it never reads as an answer.

Listings are deterministic (``universe`` order, locations in declaration
order), so they can serve as golden files; they are written in blocks.

Each subcommand imports the modules it runs when it runs: ``universe``
reads no machine file and loads ``classes`` and ``matrices`` alone, and
``simulate`` needs no quotient and never loads numpy.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import traceback
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from regmc.core import RegisterAutomaton


def _load_automaton(path: str) -> RegisterAutomaton:
    from regmc import dsl

    with open(path, encoding="utf-8") as fh:
        return dsl.parse_automaton(fh.read())


def _listing(ra: RegisterAutomaton, steps: Sequence[tuple[str, np.ndarray]]) -> Iterator[str]:
    """The ``dsl.serialize`` lines of the classes of the marker valuations
    that ``steps`` gives per location, once each: by location, then in
    listing order, by the rank key of each class, which needs no table."""
    import numpy as np

    from regmc import dsl
    from regmc.matrices import class_keys, classes_lines, first_of_each

    for loc in ra.locations:
        parts = [rows for target, rows in steps if target == loc]
        if parts:
            rows = np.concatenate(parts)
            rows = rows[first_of_each(class_keys(rows, ra.constants))]
            for line in classes_lines(rows, ra.constants, ra.registers):
                yield dsl.configuration_text(loc, line)


def _write_lines(lines: Iterator[str]) -> None:
    """Write ``lines`` to stdout, one ``write`` per block of 4096 lines."""
    while block := list(itertools.islice(lines, 4096)):
        sys.stdout.write("\n".join(block) + "\n")


def _cmd_universe(args: argparse.Namespace) -> int:
    from regmc.matrices import classes_lines, universe_table

    constants = tuple(dict.fromkeys(args.constants))
    names = tuple(f"x{i + 1}" for i in range(args.registers))
    table = universe_table(args.registers, constants)
    _write_lines(classes_lines(table.values, constants, names))
    print(f"count: {len(table.key)}")
    return 0


def _cmd_post(args: argparse.Namespace) -> int:
    from regmc import dsl
    from regmc.reach import successor_rows

    ra = _load_automaton(args.file)
    config = dsl.parse_repconfig(args.config, ra)
    _write_lines(_listing(ra, successor_rows(ra, config)))
    return 0


def _cmd_reach(args: argparse.Namespace) -> int:
    from regmc import dsl
    from regmc.reach import reach

    ra = _load_automaton(args.file)
    config = dsl.parse_repconfig(args.config, ra)
    if reach(ra, config):
        print("result: reachable")
        return 0
    print("result: unreachable")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    from regmc import dsl
    from regmc.ctl import check

    ra = _load_automaton(args.file)
    formula = dsl.parse_formula(args.formula, ra)
    config = dsl.parse_repconfig(args.config, ra) if args.config else None
    holds = check(ra, formula, config)
    answers = ("holds", "fails") if config is None else ("member", "non-member")
    print(f"result: {answers[not holds]}")
    return 0 if holds else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from regmc import dsl
    from regmc.classes import RepConfig, matrix_of_valuation
    from regmc.core import Configuration, ValuePool, sample_step, sufficient_pool

    ra = _load_automaton(args.file)
    if args.steps < 0:
        raise ValueError("steps must be nonnegative")
    pool = sufficient_pool(ra)
    extra = 0
    if args.pool_size is not None:
        # the fresh values above the sufficient pool's are never constants
        fresh = len(pool) - len(ra.constants)
        if args.pool_size < fresh:
            raise ValueError(f"pool size must be at least {fresh}")
        # the pool also holds the constants, and its length must be an int
        if args.pool_size > sys.maxsize - len(ra.constants):
            raise ValueError(f"pool size must be at most {sys.maxsize - len(ra.constants)}")
        extra = args.pool_size - fresh
    pool = ValuePool(pool, extra)
    rng = random.Random(args.seed)

    def show(config: Configuration) -> None:
        values = " ".join(
            f"{name}={value}" for name, value in zip(ra.registers, config.valuation)
        )
        print(f"config: {config.location} | {values}")
        quotient = RepConfig(
            config.location, matrix_of_valuation(config.valuation, ra.constants)
        )
        print(f"quotient: {dsl.serialize(quotient, ra)}")

    current = Configuration(
        ra.initial, tuple(rng.choice(pool) for _ in ra.registers)
    )
    show(current)
    for _ in range(args.steps):
        step = sample_step(ra, current, pool, rng)
        if step is None:
            break
        action, data, current = step
        print(f"symbol: {action}({', '.join(str(d) for d in data)})")
        show(current)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmc",
        description="Reachability and branching-time analysis of register automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_universe = sub.add_parser(
        "universe", help="list every consistent matrix over n registers"
    )
    p_universe.add_argument("-n", "--registers", type=int, required=True)
    p_universe.add_argument(
        "-c", "--constants", type=int, nargs="*", default=[], help="constant values"
    )
    p_universe.set_defaults(run=_cmd_universe)

    p_post = sub.add_parser("post", help="list the successor configurations")
    p_post.add_argument("file", help="automaton file")
    p_post.add_argument("config", help="configuration, e.g. 'l0 | {x1 x2}'")
    p_post.set_defaults(run=_cmd_post)

    p_reach = sub.add_parser("reach", help="decide reachability of a configuration")
    p_reach.add_argument("file")
    p_reach.add_argument("config")
    p_reach.set_defaults(run=_cmd_reach)

    p_check = sub.add_parser("check", help="model-check a formula")
    p_check.add_argument("file")
    p_check.add_argument("formula")
    p_check.add_argument(
        "--config", help="report membership of this configuration instead"
    )
    p_check.set_defaults(run=_cmd_check)

    p_sim = sub.add_parser("simulate", help="print a random concrete run")
    p_sim.add_argument("file")
    p_sim.add_argument("--steps", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--pool-size", type=int, default=None, help="number of non-constant values"
    )
    p_sim.set_defaults(run=_cmd_simulate)
    return parser


def _parse_errors() -> tuple[type[Exception], ...]:
    """``dsl.ParseError`` once a subcommand has imported ``dsl``, the only
    way one can be raised; until then, nothing."""
    dsl = sys.modules.get("regmc.dsl")
    return () if dsl is None else (dsl.ParseError,)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _parse_errors() as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in regmc", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
