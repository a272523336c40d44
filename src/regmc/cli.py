"""Command-line front end.

Five subcommands cover the library: ``universe`` lists the consistent
matrices over a register count, ``post`` and ``reach`` answer successor
and reachability queries for a configuration, ``check`` model-checks a
formula, and ``simulate`` walks a random concrete run.  Exit status 0
means the property holds (or the configuration is a member / reachable),
1 means it does not, and 2 flags a usage or parse problem or an input over
a size limit — in which case nothing is written to stdout.  Any other
failure is a bug in regmc: it exits 3 with the traceback on stderr, so it
never reads as an answer.

Listings are deterministic: matrices appear in the enumeration order of
``universe`` and locations in declaration order, so outputs can serve as
golden files.  The global ``--oracle`` flag swaps the optimized universe
and successor computations for the literal reference scans, which is
handy when the two need to be diffed.
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback
from collections.abc import Sequence

from regmc import dsl, reference
from regmc.core import Configuration, RegisterAutomaton, concrete_steps, sufficient_pool
from regmc.ctl import compute_ctl, model_check
from regmc.matrices import RepConfig, matrix_of_valuation, universe_table
from regmc.reach import post, quotient_graph, reach


def _load_automaton(path: str) -> RegisterAutomaton:
    with open(path, encoding="utf-8") as fh:
        return dsl.parse_automaton(fh.read())


def _ordered(ra: RegisterAutomaton, configs: set[RepConfig]) -> list[RepConfig]:
    index = universe_table(ra.num_registers, ra.constants).index
    return sorted(
        configs, key=lambda c: (ra.locations.index(c.location), index[c.matrix])
    )


def _cmd_universe(args: argparse.Namespace) -> int:
    constants = tuple(dict.fromkeys(args.constants))
    names = tuple(f"x{i + 1}" for i in range(args.registers))
    table = universe_table(args.registers, constants)
    matrices = table.matrices
    if args.oracle:
        # same canonical presentation order; only the computation differs
        scanned = reference.literal_universe(args.registers, constants)
        matrices = sorted(scanned, key=lambda m: table.index.get(m, len(matrices)))
    for m in matrices:
        print(dsl.classes_text(m, names))
    print(f"count: {len(matrices)}")
    return 0


def _cmd_post(args: argparse.Namespace) -> int:
    ra = _load_automaton(args.file)
    config = dsl.parse_repconfig(args.config, ra)
    successors = reference.literal_post(ra, config) if args.oracle else post(ra, config)
    for succ in _ordered(ra, successors):
        print(dsl.serialize(succ, ra))
    return 0


def _cmd_reach(args: argparse.Namespace) -> int:
    ra = _load_automaton(args.file)
    config = dsl.parse_repconfig(args.config, ra)
    if reach(ra, config):
        print("result: reachable")
        return 0
    print("result: unreachable")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    ra = _load_automaton(args.file)
    formula = dsl.parse_formula(args.formula, ra)
    config = dsl.parse_repconfig(args.config, ra) if args.config else None
    graph = quotient_graph(ra)
    if config is None:
        if model_check(graph, formula):
            print("result: holds")
            return 0
        print("result: fails")
        return 1
    if config in compute_ctl(graph, formula):
        print("result: member")
        return 0
    print("result: non-member")
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    ra = _load_automaton(args.file)
    if args.steps < 0:
        raise ValueError("steps must be nonnegative")
    pool = sufficient_pool(ra)
    if args.pool_size is not None:
        fresh = [d for d in pool if d not in ra.constants]
        if args.pool_size < len(fresh):
            raise ValueError(f"pool size must be at least {len(fresh)}")
        top = max(pool) if pool else 0
        extra = []
        while len(fresh) + len(extra) < args.pool_size:
            top += 1
            if top not in ra.constants:
                extra.append(top)
        pool = tuple(sorted(set(pool) | set(extra)))
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
        steps = list(concrete_steps(ra, current, pool))
        if not steps:
            break
        action, data, current = rng.choice(steps)
        print(f"symbol: {action}({', '.join(str(d) for d in data)})")
        show(current)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmc",
        description="Reachability and branching-time analysis of register automata.",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="use the literal reference scans instead of the optimized engine",
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


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except dsl.ParseError as err:
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
