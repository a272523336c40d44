"""One fresh process: set up one workload, answer its batch, repeat until told.

Run by ``run.py`` as ``python3 perfbench/child.py <t0>`` with the job as JSON
on stdin, where ``t0`` is the parent's clock reading just before it started
this process.  Every run needs its own process because ``universe``,
``_universe_array`` and ``_universe_index`` are cached per process: a loop
inside one process would enumerate once and hide the ``matrices`` layer.

The last line of stdout is the result record: times from ``t0`` to ready
and to the end of the first batch, per-question latencies, the answers in
canonical form, peak RSS, and the spans when tracing.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

from spans import Tracer, clock
from workloads import cli_answer, post_answer


class Session:
    """The state a workload's questions run against, built by ``setup``."""

    def __init__(self, job: dict, tracer: Tracer):
        self.job = job
        self.tr = tracer
        self.ra = None
        self.graph = None
        self.rank = None

    def setup(self) -> None:
        tr, job = self.tr, self.job
        with tr.span("cli.import"):
            import regmc.cli  # noqa: F401  -- loads the whole package, as the CLI does
            from regmc import ctl, dsl
            from regmc.matrices import universe
            # ``regmc.reach`` is the re-exported function ``reach``, not the
            # module, so the module's functions come in by ``from`` import
            from regmc.reach import post, quotient_graph
        self.dsl, self.ctl, self.post = dsl, ctl, post
        if job["workload"] == "cli-small":
            # the front-end work every regmc process repeats
            for path in sorted({q["argv"][1] for q in job["questions"] if q["argv"][1].endswith(".ra")}):
                with open(path, encoding="utf-8") as fh, tr.span("dsl.parse_automaton"):
                    dsl.parse_automaton(fh.read())
            return
        with tr.span("dsl.parse_automaton"):
            self.ra = ra = dsl.parse_automaton(job["machine"])
        with tr.span("matrices.universe"):
            mats = universe(ra.num_registers, ra.constants)
        tr.count("matrices.classes", len(mats))
        if job["workload"] == "wide-post":
            # the order ``regmc post`` prints successors in
            with tr.span("bench.rank"):
                self.rank = {m: k for k, m in enumerate(mats)}
            return
        with tr.span("reach.quotient_graph"):
            self.graph = quotient_graph(ra)
        tr.count("reach.nodes", len(ra.locations) * len(mats))

    def ask(self, q: dict):
        """Answer one question; returns the raw result, before canonical form."""
        tr, dsl, ra = self.tr, self.dsl, self.ra
        kind = q["kind"]
        if kind == "cli":
            argv = q["argv"]
            with tr.span(f"cli.{argv[0]}"):
                done = subprocess.run(
                    [sys.executable, "-m", "regmc.cli", *argv],
                    capture_output=True, text=True, check=False,
                )
            return done
        if kind == "post":
            with tr.span("dsl.parse_repconfig"):
                config = dsl.parse_repconfig(q["config"], ra)
            with tr.span("reach.post"):
                succ = self.post(ra, config)
            tr.count("reach.post_successors", len(succ))
            locs = ra.locations
            ordered = sorted(succ, key=lambda c: (locs.index(c.location), self.rank[c.matrix]))
            with tr.span("dsl.serialize"):
                return [dsl.serialize(c, ra) for c in ordered]
        with tr.span("dsl.parse_formula"):
            formula = dsl.parse_formula(q["formula"], ra)
        if kind == "model_check":
            with tr.span("ctl.model_check"):
                return self.ctl.model_check(self.graph, formula)
        if kind == "member":
            with tr.span("dsl.parse_repconfig"):
                config = dsl.parse_repconfig(q["config"], ra)
        with tr.span("ctl.compute_ctl"):
            sat = self.ctl.compute_ctl(self.graph, formula)
        tr.count("ctl.result_configs", len(sat))
        return [config in sat, len(sat)] if kind == "member" else len(sat)

    def answer(self, q: dict, raw):
        """The canonical form of a result, which the parent compares."""
        try:
            if isinstance(raw, Exception):
                raise raw
            return self._canonical(q, raw)
        except Exception as err:
            return ["error", f"{type(err).__name__}: {err}"]

    def _canonical(self, q: dict, raw):
        if q["kind"] == "post":
            return post_answer(raw)
        if q["kind"] != "cli":
            return raw
        if q["argv"][0] == "simulate":
            return [raw.returncode, check_simulation(q["argv"][1], raw.stdout)]
        return cli_answer(raw.returncode, raw.stdout)


def check_simulation(path: str, out: str) -> str:
    """Parse a ``regmc simulate`` trace back and re-validate it as a run."""
    from regmc import dsl
    from regmc.core import Configuration, check_run
    from regmc.matrices import RepConfig, matrix_of_valuation

    with open(path, encoding="utf-8") as fh:
        ra = dsl.parse_automaton(fh.read())
    configs, symbols = [], []
    for line in out.splitlines():
        head, _, rest = line.partition(": ")
        if head == "config":
            loc, _, values = rest.partition(" | ")
            valuation = tuple(int(kv.split("=")[1]) for kv in values.split())
            configs.append(Configuration(loc, valuation))
        elif head == "symbol":
            name, _, args = rest.rstrip(")").partition("(")
            symbols.append((name, tuple(int(a) for a in args.split(", ") if a)))
        elif head == "quotient":
            want = RepConfig(configs[-1].location, matrix_of_valuation(configs[-1].valuation, ra.constants))
            if dsl.parse_repconfig(rest, ra) != want:
                return "wrong quotient"
    if not configs or len(configs) != len(symbols) + 1:
        return "malformed trace"
    if configs[0].location != ra.initial:
        return "does not start initially"
    return "valid" if check_run(ra, symbols, configs) else "invalid run"


def main() -> int:
    t0 = float(sys.argv[1])
    job = json.loads(sys.stdin.read())
    tracer = Tracer(job["trace"], job["run_id"])
    session = Session(job, tracer)
    questions = job["questions"]
    with tracer.span("bench.setup"):
        session.setup()
        # lazy first-use work (the first ``post`` builds the int64 universe
        # array) is set-up a user pays once, so it is not a query latency
        answers = [session.answer(q, session.ask(q)) for q in questions[: job["warmup"]]]
    ready = clock()
    # the share of the run's seconds counts from this process's start, set-up
    # included, so a child whose set-up and verdict outlast it stops there
    deadline = t0 + job["seconds"]
    latencies, verdict = [], None
    # question k of the run is questions[k % len(questions)]; the first
    # ``batch`` after set-up are the workload's verdict, and whole batches
    # more follow until the deadline, for more latency samples
    k = len(answers)
    while verdict is None or len(latencies) % job["batch"] or clock() < deadline:
        q = questions[k % len(questions)]
        start = clock()
        try:
            with tracer.span("bench.question"):
                raw = session.ask(q)
        except Exception as err:  # a crash is one wrong answer, not the end of the run
            raw = err
        latencies.append(clock() - start)
        answers.append(session.answer(q, raw))
        k += 1
        if verdict is None and len(latencies) == job["batch"]:
            verdict = clock()
    import numpy

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "setup_s": ready - t0,
        "total_s": verdict - t0,
        "verdict_at": verdict,
        "latencies": latencies,
        "answers": answers,
        "peak_rss_mb": usage / 1024,
        "numpy": numpy.__version__,
        "trace": tracer.export() if job["trace"] else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
