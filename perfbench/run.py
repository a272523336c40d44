"""The regmc benchmark: time to a verdict, query latency and memory, checked.

    python3 perfbench/run.py --workload byzantine --seed 1 --seconds 10 --trace 0

Run from the repository root.  One invocation runs one workload (see
``workloads.WHY``) in fresh child processes, one after another: each child
sets up, answers the workload's question batch once (its verdict), then
repeats whole batches until its share of ``--seconds``, counted from its
start, is spent.  Every answer is checked; a crash, a wrong exit status or
a wrong answer is one failure.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the JSON metrics are the bounded end-to-end ones,
measured with tracing off: set-up time, time to verdict and peak RSS.
With ``--trace 1`` untraced and traced children alternate, half as many of
each (at least one); the JSON metrics are the per-layer numbers from the
traced children, the question latencies from the untraced ones, and
``trace.overhead_pct``, the traced time to verdict over the untraced.

``ring-ctl`` runs by hand but is not in ``BENCHMARK.json``: on a shared
2-vCPU host its ~3 s verdicts spread past the 25% bound over ten seeds.

``REGMC_THREADS`` must be unset: a set value would build graphs with a
thread pool, which is a different program from the default sequential one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

from spans import clock, self_times
from workloads import HERE, WHY, batch, load_record

ROOT = HERE.parent
# children per run: set-up time and time to verdict are medians over them.
# A shared host's speed swings by up to half from one half-minute to the
# next, so each workload gets as many children as fill ~20-45 s; byzantine's
# one set-up alone takes ~20 s.  With --seconds 10 every child's share is
# spent by the end of its verdict batch (50 questions on wide-post, so that
# even a traced run's untraced half gives the 200 needed for a p95).
CHILDREN = {"byzantine": 1, "ring-ctl": 6, "wide-post": 7, "cli-small": 8}
# questions in one verdict batch; wide-post's pool is larger than one batch
BATCH = {"wide-post": 50}
RUN_TIMEOUT_S = 170  # every child of one run together
LAYERS = ("dsl", "matrices", "reach", "ctl", "cli", "bench")
CLI_SUBCOMMANDS = ("check", "reach", "post", "universe", "simulate")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def warm_up() -> None:
    """Import regmc once, untimed, so the first child does not alone pay for
    reading the interpreter's, numpy's and regmc's files into the page cache."""
    subprocess.run([sys.executable, "-c", "import regmc.cli"], cwd=ROOT, env=child_env(),
                   capture_output=True, check=False, timeout=60)


def run_child(job: dict, timeout: float) -> tuple[dict | None, str]:
    """Start one fresh child, wait for it, and return its result record."""
    env = child_env()
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(t0)],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        # the child's own regmc processes go too: they share its session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"child timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def check(result: dict, expected: list) -> list[str]:
    """Wrong answers of one child; question k expects expected[k % len]."""
    return [
        f"question {k}: got {got!r}, want {expected[k % len(expected)]!r}"
        for k, got in enumerate(result["answers"])
        if got != expected[k % len(expected)]
    ]


def end_to_end(results: list[dict]) -> dict:
    """The bounded metrics: medians over the untraced children."""
    return {
        "setup_s": (median([r["setup_s"] for r in results]), "s"),
        "total_s": (median([r["total_s"] for r in results]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in results]), "MB"),
    }


def query_latency(results: list[dict]) -> tuple[dict, int]:
    """Post-setup question latency over the untraced children.

    Reported without a bound: on a shared host, the memory-heavy questions
    of byzantine and ring-ctl swing by a third from run to run while the
    set-up and the time to verdict hold steady.
    """
    latencies = [x for r in results for x in r["latencies"]]
    # p95 only with at least ten samples beyond it
    p95 = statistics.quantiles(latencies, n=20)[-1] if len(latencies) >= 200 else 0.0
    return {
        "query_p50_ms": (median(latencies) * 1e3, "ms"),
        "query_p95_ms": (p95 * 1e3, "ms"),
        # back to back, without the benchmark's own checking in between
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
    }, len(latencies)


def layer_values(result: dict) -> dict[str, float]:
    """Per-layer numbers of one traced child."""
    tr = result["trace"]
    spans, counts, until = tr["spans"], tr["counts"], result["verdict_at"]
    durations: dict[str, list[float]] = {}
    in_verdict: dict[str, float] = {}
    for sp in spans:
        d = sp["end"] - sp["start"]
        durations.setdefault(sp["name"], []).append(d)
        if sp["end"] <= until:
            in_verdict[sp["name"]] = in_verdict.get(sp["name"], 0.0) + d

    def p50_ms(name: str, skip: int = 0) -> float:
        return median(durations.get(name, [])[skip:]) * 1e3

    def mean(name: str) -> float:
        values = counts.get(name, [])
        return sum(values) / len(values) if values else 0.0

    posts = durations.get("reach.post", [])
    out = {
        "dsl.parse_ms": sum(v for k, v in in_verdict.items() if k.startswith("dsl.parse")) * 1e3,
        "dsl.serialize_ms": in_verdict.get("dsl.serialize", 0.0) * 1e3,
        "matrices.universe_s": in_verdict.get("matrices.universe", 0.0),
        "matrices.classes": mean("matrices.classes"),
        "reach.quotient_graph_s": in_verdict.get("reach.quotient_graph", 0.0),
        "reach.nodes": mean("reach.nodes"),
        "reach.post_first_ms": posts[0] * 1e3 if posts else 0.0,
        "reach.post_ms": p50_ms("reach.post", skip=1),
        "reach.post_successors": mean("reach.post_successors"),
        "ctl.model_check_ms": p50_ms("ctl.model_check"),
        "ctl.compute_ctl_ms": p50_ms("ctl.compute_ctl"),
        "ctl.result_configs": mean("ctl.result_configs"),
        "cli.import_ms": in_verdict.get("cli.import", 0.0) * 1e3,
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = p50_ms(f"cli.{sub}")
    # self time per layer over the time to verdict, so that the shares add
    # up to total_s; what no span covers is process start-up
    own = self_times(spans, until)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["process.start_s"] = result["total_s"] - sum(own.values())
    return out


UNITS = {"_s": "s", "_ms": "ms", "_pct": "%"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if "REGMC_THREADS" in os.environ:
        print("REGMC_THREADS is set; unset it to measure the default sequential build",
              file=sys.stderr)
        return 2
    for needed in ("src/regmc/__init__.py", "fixtures/byzantine.ra", "fixtures/figure1.ra"):
        if not (ROOT / needed).is_file():
            print(f"{needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    machine, questions, expected = batch(args.workload, args.seed, load_record())
    children = CHILDREN[args.workload]
    job = {
        "workload": args.workload,
        "machine": machine,
        "questions": questions,
        "warmup": 1 if args.workload == "wide-post" else 0,
        "batch": BATCH.get(args.workload, len(questions)),
        "seconds": args.seconds / children,
    }
    print(f"workload {args.workload}, seed {args.seed}: {WHY[args.workload]}")

    deadline = clock() + RUN_TIMEOUT_S
    warm_up()
    modes = [False, True] if args.trace else [False]
    results: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    # a traced run alternates untraced and traced children, half as many of
    # each, so that it takes about as long as an untraced one
    rounds = -(-children // 2) if args.trace else children
    for i in range(rounds):
        for traced in modes:
            result, error = run_child(
                {**job, "trace": traced, "run_id": f"{args.seed}-{i}-{int(traced)}"},
                max(deadline - clock(), 1.0),
            )
            if result is None:
                attempted += 1
                failed += 1
                print(f"child failed: {error}", file=sys.stderr)
                continue
            wrong = check(result, expected)
            attempted += len(result["answers"])
            failed += len(wrong)
            for line in wrong[:5]:
                print(f"wrong answer: {line}", file=sys.stderr)
            results[traced].append(result)
            print(f"child {i}{' traced' if traced else ''}: setup {result['setup_s']:.3f} s, "
                  f"verdict {result['total_s']:.3f} s, {len(result['latencies'])} questions")
    if not results[False] or (args.trace and not results[True]):
        print("no child finished; nothing to report", file=sys.stderr)
        return 1
    print("machine " + json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": results[False][0]["numpy"],
        "REGMC_THREADS": "unset",
    }))

    queries, samples = query_latency(results[False])
    if args.trace:
        per_child = [layer_values(r) for r in results[True]]
        metrics = {name: (median([v[name] for v in per_child]), unit_of(name)) for name in per_child[0]}
        metrics.update(queries)
        untraced = median([r["total_s"] for r in results[False]])
        traced = median([r["total_s"] for r in results[True]])
        metrics["trace.overhead_pct"] = ((traced - untraced) / untraced * 100, "%")
        shown = metrics
    else:
        metrics = end_to_end(results[False])
        shown = {**metrics, **queries}
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"query_samples {samples}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
