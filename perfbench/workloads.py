"""Workload inputs, drawn from ``--seed``, and the checks on their answers.

``byzantine`` asks the hand-derived questions of acceptance criterion 7
about ``fixtures/byzantine.ra`` as written.  The other three workloads are
each one fixed machine family with a recorded pool of questions and answers
(``record.json``, written once by ``make_record.py``).  The seed picks:

* for ring-ctl and wide-post, the register and location declaration orders
  and the order of the ``trans`` lines.  That renumbers everything inside
  regmc (universe order, read-set groups, kernel layout) while answers
  written by name stay the same, because the semantics are by name; so one
  record checks every seed;
* for every workload, the order the questions come in, and for cli-small
  the sampler seeds of its ``simulate`` runs, whose traces are re-validated
  rather than compared.

The program receives all of this only as DSL text and CLI arguments.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import re

HERE = pathlib.Path(__file__).resolve().parent
RECORD = HERE / "record.json"

# The four workloads, and why each is in the benchmark.
WHY = {
    # fixtures/byzantine.ra, 8 registers, 21147 classes x 6 locations: the
    # per-transition kernel build in reach is ~90% of the time to a verdict,
    # so a kernel or eqlogic change shows here and nowhere as strongly.
    "byzantine": "criterion-7 questions on fixtures/byzantine.ra; the kernel build in reach dominates",
    # a ring over 6 registers (877 classes per location) asked many nested
    # CTL formulas: the EX/EU/EG fixpoints and the mask-to-RepConfig
    # conversion dominate, while the graph build is small.  Run by hand
    # only: run.py says why it is not in BENCHMARK.json.
    "ring-ctl": "nested CTL formulas on a 6-register ring; ctl fixpoints and label-set conversion dominate",
    # 9 registers (115975 classes) and no quotient graph: universe
    # enumeration, the lazy int64 array and the single-source post path
    # dominate, and memory peaks here.  Kernel-build changes bypass it.
    "wide-post": "post on random classes of a 9-register machine; universe, memory and single-source post dominate",
    # fresh regmc processes: interpreter and numpy start-up, the dsl front
    # end, argument handling and concrete-step enumeration in simulate.
    "cli-small": "fresh regmc processes on small machines; start-up, dsl front end and simulate dominate",
}

BYZANTINE_FIXTURE = "fixtures/byzantine.ra"
AGREE = "(D1 = D2)"
SAME_ORDER = "l0 | {r1 r2} {r3} {D1} {D2} {D3} {s} {t}"
# Acceptance criterion 7 of the test suite, derived by hand there.
BYZANTINE_QUESTIONS = [
    ({"kind": "model_check", "formula": f"AF {AGREE}"}, False),
    ({"kind": "labelset", "formula": f"AF {AGREE}"}, 34206),
    ({"kind": "labelset", "formula": f"EG !{AGREE}"}, 92676),
    ({"kind": "labelset", "formula": f"!{AGREE}"}, 102042),
    ({"kind": "labelset", "formula": f"EX !{AGREE}"}, 118602),
    ({"kind": "member", "formula": f"AF {AGREE}", "config": SAME_ORDER}, [True, 34206]),
]


def load_record() -> dict:
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def present(text: str, rng: random.Random) -> str:
    """The same machine with shuffled declaration and transition orders."""
    head, trans = [], []
    for line in text.splitlines():
        words = line.split()
        if words[:1] in (["registers"], ["locations"]):
            rest = words[1:]
            rng.shuffle(rest)
            line = " ".join([words[0], *rest])
        (trans if words[:1] == ["trans"] else head).append(line)
    rng.shuffle(trans)
    return "\n".join(head + trans) + "\n"


_CLASS = re.compile(r"\{([^}]*)\}")


def config_key(line: str) -> tuple:
    """A serialized configuration, independent of register order."""
    loc, classes = line.split(" | ", 1)
    blocks = []
    for body in _CLASS.findall(classes):
        names, labels = [], set()
        for member in body.split():
            name, _, label = member.partition("=")
            names.append(name)
            labels.add(label)
        blocks.append((tuple(sorted(names)), tuple(sorted(labels))))
    return (loc, tuple(sorted(blocks)))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def post_answer(lines: list[str]) -> list:
    """Successor count and an order-free digest of the printed successors."""
    return [len(lines), digest(sorted(config_key(line) for line in lines))]


def cli_answer(rc: int, out: str) -> list:
    return [rc, digest(out)]


def batch(workload: str, seed: int, record: dict) -> tuple[str, list[dict], list]:
    """Machine text, question batch and expected answers for one run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "byzantine":
        order = list(range(len(BYZANTINE_QUESTIONS)))
        rng.shuffle(order)
        questions = [BYZANTINE_QUESTIONS[i] for i in order]
        machine = (HERE.parent / BYZANTINE_FIXTURE).read_text(encoding="utf-8")
        return machine, [q for q, _ in questions], [a for _, a in questions]
    rec = record[workload]
    pool = list(zip(rec["questions"], rec["answers"]))
    rng.shuffle(pool)
    if workload == "cli-small":
        # simulate traces are re-validated, so any sampler seed will do
        for q, _ in pool:
            if q["argv"][0] == "simulate":
                q["argv"] = [*q["argv"], "--seed", str(rng.randrange(10**6))]
        return "", [q for q, _ in pool], [a for _, a in pool]
    return present(rec["machine"], rng), [q for q, _ in pool], [a for _, a in pool]
