"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this once per repetition, from the repository root::

    PYTHONPATH=src python3 perfbench/rep.py --workload certify --seed 0
    PYTHONPATH=src python3 perfbench/rep.py --workload storm-spread --seed 0 \\
        --trace perfbench/results/spans.jsonl

It calls the workload's public entry point once, times it from outside,
checks the result, and prints one JSON record on stdout.  A fresh
interpreter per repetition makes ``setup_s`` include importing ``repro``
and makes ``peak_rss_mb`` the peak of this one repetition; it also keeps
entity-id counters fresh, which byte-identical output depends on.

Set-up and simulation are told apart by one hook, a timestamp taken when
``Environment.run`` is entered and left (a handful of calls per
repetition).  Host time before an environment's first ``run`` call is
set-up; the rest, up to the assembled result, is ``wall_s``.  The layer
wrappers of ``layers.py`` are installed only with ``--trace``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import weakref

#: Workload name -> entry point and its arguments.  The storm replays
#: the default ``repro loadstorm`` trace; certify is the nightly soak.
WORKLOADS = {
    "storm-spread": {"entry": "loadstorm", "kwargs": {"shards": (8,)}},
    "certify": {"entry": "certify", "kwargs": {"budget": 20}},
}

#: sha256 of the result JSON at seed 0 and default scale, byte for byte
#: what ``repro loadstorm --shards 8 --json`` / ``repro certify --budget
#: 20 --json`` write.  A mismatch fails the repetition.
PINNED_DIGESTS = {
    "storm-spread": "9d6319bb8c611bcdf2e2846f244cc0393ed0768f7debb15ed7a578fb9cf221d0",
    "certify": "461d25470160a0b24a8014499d91882a05a282eb0296f3ae0ee17ce9e7f4d47c",
}


class Phases:
    """Splits host time into set-up and simulation at ``Environment.run``."""

    def __init__(self, start: float):
        self.setup_s = 0.0
        self._mark = start
        self._envs: weakref.WeakSet = weakref.WeakSet()
        self._restore = None

    def install(self) -> None:
        from repro.sim.engine import Environment

        original = Environment.run
        phases = self

        def run(env, until=None):
            if env not in phases._envs:
                phases._envs.add(env)
                phases.setup_s += time.perf_counter() - phases._mark
            try:
                return original(env, until)
            finally:
                phases._mark = time.perf_counter()

        Environment.run = run
        self._restore = (Environment, original)

    def uninstall(self) -> None:
        if self._restore is not None:
            cls, original = self._restore
            cls.run = original
            self._restore = None


def call_entry(workload: str, seed: int, overrides: dict | None = None):
    """Run the workload's entry point; returns its typed result."""
    spec = WORKLOADS[workload]
    kwargs = {**spec["kwargs"], **(overrides or {})}
    if spec["entry"] == "loadstorm":
        from repro.experiments import loadstorm_sweep

        return loadstorm_sweep.run(seed=seed, **kwargs)
    from repro.faults import certify

    return certify(seed=seed, **kwargs)


def requests_of(workload: str, result: dict) -> int:
    """Simulated requests: storm arrivals or certify invocations."""
    if WORKLOADS[workload]["entry"] == "loadstorm":
        return sum(p["admitted"] for p in result["points"])
    return sum(row["invocations"] for row in result["rows"])


def check_output(workload: str, text: str, pinned: str | None) -> list[str]:
    """Problems with one result JSON; empty when the output is correct.

    ``pinned`` is the digest ``text`` must have, or None where no digest
    is pinned (seeds other than 0, reduced scale).
    """
    problems: list[str] = []
    result = json.loads(text)
    spec = WORKLOADS[workload]
    if spec["entry"] == "loadstorm":
        points = result["points"]
        if not points:
            problems.append("no storm points")
        for p in points:
            ended = p["completed"] + p["rejected"] + p["degraded"]
            if p["admitted"] != ended:
                problems.append(
                    f"{p['label']}: admitted {p['admitted']} != completed "
                    f"+ rejected + degraded {ended}")
            if not p["conservation_ok"]:
                problems.append(f"{p['label']}: plane conservation failed")
            if min(p["admitted"], p["completed"], p["rejected"],
                   p["degraded"], p["batches"]) < 0:
                problems.append(f"{p['label']}: negative count")
    else:
        rows = result["rows"]
        if len(rows) != result["budget"]:
            problems.append(f"{len(rows)} rows for budget {result['budget']}")
        if not result["ok"] or result["violations"]:
            problems.append(f"verdict not PASS: {result['violations'][:3]}")
        for row in rows:
            for invariant, found in row["invariants"].items():
                if found:
                    problems.append(f"{row['schedule']}: {invariant} violated")
            if sum(row["outcomes"].values()) != row["invocations"]:
                problems.append(f"{row['schedule']}: outcomes do not sum "
                                "to invocations")
    if pinned is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != pinned:
            problems.append(f"digest {digest} != pinned {pinned}")
    return problems


def run_rep(workload: str, seed: int, trace_path: str | None = None,
            overrides: dict | None = None) -> dict:
    """One timed, checked repetition; returns the JSON-ready record."""
    start = time.perf_counter()
    phases = Phases(start)
    phases.install()
    tracer = None
    if trace_path is not None:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    try:
        result = call_entry(workload, seed, overrides)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        phases.uninstall()
    text = result.to_json() + "\n"
    as_dict = json.loads(text)
    pinned = PINNED_DIGESTS[workload] if seed == 0 and not overrides else None
    problems = check_output(workload, text, pinned)
    record = {
        "workload": workload,
        "seed": seed,
        "setup_s": phases.setup_s,
        "wall_s": end - start - phases.setup_s,
        "requests": requests_of(workload, as_dict),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans_written"] = tracer.write_spans(trace_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="SPANS_JSONL", default=None,
                        help="install the layer wrappers; write spans here")
    args = parser.parse_args(argv)
    record = run_rep(args.workload, args.seed, args.trace)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip tearing down the simulation's objects (about 0.5 s after a
    # storm), which no figure includes, so a run fits more repetitions.
    os._exit(code)
