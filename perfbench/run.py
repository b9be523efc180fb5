"""Host-time benchmark of the load-storm and certify sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload storm-spread --seed 0 --seconds 60 --trace 0

Each repetition runs ``rep.py`` in a fresh interpreter, one at a time.
A run makes as many repetitions as fill ``--seconds`` on the reference
host (at least two with ``--trace 0``; at least two untraced/traced
pairs with ``--trace 1``), and starts none that would likely end past
``SOFT_LIMIT`` times ``--seconds``.  With ``--trace 0`` repetition ``i``
runs the workload at seed ``seed * SEED_STRIDE + i``, so the figures of
one run cover as many inputs as repetitions; with ``--trace 1`` every
repetition runs at ``seed``, so layer counts can be compared.
Every repetition's output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (simulated
requests, all repetitions) and ``metrics`` — the end-to-end metrics over
the repetitions that passed (``--trace 0``; all None when none passed),
or the per-layer metrics of the traced repetitions (``--trace 1``).  The
full record and a run manifest are written to ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_REPS = 2
#: Host seconds of one untraced repetition, interpreter start included,
#: on a 2-vCPU VM at 2.1 GHz.  A traced one takes about 1.5 times as long.
NOMINAL_REP_S = {"storm-spread": 7.0, "certify": 5.5}
WORKLOADS = tuple(NOMINAL_REP_S)
#: Once ``MIN_REPS`` have run, no repetition starts that would likely
#: end past this share of ``--seconds`` (or past ``HARD_LIMIT_S``).
SOFT_LIMIT = 1.05
HARD_LIMIT_S = 150.0
#: Untraced repetition ``i`` of a run at seed ``n`` uses seed
#: ``n * SEED_STRIDE + i``: no two runs share an input.
SEED_STRIDE = 1000
REP_TIMEOUT_S = 170.0


def metric_units(section: str) -> dict:
    """Metric name -> unit, for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class RepFailed(RuntimeError):
    """A repetition's process failed or printed no record."""


def run_rep(workload: str, seed: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def mark_failures(reps: list[dict]) -> None:
    """Add a problem to every repetition whose result differs from that
    of the first repetition at its seed: the result is a pure function
    of the seed, traced or not."""
    first: dict[int, str] = {}
    for rep in reps:
        expected = first.setdefault(rep["seed"], rep["digest"])
        if rep["digest"] != expected and not rep["problems"]:
            rep["problems"].append(
                f"digest {rep['digest']} differs from the first repetition "
                f"at seed {rep['seed']}")


def middle_mean(values) -> float:
    """Mean of the values without the lowest and the highest, when there
    are more than two."""
    values = sorted(values)
    return fmean(values[1:-1] if len(values) > 2 else values)


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never divided by."""
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(reps: list[dict]) -> dict:
    """Figures over the repetitions that passed: ``wall_s`` as their
    middle mean, the rest as medians.  Every value is None when none
    passed."""
    passed = [r for r in reps if not r["problems"]]
    if not passed:
        return dict.fromkeys(("wall_s", "setup_s", "peak_rss_mb",
                              "passed_frac"))
    attempted = sum(r["requests"] for r in reps)
    return {
        "wall_s": middle_mean(r["wall_s"] for r in passed),
        "setup_s": median(r["setup_s"] for r in passed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in passed),
        "passed_frac": sum(r["requests"] for r in passed) / attempted,
    }


def per_layer(untraced: list[dict], traced: list[dict],
              units: dict) -> tuple[dict, list[str]]:
    """Counts from the first traced repetition (they must repeat exactly),
    times as medians, plus the figures that need the untraced wall."""
    problems = []
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if units.get(name) == "count" and len(set(values)) > 1:
                problems.append(f"{name} did not repeat: {values}")
    untraced_wall = median(r["wall_s"] for r in untraced)
    metrics["sim.events_per_s"] = metrics["sim.events"] / untraced_wall
    metrics["trace.overhead_frac"] = (
        median(r["wall_s"] for r in traced) / untraced_wall - 1.0)
    return metrics, problems


def repetitions(workload: str, seconds: int, trace: bool) -> int:
    """Repetitions (untraced/traced pairs with ``trace``) that fill
    ``seconds`` on the reference host.  The count depends on nothing
    else: on a slow host a run takes longer, but its medians are still
    taken over as many repetitions."""
    per_round = NOMINAL_REP_S[workload] * (2.5 if trace else 1.0)
    return max(MIN_REPS, int(seconds // per_round))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """All repetitions of one run; returns the printed summary."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = RESULTS / f"{stem}.spans.jsonl"
    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }
    (RESULTS / f"{stem}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    limit = min(SOFT_LIMIT * seconds, HARD_LIMIT_S)
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    for i in range(repetitions(workload, seconds, trace)):
        rep_seed = seed if trace else seed * SEED_STRIDE + i
        untraced.append(run_rep(workload, rep_seed))
        if trace:
            traced.append(run_rep(workload, rep_seed, spans))
        elapsed = time.perf_counter() - start
        if (len(untraced) >= MIN_REPS
                and elapsed + elapsed / len(untraced) > limit):
            break

    reps = untraced + traced
    mark_failures(reps)
    if trace:
        units = metric_units("per_layer")
        metrics, problems = per_layer(untraced, traced, units)
    else:
        units = metric_units("end_to_end")
        metrics, problems = end_to_end(untraced), []
    failed = sum(r["requests"] for r in reps if r["problems"])
    summary = {
        "correct": not failed and not problems,
        "attempted": sum(r["requests"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"summary": summary, "problems": problems, "reps": reps},
        indent=2, sort_keys=True) + "\n")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
