"""Sweep fan-out harness: serial vs 8-worker chaos-sweep throughput.

Companion to ``bench_engine.py``/``bench_obs.py`` for the parallel sweep
fabric.  The committed ``BENCH_sweep.json`` records what
:func:`repro.sweep.run_sweep` buys on the chaos sweep — scenarios per
minute serially versus fanned across 8 workers — and
``tools/perfgate.py --bench sweep`` fails the build when that throughput
regresses structurally (a merge step that starts serializing, pickling
overhead swamping the scenarios).

Scenarios (metric ``scenarios_per_min``, higher is better):

* ``chaos_serial`` — the 8-rate chaos sweep through the serial path;
* ``chaos_jobs8`` — the same plan across 8 worker processes.  On hosts
  with fewer than 8 cores the 8-worker makespan is **modeled** — the
  measured pool startup overhead plus a greedy list-schedule of the
  individually measured scenario walls (exactly the pool's
  ``imap_unordered`` order) — and the result is labeled
  ``"modeled": true`` with the host core count.  With 8+ cores the pool
  is actually run.

The merged result is byte-identical either way (asserted by
``tests/sweep/test_parallel_determinism.py``); this harness only tracks
the wall-clock side of the contract.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.experiments import chaos_sweep
from repro.sweep import run_sweep

pytestmark = pytest.mark.perf

DEFAULT_REPEATS = 3

WORKERS = 8
BENCH_RATES = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 32.0)
BENCH_WINDOW_S = 30.0


def _plan():
    return chaos_sweep.SWEEP.plan(rates=BENCH_RATES, window_s=BENCH_WINDOW_S,
                                  seed=0)


def _scenario_walls() -> list[float]:
    """Per-scenario serial wall times, in plan order."""
    walls = []
    for spec in _plan().scenarios:
        start = time.perf_counter()
        spec.execute()
        walls.append(time.perf_counter() - start)
    return walls


def _pool_overhead() -> float:
    """Wall cost of bringing an idle WORKERS-wide pool up and down."""
    start = time.perf_counter()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    with ctx.Pool(processes=WORKERS) as pool:
        pool.map(abs, range(WORKERS))
    return time.perf_counter() - start


def _greedy_makespan(walls: list[float], workers: int) -> float:
    """List-schedule ``walls`` in order over ``workers`` lanes.

    Mirrors ``Pool.imap_unordered`` with chunksize 1: each worker pulls
    the next task the moment it frees up.
    """
    lanes = [0.0] * workers
    for wall in walls:
        lane = min(range(workers), key=lanes.__getitem__)
        lanes[lane] += wall
    return max(lanes)


def measure_serial(repeats: int = DEFAULT_REPEATS) -> dict:
    n = len(BENCH_RATES)
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_sweep("chaos", jobs=1, rates=BENCH_RATES, window_s=BENCH_WINDOW_S)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return {
        "metric": "scenarios_per_min",
        "value": n / best * 60.0,
        "scenarios": n,
        "wall_s": best,
    }


def measure_jobs8(repeats: int = DEFAULT_REPEATS) -> dict:
    n = len(BENCH_RATES)
    cores = os.cpu_count() or 1
    if cores >= WORKERS:
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run_sweep("chaos", jobs=WORKERS, rates=BENCH_RATES,
                      window_s=BENCH_WINDOW_S)
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        return {
            "metric": "scenarios_per_min",
            "value": n / best * 60.0,
            "scenarios": n,
            "wall_s": best,
            "workers": WORKERS,
            "modeled": False,
            "cores": cores,
        }
    # Fewer cores than workers: an actual 8-wide pool would timeshare one
    # CPU and measure the scheduler, not the fabric.  Model the makespan
    # from measured parts instead, and label it as such.
    best = None
    for _ in range(max(1, repeats)):
        wall = _pool_overhead() + _greedy_makespan(_scenario_walls(), WORKERS)
        if best is None or wall < best:
            best = wall
    return {
        "metric": "scenarios_per_min",
        "value": n / best * 60.0,
        "scenarios": n,
        "wall_s": best,
        "workers": WORKERS,
        "modeled": True,
        "cores": cores,
    }


#: name -> callable(repeats) -> {"metric", "value", ...}; keys match
#: BENCH_sweep.json's "scenarios" table.
SCENARIOS = {
    "chaos_serial": measure_serial,
    "chaos_jobs8": measure_jobs8,
}


def measure_all(repeats: int = DEFAULT_REPEATS) -> dict[str, dict]:
    return {name: fn(repeats) for name, fn in SCENARIOS.items()}


# -- pytest entry points (opt-in via -m perf / REPRO_PERF=1) ----------------

def test_serial_throughput(report):
    result = measure_serial()
    report(f"sweep chaos_serial: {result['scenarios']} scenarios in "
           f"{result['wall_s']:.2f}s = {result['value']:.1f}/min")
    assert result["value"] > 0


def test_jobs8_throughput(report):
    result = measure_jobs8()
    kind = "modeled" if result["modeled"] else "measured"
    report(f"sweep chaos_jobs8 ({kind}, {result['cores']} cores): "
           f"{result['scenarios']} scenarios in {result['wall_s']:.2f}s "
           f"= {result['value']:.1f}/min")
    assert result["value"] > 0


def test_jobs8_beats_serial_3x(report):
    serial = measure_serial(repeats=1)
    parallel = measure_jobs8(repeats=1)
    speedup = parallel["value"] / serial["value"]
    report(f"sweep speedup at {WORKERS} workers: {speedup:.2f}x")
    assert speedup >= 3.0


if __name__ == "__main__":
    # Regenerate BENCH_sweep.json: "before" on the jobs8 row is the
    # serial throughput, so "speedup" records the fan-out gain.
    import json
    import pathlib

    serial = measure_serial()
    parallel = measure_jobs8()
    baseline = {
        "benchmark": "parallel sweep fabric (chaos sweep, 8 rates)",
        "description": "scenarios/minute: serial vs 8 workers through "
                       "repro.sweep.run_sweep; merged JSON byte-identical",
        "scenarios": {
            "chaos_serial": {
                "metric": "scenarios_per_min",
                "after": round(serial["value"], 1),
                "before": round(serial["value"], 1),
                "speedup": 1.0,
                "scenarios": serial["scenarios"],
            },
            "chaos_jobs8": {
                "metric": "scenarios_per_min",
                "after": round(parallel["value"], 1),
                "before": round(serial["value"], 1),
                "speedup": round(parallel["value"] / serial["value"], 2),
                "scenarios": parallel["scenarios"],
                "workers": parallel["workers"],
                "modeled": parallel["modeled"],
                "cores": parallel["cores"],
            },
        },
        "tolerance": {"scenarios_per_min": 0.35},
    }
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(baseline["scenarios"], indent=2, sort_keys=True))
