"""The parallel runner: merge order, telemetry parts, failure surfacing.

Everything here runs in-process (``jobs=1`` vs a real 2-worker pool in
the same interpreter); the cross-interpreter byte-identity contract is
covered by ``test_parallel_determinism.py``.
"""

import os
from dataclasses import dataclass

import pytest

from repro.experiments.base import Param, Sweep, registered_sweeps, walk
from repro.sweep import (
    SweepScenarioError,
    run_sweep,
    stream_part_path,
)

CHAOS_KWARGS = dict(rates=(0.0, 8.0), window_s=4.0, seed=7)


def test_run_sweep_rejects_bad_jobs_and_unknown_names():
    with pytest.raises(ValueError):
        run_sweep("chaos", jobs=0, **CHAOS_KWARGS)
    with pytest.raises(KeyError):
        run_sweep("no-such-sweep")


def test_parallel_result_matches_serial_in_process():
    serial = run_sweep("chaos", jobs=1, **CHAOS_KWARGS)
    fanned = run_sweep("chaos", jobs=2, **CHAOS_KWARGS)
    assert fanned.to_json() == serial.to_json()


def test_excess_jobs_are_clamped_to_the_scenario_count():
    # 2 scenarios, 8 requested workers: still correct, still merged in order.
    result = run_sweep("chaos", jobs=8, **CHAOS_KWARGS)
    assert [p["label"] for p in result.to_dict()["points"]] == \
           ["rate-0", "rate-8"]


def test_stream_spans_merges_parts_in_plan_order(tmp_path):
    stream = tmp_path / "spans.jsonl"
    stats = {}
    run_sweep("chaos", jobs=2, stream_spans=str(stream), stream_stats=stats,
              **CHAOS_KWARGS)
    assert stream.exists()
    # Part files are consumed by the merge, never left behind.
    for index in range(4):
        assert not os.path.exists(stream_part_path(str(stream), index))
    lines = stream.read_text().strip().splitlines()
    assert stats["seen"] == len(lines) > 0
    assert stats["parts"] == 2
    assert stats["peak_retained"] > 0


def test_stream_bytes_identical_at_every_jobs_count(tmp_path):
    streams = {}
    for jobs in (1, 2):
        path = tmp_path / f"spans-{jobs}.jsonl"
        run_sweep("chaos", jobs=jobs, stream_spans=str(path), **CHAOS_KWARGS)
        streams[jobs] = path.read_bytes()
    assert streams[1] == streams[2]


# -- failure contract --------------------------------------------------------

def _boom(params, seed):
    if params["rate"]:
        raise RuntimeError(f"kaboom-{params['rate']}")
    return {"rate": params["rate"]}


@dataclass(frozen=True)
class _RatePoint:
    rate: float


FAILING = Sweep(name="failing-test-sweep", description="always fails",
                scenario=_boom, point=_RatePoint,
                axis=walk("rates", "rate", "rate-{:g}"),
                params=(Param("rates", (0.0, 8.0)),))


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_surfaces_the_original_traceback(jobs):
    with pytest.raises(SweepScenarioError) as excinfo:
        run_sweep(FAILING, jobs=jobs)
    message = str(excinfo.value)
    # The failing scenario is named and the worker's real stack — down to
    # the raising frame — crossed the pool boundary.
    assert excinfo.value.label == "rate-8"
    assert "kaboom-8.0" in message
    assert "RuntimeError" in message and "_boom" in message


def test_failing_sweeps_are_not_registered():
    assert FAILING.name not in registered_sweeps()
