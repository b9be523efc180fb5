"""Loadstorm sweep: conservation, shared-seed planning, shard crashes."""

import pytest

from repro.experiments import loadstorm_sweep
from repro.experiments.base import SweepResult
from repro.experiments.loadstorm_sweep import SWEEP, scenario

#: Small enough for the default suite, large enough to exercise batching.
SMALL = dict(window_s=2.0, rate_per_s=600.0, population=50_000,
             nodes=4, cores_per_node=8)


def _point(**overrides):
    params = {
        "shards": 2, "window_s": SMALL["window_s"],
        "rate_per_s": SMALL["rate_per_s"], "population": SMALL["population"],
        "zipf_s": 1.1, "service_s": 0.05, "arrival": "poisson",
        "nodes": SMALL["nodes"], "cores_per_node": SMALL["cores_per_node"],
        "max_batch": 32, "crash_at_frac": 0.0,
    }
    params.update(overrides)
    return scenario(params, seed=0)


def test_every_admitted_request_is_accounted_for():
    point = _point()
    assert point["admitted"] == (
        point["completed"] + point["rejected"] + point["degraded"]
    )
    assert point["conservation_ok"]
    assert point["admitted"] > 0


def test_scenario_is_deterministic():
    assert _point() == _point()


def test_one_seed_is_shared_across_all_points():
    plan = SWEEP.plan(shards=(1, 2, 4), seed=9, **SMALL)
    assert [spec.seed for spec in plan.scenarios] == [9, 9, 9]
    assert [spec.label for spec in plan.scenarios] == [
        "shards=1", "shards=2", "shards=4",
    ]
    # Same seed means the identical trace at every shard count: the
    # admitted column must agree point-to-point.
    points = [spec.execute() for spec in plan.scenarios]
    assert len({p["admitted"] for p in points}) == 1


def test_mmpp_arrivals_run_and_conserve():
    point = _point(arrival="mmpp")
    assert point["conservation_ok"]
    assert point["admitted"] > 0


def test_shard_crash_mid_storm_conserves_and_recovers():
    point = _point(shards=2, crash_at_frac=0.5)
    assert point["crashes"] == 1
    # Crash fencing turns in-flight grants into retries/degraded and
    # revoked leases — never silent drops.
    assert point["admitted"] == (
        point["completed"] + point["rejected"] + point["degraded"]
    )
    assert point["conservation_ok"]
    assert point["completed"] > 0  # the surviving shard kept granting


def test_unknown_arrival_kind_is_rejected():
    with pytest.raises(ValueError):
        _point(arrival="bursty")


def test_assemble_rebuilds_the_typed_result_in_plan_order():
    plan = SWEEP.plan(shards=(2, 1), seed=0, **SMALL)
    points = [spec.execute() for spec in plan.scenarios]
    result = SWEEP.assemble(points, plan.meta)
    assert isinstance(result, SweepResult)
    assert [p.shards for p in result.points] == [2, 1]
    assert result.population == SMALL["population"]
    report = result.format_report()
    assert "shards=2" in report and "conserved" in report


def test_run_shim_matches_serial_protocol():
    result = loadstorm_sweep.run(shards=(1,), seed=0, **SMALL)
    assert len(result.points) == 1
    assert result.points[0].conservation_ok
    text = result.to_json()
    assert text.startswith("{")
