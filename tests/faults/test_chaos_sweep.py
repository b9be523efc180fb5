"""The chaos_sweep experiment: recovery keeps completion high under faults."""

import pytest

from repro.experiments import chaos_sweep
from repro.faults import FaultPlan


def test_default_plan_scales_with_rate():
    assert chaos_sweep.default_plan(0.0, 30.0).empty
    plan = chaos_sweep.default_plan(8.0, 30.0)
    assert len(plan) == 4  # 8 per minute over a 30 s window
    times = [ev.at_s for ev in plan.sorted_events()]
    assert times == sorted(times)
    assert all(0.0 < t < 30.0 for t in times)


def test_sweep_faultless_baseline_and_faulted_point():
    # Rate 24/min over a 10 s window = 4 events, including an immediate
    # node crash — enough to force the client through actual retries.
    result = chaos_sweep.run(rates=(0.0, 24.0), window_s=10.0, seed=0)
    baseline, faulted = result.points
    assert baseline.faults_injected == 0
    assert baseline.invocations > 0
    assert baseline.completion_ratio == 1.0
    assert baseline.retries == 0
    assert faulted.faults_injected > 0
    # The paper's point: reclamation is routine, not fatal — retries keep
    # completion high even under injected faults.
    assert faulted.completion_ratio >= 0.95
    assert faulted.retries >= 1


def test_explicit_plan_runs_one_scenario():
    plan = FaultPlan(name="one-storm").lease_storm(at_s=1.0, count=2)
    result = chaos_sweep.run(plan=plan, window_s=5.0, seed=1)
    (point,) = result.points
    assert point.label == "one-storm"
    assert point.faults_injected == 1
    assert point.completion_ratio >= 0.95


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        chaos_sweep.run(window_s=0.0)


def test_format_report_mentions_the_sweep():
    result = chaos_sweep.run(rates=(0.0,), window_s=5.0, seed=0)
    report = result.format_report()
    assert "Chaos sweep" in report
    assert "p95 (ms)" in report
