"""The manager_failover sweep: standbys turn outages into tail latency."""

import pytest

from repro.experiments import manager_failover_sweep


def test_default_plan_pairs_storms_with_manager_faults():
    plan = manager_failover_sweep.default_plan(20.0)
    kinds = [ev.kind for ev in plan]
    assert kinds == ["lease_storm", "manager_crash",
                     "lease_storm", "manager_partition", "node_crash"]
    events = list(plan)
    # The storm shares the fault's timestamp: stable tie order applies
    # the storm first, so revoked clients re-lease into the outage.
    assert events[0].at_s == events[1].at_s
    assert events[2].at_s == events[3].at_s


def test_acceptance_bar_k0_loses_k1_completes():
    result = manager_failover_sweep.run(standbys=(0, 1), window_s=12.0, seed=0)
    lost, ha = result.points
    assert lost.standbys == 0 and ha.standbys == 1
    # k=0: the crash wipes lease state; the storm is rejected wholesale.
    assert lost.completion_ratio < 0.9
    assert lost.failovers == 0
    # k=1: the PR's acceptance criterion — >= 99 % completion with zero
    # double grants and a single primary per epoch.
    assert ha.completion_ratio >= 0.99
    assert ha.failovers >= 1
    assert ha.epochs >= 2
    assert ha.manager_down_retries >= 1
    assert lost.invariants_ok and ha.invariants_ok


def test_more_standbys_change_nothing_when_one_suffices():
    result = manager_failover_sweep.run(standbys=(1, 2), window_s=10.0, seed=0)
    one, two = result.points
    assert one.completion_ratio >= 0.99
    assert two.completion_ratio >= 0.99
    assert one.epochs == two.epochs  # same storm, same elections


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        manager_failover_sweep.run(window_s=0.0)


def test_format_report_mentions_the_sweep():
    result = manager_failover_sweep.run(standbys=(1,), window_s=8.0, seed=0)
    report = result.format_report()
    assert "Manager failover" in report
    assert "invariants" in report
    assert "PASS" in report


def test_scenarios_are_seed_deterministic():
    a = manager_failover_sweep.run(standbys=(1,), window_s=8.0, seed=0)
    b = manager_failover_sweep.run(standbys=(1,), window_s=8.0, seed=0)
    assert a.to_json() == b.to_json()
