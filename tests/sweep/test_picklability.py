"""Everything that crosses the process-pool boundary must pickle.

The sweep fabric ships :class:`~repro.experiments.base.ScenarioSpec`
objects to workers, and specs embed the experiment configuration
objects — so both the specs of every registered sweep's plan and the
public config types must survive a pickle round-trip unchanged.
"""

import pickle

import pytest

from repro.api import ClusterSpec
from repro.capacity import CapacityConfig
from repro.experiments import (autoscale_sweep, chaos_sweep,
                               gpu_scaling_sweep, memdurability_sweep)
from repro.faults import FaultPlan
from repro.memservice import DurableMemoryConfig


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_fault_plan_roundtrips_with_events():
    plan = (FaultPlan(name="storm")
            .node_crash(at_s=5.0, duration_s=20.0)
            .lease_storm(at_s=8.0, count=4)
            .network_degrade(at_s=12.0, duration_s=3.0, latency_factor=10.0))
    clone = _roundtrip(plan)
    assert clone.name == "storm"
    assert len(clone) == len(plan)
    assert [ev.to_dict() for ev in clone] == [ev.to_dict() for ev in plan]


def test_capacity_config_roundtrips():
    config = CapacityConfig(burst_enabled=False)
    clone = _roundtrip(config)
    assert clone == config


def test_durable_memory_config_roundtrips():
    config = DurableMemoryConfig(replication=3, strict_quorum=True)
    clone = _roundtrip(config)
    assert clone == config


def test_cluster_spec_roundtrips():
    spec = ClusterSpec(nodes=4, jitter=0.0)
    clone = _roundtrip(spec)
    assert clone == spec


@pytest.mark.parametrize("module", [chaos_sweep, autoscale_sweep,
                                    gpu_scaling_sweep, memdurability_sweep])
def test_every_planned_scenario_spec_roundtrips(module):
    for spec in module.SWEEP.plan().scenarios:
        clone = _roundtrip(spec)
        assert clone.label == spec.label
        assert clone.seed == spec.seed
        assert clone.fn is spec.fn  # pickled by reference: module-level
        assert pickle.dumps(clone.params) == pickle.dumps(spec.params)
