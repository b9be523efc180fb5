"""Shard-targeted fault injection through the declarative fault layer."""

import numpy as np
import pytest

from repro.faults import FaultPlan, Injector

from .conftest import build_plane


def test_plan_encodes_shard_target_as_node():
    plan = FaultPlan(name="p").manager_crash(at_s=1.0, duration_s=2.0, shard=3)
    event = plan.events[0]
    assert event.node == "shard-3"
    # The encoding must survive the JSON round-trip the chaos CLI uses.
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.events[0].node == "shard-3"


def test_injector_crashes_the_targeted_shard_only():
    env, plane = build_plane(shards=3, nodes=6)
    plan = FaultPlan(name="p").manager_crash(at_s=0.5, duration_s=0.0, shard=2)
    injector = Injector(env, plan, manager=plane,
                        rng=np.random.default_rng(0))
    injector.start()
    env.run(until=1.0)
    assert not plane.shards[2].available
    assert plane.shards[0].available and plane.shards[1].available
    assert len(injector.injected) == 1
    plane.stop()
    env.run()


def test_injector_restarts_the_shard_after_the_outage():
    env, plane = build_plane(shards=2, nodes=4)
    plan = FaultPlan(name="p").manager_crash(at_s=0.5, duration_s=1.0, shard=1)
    injector = Injector(env, plan, manager=plane,
                        rng=np.random.default_rng(0))
    injector.start()
    env.run(until=1.0)
    assert not plane.shards[1].available
    env.run(until=2.0)
    assert plane.shards[1].available
    plane.stop()
    env.run()


def test_node_recovery_while_every_shard_is_down_fails_as_modeled():
    env, plane = build_plane(shards=1, nodes=2)
    plan = (FaultPlan(name="p")
            .node_crash(at_s=0.5, node="n0001", duration_s=0.5, immediate=True)
            .manager_crash(at_s=0.7, duration_s=1.0, shard=0))
    injector = Injector(env, plan, manager=plane,
                        rng=np.random.default_rng(0))
    injector.start()
    env.run(until=3.0)
    # The plane could not take the node back: the crash is permanent for
    # the run, recorded as a failed recovery rather than an error.
    assert not plane.is_registered("n0001")
    assert plane.shards[0].available
    plane.stop()
    env.run()


def test_untargeted_manager_crash_lands_on_shard_zero():
    env, plane = build_plane(shards=2, nodes=4)
    plan = FaultPlan(name="p").manager_crash(at_s=0.5)
    injector = Injector(env, plan, manager=plane,
                        rng=np.random.default_rng(0))
    injector.start()
    env.run(until=1.0)
    assert not plane.shards[0].available
    assert plane.shards[1].available
    plane.stop()
    env.run()


def test_out_of_range_shard_target_is_skipped_not_fatal():
    env, plane = build_plane(shards=2, nodes=4)
    plan = FaultPlan(name="p").manager_crash(at_s=0.5, shard=9)
    injector = Injector(env, plan, manager=plane,
                        rng=np.random.default_rng(0))
    injector.start()
    env.run(until=1.0)
    assert all(s.available for s in plane.shards)
    assert injector.skipped  # recorded, not silently dropped
    plane.stop()
    env.run()
