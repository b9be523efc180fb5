"""Autoscale experiment: predictive vs reactive warm pools under load.

The capacity control plane (:mod:`repro.capacity`) governs every
invocation: forecast → admission (token buckets, bounded queue) →
harvested-pool placement → cloud-burst overflow.  This sweep replays the
same deterministic open-loop arrival schedule at increasing load
multipliers, twice per load — once with the warm-pool autoscaler
*reactive* (pools grow on miss, the seed system's behaviour) and once
*predictive* (pools resized ahead of the forecast) — and reports, per
scenario: p50/p99 latency, warm-start rate, admission-reject rate, burst
fraction, and the accumulated cloud-burst bill.

A node-crash plan runs by default (pass ``crash=False`` to disable): mid-
window crashes wipe two executor nodes' pools, the nodes heal and
re-register empty, and the difference between the modes becomes visible —
the predictive loop re-provisions the recovered nodes before traffic
lands on them, the reactive baseline pays the cold starts in-band.

Conservation invariant (asserted here, required by the ISSUE): every
arrival completes on HPC, completes on the cloud with its cost
accounted, or is explicitly rejected — nothing is silently dropped.

Fully deterministic: same seed ⇒ identical JSON (asserted across fresh
interpreters by ``tests/capacity/test_autoscale_determinism.py``).

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; ``SWEEP`` declares the ``autoscale`` sweep and
:func:`run` is its serial path (``repro autoscale --jobs N`` fans
scenarios out).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..api import ClusterSpec, Platform
from ..capacity import (
    AdmissionConfig,
    AutoscalerConfig,
    CapacityConfig,
    TenantQuota,
)
from ..containers import Image
from ..faults import FaultPlan
from ..interference import ResourceDemand
from ..telemetry import NULL_TELEMETRY, telemetry_of
from .base import Param, Sweep, register_sweep

__all__ = ["AutoscalePoint", "default_crash_plan", "scenario", "run", "SWEEP"]

MiB = 1024**2
GiB = 1024**3

#: Load multipliers swept by default (1x = DEFAULT_RATE arrivals/s).
DEFAULT_LOADS = (1.0, 4.0, 16.0)

#: Aggregate arrival rate at load 1.0, in invocations per second.
DEFAULT_RATE = 4.0

#: Executor nodes registered with the harvested pool (n0000 hosts clients).
EXECUTORS = ("n0001", "n0002", "n0003", "n0004")


@dataclass(frozen=True)
class AutoscalePoint:
    """Outcome of one (load multiplier, autoscaler mode) scenario."""

    load: float
    mode: str                     # "reactive" | "predictive"
    invocations: int
    completed: int                # served on harvested HPC capacity
    bursts: int                   # served on the cloud overflow
    rejected: int                 # explicit AdmissionRejected backpressure
    warm_start_rate: float        # HPC completions that skipped the cold start
    cold_starts: int              # cold starts paid by invocations (not prewarm)
    prewarms: int                 # containers started ahead of demand
    p50_ms: float
    p99_ms: float
    mean_queue_wait_ms: float
    burst_cost: float
    faults_injected: int

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.invocations if self.invocations else 0.0

    @property
    def burst_fraction(self) -> float:
        return self.bursts / self.invocations if self.invocations else 0.0


def default_crash_plan(window_s: float) -> FaultPlan:
    """A crash storm: every executor node crashes once, staggered.

    Each crash wipes the node's warm pool and attached containers; the
    node heals and re-registers *empty*, which is exactly where
    predictive re-provisioning pays off — the reactive baseline pays the
    recovered nodes' cold starts in-band on the next spillover.
    """
    heal = max(1.0, window_s / 10.0)
    plan = FaultPlan(name="autoscale-crash")
    for i, node in enumerate(EXECUTORS):
        at = window_s * (0.25 + 0.15 * i)
        plan.node_crash(at_s=at, node=node, duration_s=heal, immediate=True)
    return plan


def _capacity_config(predictive: bool) -> CapacityConfig:
    return CapacityConfig(
        autoscaler=AutoscalerConfig(predictive=predictive),
        # Quotas sized so backpressure engages only at the extreme end of
        # the default sweep (per-tenant rate passes 3/s at 16x load).
        admission=AdmissionConfig(
            max_queue_depth=16,
            max_queue_wait_s=0.5,
            default_quota=TenantQuota(rate_per_s=3.0, burst=6.0),
        ),
    )


def _govern_one(plane, client, tenant: str, function: str,
                payload_bytes: int, results):
    """One governed invocation (module-level so scenarios stay picklable)."""
    result = yield plane.invoke(client, function,
                                payload_bytes=payload_bytes, tenant=tenant)
    results.append(result)


def _arrival_source(env, plane, clients, names, results, load: float,
                    base_rate_per_s: float, window_s: float,
                    payload_bytes: int):
    """Deterministic open-loop arrivals: evenly spaced, tenants
    round-robin (each pinned to one function), independent of how long
    each invocation takes."""
    rate = base_rate_per_s * load
    count = int(round(rate * window_s))
    gap = 1.0 / rate
    for i in range(count):
        client = clients[i % len(clients)]
        function = names[(i % len(clients)) % len(names)]
        env.process(
            _govern_one(plane, client, client.name, function, payload_bytes,
                        results),
            name=f"arrival-{i}",
        )
        yield env.timeout(gap)


def scenario(params: dict, seed: int) -> dict:
    """One autoscale scenario as a pure function of ``(params, seed)``.

    ``params``: ``load``, ``predictive``, ``window_s``, ``runtime_s``,
    ``payload_bytes``, ``tenants``, ``base_rate_per_s``, ``plan``
    (a :class:`FaultPlan` or None).  Returns the
    :class:`AutoscalePoint` as a plain dict.
    """
    load: float = params["load"]
    predictive: bool = params["predictive"]
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    tenants: int = params["tenants"]
    base_rate_per_s: float = params["base_rate_per_s"]
    plan: Optional[FaultPlan] = params["plan"]
    # Join an active TelemetryCollector (the CLI's --trace/--spans) when
    # there is one; otherwise pin a private scope for the metrics below.
    collector_active = telemetry_of(None) is not NULL_TELEMETRY
    platform = Platform.build(
        ClusterSpec(nodes=5, jitter=0.0), seed=seed,
        telemetry=(None if collector_active else True),
        faults=plan,
        capacity=_capacity_config(predictive),
    )
    env = platform.env
    # One executor core per node: the harvested pool (4 slots) is scarce
    # relative to the tenant count, so lease contention — and with it the
    # burst fraction — grows with the load multiplier.
    for node in EXECUTORS:
        platform.register_node(node, cores=1, memory_bytes=8 * GiB)
    # Several functions with distinct images: warmth is per (node, image),
    # so spillover keeps re-exposing cold starts instead of saturating
    # after one touch per node.
    names = []
    for f in range(3):
        image = Image(f"autoscale-img{f}", size_bytes=150 * MiB,
                      runtime_memory_bytes=256 * MiB)
        name = f"fn{f}"
        platform.functions.register(
            name, image, runtime_s=runtime_s,
            demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
            output_bytes=1,
        )
        names.append(name)
    plane = platform.capacity
    clients = [platform.client("n0000", name=f"tenant-{i:02d}")
               for i in range(tenants)]
    results = []

    platform.process(_arrival_source(env, plane, clients, names, results,
                                     load, base_rate_per_s, window_s,
                                     payload_bytes))
    # Let the window play out (plus slack for stragglers), then stop the
    # autoscaler's control loop so the event queue can fully drain.
    platform.run_until(window_s + 5.0)
    plane.stop()
    platform.run()
    for client in clients:
        client.close()

    stats = plane.stats()
    assert stats["completed"] + stats["rejected"] + stats["bursts"] \
        == stats["invocations"] == len(results), "an invocation went missing"

    hpc = [r for r in results if r.route == "hpc"]
    served = [r for r in results if r.route in ("hpc", "cloud")]
    warm = sum(1 for r in hpc if r.startup_kind != "cold")
    latencies = [r.latency_s for r in served]
    waits = [r.queue_wait_s for r in served]
    invocation_colds = sum(1 for r in hpc if r.startup_kind == "cold")
    registry = platform.telemetry.metrics
    faults = registry.total("repro_faults_injected_total")
    return asdict(AutoscalePoint(
        load=load,
        mode="predictive" if predictive else "reactive",
        invocations=len(results),
        completed=len(hpc),
        bursts=sum(1 for r in results if r.route == "cloud"),
        rejected=sum(1 for r in results if r.route == "rejected"),
        warm_start_rate=round(warm / len(hpc), 6) if hpc else 0.0,
        cold_starts=invocation_colds,
        prewarms=plane.autoscaler.prewarms,
        p50_ms=round(float(np.median(latencies)) * 1e3, 6) if latencies else 0.0,
        p99_ms=round(float(np.percentile(latencies, 99)) * 1e3, 6) if latencies else 0.0,
        mean_queue_wait_ms=round(float(np.mean(waits)) * 1e3, 6) if waits else 0.0,
        burst_cost=round(stats["burst_cost"], 9),
        faults_injected=int(faults),
    ))


def _loads_by_mode(params: dict):
    """Each load reactive, then predictive, all replaying the same
    schedule — and, unless ``crash=False`` or an explicit ``plan``
    overrides it, the same :func:`default_crash_plan` storm."""
    loads, crash = params.pop("loads"), params.pop("crash")
    if params["plan"] is None and crash:
        params["plan"] = default_crash_plan(params["window_s"])
    for load in loads:
        for mode in ("reactive", "predictive"):
            yield f"{load:g}x-{mode}", {**params, "load": load,
                                        "predictive": mode == "predictive"}


SWEEP = register_sweep(Sweep(
    name="autoscale",
    description="predictive vs reactive warm pools under load",
    scenario=scenario,
    point=AutoscalePoint,
    axis=_loads_by_mode,
    params=(
        Param("loads", DEFAULT_LOADS, "--loads", metavar="L1,L2,...",
              positive=True,
              help="comma-separated load multipliers (default 1,4,16)"),
        Param("window_s", 20.0, "--window", metavar="SECONDS", positive=True,
              help="simulated arrival window per scenario"),
        Param("runtime_s", 0.15),
        Param("payload_bytes", 1024),
        Param("tenants", 10, positive=True),
        Param("base_rate_per_s", DEFAULT_RATE),
        Param("crash", True, "--no-crash", group="plan",
              help="disable the default node-crash storm"),
        Param("plan", None, "--plan", metavar="FILE", parse=FaultPlan.load,
              group="plan",
              help="JSON FaultPlan to replay (instead of the built-in crash storm)"),
    ),
    meta=("window_s",),
    title="Autoscale sweep — predictive vs reactive warm pools ({window_s:g}s window)",
    columns=(
        ("load", "{p.load:g}x"), ("mode", "{p.mode}"),
        ("arrivals", "{p.invocations}"), ("hpc", "{p.completed}"),
        ("cloud", "{p.bursts}"), ("rejected", "{p.rejected}"),
        ("warm", "{p.warm_start_rate:.1%}"), ("prewarms", "{p.prewarms}"),
        ("p50 (ms)", "{p.p50_ms:.3f}"), ("p99 (ms)", "{p.p99_ms:.3f}"),
        ("burst", "{p.burst_fraction:.1%}"), ("burst cost", "{p.burst_cost:.6f}"),
    ),
    footer="Every arrival is accounted for: served on harvested HPC cores,"
           " overflowed to the cloud (billed), or explicitly rejected.",
))
run = SWEEP.run_serial
