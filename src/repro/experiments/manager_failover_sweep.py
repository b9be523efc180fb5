"""Control-plane HA experiment: surviving the resource manager's death.

The same fault storm — a lease storm landing at the very instant the
primary :class:`~repro.rfaas.ResourceManager` crashes, a second storm
during a primary *partition*, and an executor-node crash for good
measure — replayed against control planes with 0, 1, and 2 standby
replicas (``repro.controlplane``).  Clients run under a
:class:`~repro.faults.RetryPolicy`, so a dead manager costs backoff
latency, not failures — *if* a standby exists to take over.

Expected shape: with ``k = 0`` the crash erases all lease state and the
restarted (empty) primary rejects the storm — completion collapses.
With ``k >= 1`` the failure detector promotes a standby within 2–3
heartbeat timeouts, the fenced ex-primary cannot grant after the
partition heals, and completion recovers to >= 99 % at a tail-latency
cost.  Every scenario also replays the chaos-certification invariants
(:mod:`repro.faults.certify`) over the fenced commit log: no double
grants, one primary per epoch, monotone epochs, no silent drops.

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)``; ``SWEEP`` declares the ``manager_failover`` sweep
(``repro managerha``, byte-identical at any ``--jobs`` count) and
:func:`run` is its serial path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..api import ClusterSpec, Platform
from ..containers import Image
from ..controlplane import HAConfig
from ..faults import (
    FaultPlan,
    RecoveryOutcome,
    RetryPolicy,
    check_conservation,
    check_epoch_monotonic,
    check_no_double_grant,
    check_single_primary,
)
from ..interference import ResourceDemand
from ..telemetry import NULL_TELEMETRY, telemetry_of
from .base import Param, Sweep, register_sweep, walk

__all__ = ["FailoverPoint", "default_plan", "scenario", "run", "SWEEP"]

MiB = 1024**2
GiB = 1024**3

#: Standby counts swept by default: the k=0 strawman, the paper-shaped
#: single standby, and a belt-and-braces pair.
DEFAULT_STANDBYS = (0, 1, 2)

#: Deep attempt budget: a manager outage costs several backoff rounds.
SWEEP_POLICY = RetryPolicy(
    max_attempts=7, backoff_base_s=0.05, backoff_multiplier=2.0, backoff_max_s=1.0,
)


@dataclass(frozen=True)
class FailoverPoint:
    """Outcome of one scenario (one standby count)."""

    label: str
    standbys: int
    invocations: int
    completed: int
    p50_ms: float
    p99_ms: float
    manager_down_retries: int
    failovers: int
    epochs: int
    fenced_grants: int
    orphaned_leases: int
    recovered: int
    rejected: int
    invariants_ok: bool

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.invocations if self.invocations else 0.0

    @property
    def verdict(self) -> str:
        return "PASS" if self.invariants_ok else "FAIL"


def default_plan(window_s: float, name: str = "managerha") -> FaultPlan:
    """The canonical storm: clients must re-lease *into* each outage.

    A client holding a valid lease never talks to the manager, so each
    manager fault is paired with a lease storm at the *same* timestamp
    (ties keep plan order: storm first, then the fault) — the revoked
    clients then hit a dead/partitioned control plane and exercise the
    typed :class:`~repro.rfaas.ManagerUnavailableError` retry path.
    """
    return (FaultPlan(name=name)
            .lease_storm(at_s=0.2 * window_s, count=8)
            .manager_crash(at_s=0.2 * window_s, duration_s=0.25 * window_s)
            .lease_storm(at_s=0.55 * window_s, count=8)
            .manager_partition(at_s=0.55 * window_s, duration_s=0.12 * window_s)
            .node_crash(at_s=0.8 * window_s, duration_s=0.1 * window_s,
                        immediate=True))


def _invocation_stream(env, client, outcomes, started, window_s: float,
                       payload_bytes: int):
    """Paced closed-loop invocations.

    The pacing timeout matters: after a k=0 wipe every lease attempt is
    rejected *instantly* (no sim-time cost), and an unpaced loop would
    spin forever in real time.  Rejected attempts stay in ``outcomes``
    so the k=0 row honestly shows the lost work, and ``started`` feeds
    the conservation invariant (started == concluded).
    """
    while env.now < window_s:
        started["n"] += 1
        detailed = yield client.invoke_detailed("noop", payload_bytes=payload_bytes)
        outcomes.append(detailed)
        yield env.timeout(0.005)


def scenario(params: dict, seed: int) -> dict:
    """One standby count as a pure function of ``(params, seed)``."""
    standbys: int = params["standbys"]
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    streams: int = params["streams"]
    heartbeat_interval_s: float = params["heartbeat_interval_s"]
    suspect_after: int = params["suspect_after"]
    collector_active = telemetry_of(None) is not NULL_TELEMETRY
    platform = Platform.build(
        ClusterSpec(nodes=4), seed=seed,
        telemetry=(None if collector_active else True),
        faults=default_plan(window_s),
        ha=HAConfig(standbys=standbys,
                    heartbeat_interval_s=heartbeat_interval_s,
                    suspect_after=suspect_after),
    )
    env = platform.env
    for i in range(1, 4):
        platform.register_node(f"n{i:04d}", cores=4, memory_bytes=8 * GiB)
    image = Image("managerha-noop", size_bytes=50 * MiB)
    platform.functions.register(
        "noop", image, runtime_s=runtime_s,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    client = platform.client("n0000", retry_policy=SWEEP_POLICY)
    outcomes = []
    started = {"n": 0}
    for _ in range(streams):
        platform.process(_invocation_stream(env, client, outcomes, started,
                                            window_s, payload_bytes))
    platform.run_until(window_s + 30.0)
    platform.ha.stop()
    client.close()
    platform.run()

    ha = platform.ha
    census: dict[str, int] = {}
    for d in outcomes:
        census[d.outcome.value] = census.get(d.outcome.value, 0) + 1
    invariants_ok = not (
        check_conservation(started["n"], census)
        or check_no_double_grant(ha.commit_log)
        or check_single_primary(ha.elections, ha.replicas)
        or check_epoch_monotonic(ha.commit_log)
    )
    latencies = [d.elapsed_s for d in outcomes if d.ok]
    p50 = float(np.median(latencies)) if latencies else float("nan")
    p99 = float(np.percentile(latencies, 99)) if latencies else float("nan")
    registry = platform.telemetry.metrics
    return asdict(FailoverPoint(
        label=f"k={standbys}",
        standbys=standbys,
        invocations=len(outcomes),
        completed=sum(1 for d in outcomes if d.ok),
        p50_ms=p50 * 1e3,
        p99_ms=p99 * 1e3,
        manager_down_retries=int(registry.total(
            "repro_faults_retries_total", reason="manager_down")),
        failovers=int(registry.total("repro_controlplane_failovers_total")),
        epochs=ha.epoch,
        fenced_grants=int(registry.total(
            "repro_controlplane_fenced_grants_total")),
        orphaned_leases=int(registry.total(
            "repro_controlplane_orphaned_leases_total")),
        recovered=sum(1 for d in outcomes
                      if d.outcome is RecoveryOutcome.RECOVERED),
        rejected=sum(1 for d in outcomes
                     if d.outcome is RecoveryOutcome.REJECTED),
        invariants_ok=invariants_ok,
    ))


SWEEP = register_sweep(Sweep(
    name="manager_failover",
    description="completion through manager crash/partition, by standby count",
    scenario=scenario,
    point=FailoverPoint,
    axis=walk("standbys", "standbys", "k={}"),
    params=(
        Param("standbys", DEFAULT_STANDBYS, "--standbys", metavar="K1,K2,...",
              help="comma-separated standby counts (default 0,1,2)"),
        Param("window_s", 20.0, "--window", metavar="SECONDS", positive=True,
              help="simulated measurement window per standby count"),
        Param("runtime_s", 0.02),
        Param("payload_bytes", 1024),
        Param("streams", 3),
        Param("heartbeat_interval_s", 0.1),
        Param("suspect_after", 3),
    ),
    meta=("window_s",),
    title="Manager failover — lease storms through primary crash + partition"
          " ({window_s:g}s window)",
    columns=(
        ("standbys", "{p.label}"), ("invocations", "{p.invocations}"),
        ("completed", "{p.completion_ratio:.1%}"),
        ("p50 (ms)", "{p.p50_ms:.3f}"), ("p99 (ms)", "{p.p99_ms:.3f}"),
        ("mgr retries", "{p.manager_down_retries}"),
        ("failovers", "{p.failovers}"), ("epochs", "{p.epochs}"),
        ("fenced", "{p.fenced_grants}"), ("orphaned", "{p.orphaned_leases}"),
        ("invariants", "{p.verdict}"),
    ),
    footer="With zero standbys the crash orphans every lease; one standby"
           " turns the outage into tail latency.",
    command="managerha",
))
run = SWEEP.run_serial
