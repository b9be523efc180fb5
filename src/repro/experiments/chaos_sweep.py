"""Chaos experiment: invocation latency under increasing fault rates.

The fig07 workload (noop invocations against hot executors) replayed
while a :class:`~repro.faults.Injector` crashes nodes, revokes leases,
degrades the interconnect, plants stragglers, and evicts warm
containers.  The client runs under a :class:`~repro.faults.RetryPolicy`
with backoff, so faults cost latency rather than failures; the report
shows, per fault rate, the completion ratio, latency percentiles, and
the recovery overhead (retries, mean recovery time) read back from the
``repro_faults_*`` telemetry metrics.

Expected shape: completion stays >= 95 % across the default sweep —
the point of the paper's ephemeral-resource design is that reclamation
is routine, not fatal — while tail latency grows with the fault rate as
more invocations pay redirect + backoff.

Fully deterministic: the same ``seed`` (and plan) replays the identical
fault schedule, victims, and recovery trace — asserted byte-for-byte by
``tests/faults/test_determinism.py``.

Sweep protocol: :func:`scenario` is a pure module-level function of
``(params, seed)`` so scenarios cross the process-pool boundary of
:func:`repro.sweep.run_sweep`; ``SWEEP`` declares the ``chaos`` sweep
(``repro chaos``) and :func:`run` is its serial path.  Pass ``plan=`` to
replay one explicit :class:`FaultPlan` instead of the rate sweep, and
``memservice=True`` to co-run a remote-paging stream on a replicated
(k=2) memory service, so the same storms also hit durable-memory chunks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..api import ClusterSpec, Platform
from ..containers import Image
from ..faults import FaultPlan, RecoveryOutcome, RetryPolicy
from ..interference import ResourceDemand
from ..memservice import DurableMemoryConfig, RemotePager
from ..rfaas.errors import DataLossError, MemoryServiceUnavailable
from ..telemetry import NULL_TELEMETRY, telemetry_of
from .base import Param, Sweep, register_sweep

__all__ = ["ChaosPoint", "default_plan", "scenario", "run", "SWEEP"]

MiB = 1024**2
GiB = 1024**3

#: Fault events per simulated minute, the sweep's x-axis.
DEFAULT_RATES = (0.0, 4.0, 8.0, 16.0)

#: Client policy used by the sweep: a deeper budget than the default
#: plus a short backoff, so storms do not exhaust attempts instantly.
SWEEP_POLICY = RetryPolicy(
    max_attempts=6, backoff_base_s=0.05, backoff_multiplier=2.0, backoff_max_s=1.0,
)


@dataclass(frozen=True)
class ChaosPoint:
    """Outcome of one scenario (one fault rate, or one explicit plan)."""

    label: str
    faults_injected: int
    invocations: int
    completed: int
    p50_ms: float
    p95_ms: float
    retries: int
    recovered: int
    gave_up: int
    rejected: int
    timed_out: int
    mean_recovery_ms: float

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.invocations if self.invocations else 0.0

    @property
    def failed(self) -> int:
        return self.gave_up + self.rejected + self.timed_out


def default_plan(rate: float, window_s: float, name: str = "") -> FaultPlan:
    """A deterministic plan with ``rate`` faults per simulated minute.

    Events cycle through the whole taxonomy and are spaced evenly
    across the window; crashes heal before the next one lands, so the
    pool never collapses entirely (reclamation is routine, not an
    outage).
    """
    plan = FaultPlan(name=name or f"rate-{rate:g}")
    count = int(round(rate * window_s / 60.0))
    for i in range(count):
        at = (i + 1) * window_s / (count + 1)
        kind = i % 5
        if kind == 0:
            plan.lease_storm(at_s=at, count=2)
        elif kind == 1:
            plan.node_crash(at_s=at, duration_s=min(3.0, window_s / (2 * count)),
                            immediate=True)
        elif kind == 2:
            plan.network_degrade(at_s=at, duration_s=1.0, latency_factor=5.0,
                                 bandwidth_factor=0.5, drop_rate=0.02)
        elif kind == 3:
            plan.straggler(at_s=at, duration_s=2.0, multiplier=20.0)
        else:
            plan.warmpool_pressure(at_s=at, fraction=0.5)
    return plan


def _invocation_stream(env, client, outcomes, window_s: float,
                       payload_bytes: int):
    """Closed-loop noop invocations until the window ends.

    Module-level (not a ``scenario``-local closure) so scenario
    functions stay picklable end to end; all state arrives as
    parameters.
    """
    while env.now < window_s:
        detailed = yield client.invoke_detailed("noop", payload_bytes=payload_bytes)
        outcomes.append(detailed)


def _paging_stream(env, pager, window_s: float):
    """A background remote-paging loop riding the same fault storm."""
    page = 0
    while env.now < window_s:
        yield env.timeout(0.05)
        try:
            yield pager.touch(page % pager.total_pages,
                              dirty=(page % 2 == 0))
        except (DataLossError, MemoryServiceUnavailable):
            pass  # durability outcomes are the memdurability sweep's job
        page += 1


def scenario(params: dict, seed: int) -> dict:
    """One chaos scenario as a pure function of ``(params, seed)``.

    ``params``: ``plan`` (a :class:`FaultPlan`), ``window_s``,
    ``runtime_s``, ``payload_bytes``, ``streams``, ``memservice``.
    Returns the :class:`ChaosPoint` as a plain dict, ready to cross a
    process boundary.
    """
    plan: FaultPlan = params["plan"]
    window_s: float = params["window_s"]
    runtime_s: float = params["runtime_s"]
    payload_bytes: int = params["payload_bytes"]
    streams: int = params["streams"]
    memservice: bool = params["memservice"]
    # Join an active TelemetryCollector (the CLI's --trace/--spans) when
    # there is one; otherwise pin a private scope so the recovery
    # metrics in the report are collected either way.
    collector_active = telemetry_of(None) is not NULL_TELEMETRY
    durable = None
    if memservice:
        # Small k=2 buffer across the executor nodes: the same crash
        # storm then also destroys chunk replicas, exercising migration,
        # repair, and read failover alongside invocation recovery.
        durable = DurableMemoryConfig(
            size_bytes=24 * MiB, chunk_bytes=8 * MiB, replication=2,
            repair_interval_s=0.5, hosts=("n0001", "n0002", "n0003"),
        )
    platform = Platform.build(ClusterSpec(nodes=4), seed=seed,
                              telemetry=(None if collector_active else True),
                              faults=plan, durable_memory=durable)
    env = platform.env
    for i in range(1, 4):
        platform.register_node(f"n{i:04d}", cores=4, memory_bytes=8 * GiB)
    image = Image("chaos-noop", size_bytes=50 * MiB)
    platform.functions.register(
        "noop", image, runtime_s=runtime_s,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    client = platform.client("n0000", retry_policy=SWEEP_POLICY)
    outcomes = []

    for _ in range(streams):
        platform.process(_invocation_stream(env, client, outcomes, window_s,
                                            payload_bytes))
    if durable is not None:
        memory_client = platform.memory_client("n0000", user="chaos-pager")
        pager = RemotePager(env, memory_client, page_bytes=2 * MiB,
                            resident_pages=4)
        platform.process(_paging_stream(env, pager, window_s))
    platform.run_until(window_s + 30.0)
    if platform.durable_memory is not None:
        platform.durable_memory.stop()
    platform.run()

    latencies = [d.elapsed_s for d in outcomes if d.ok]
    p50 = float(np.median(latencies)) if latencies else float("nan")
    p95 = float(np.percentile(latencies, 95)) if latencies else float("nan")
    registry = platform.telemetry.metrics
    recovery_hist = registry.get("repro_faults_recovery_seconds")
    return asdict(ChaosPoint(
        label=plan.name,
        faults_injected=int(registry.total("repro_faults_injected_total")),
        invocations=len(outcomes),
        completed=sum(1 for d in outcomes if d.ok),
        p50_ms=p50 * 1e3,
        p95_ms=p95 * 1e3,
        retries=int(registry.total("repro_faults_retries_total")),
        recovered=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.RECOVERED),
        gave_up=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.GAVE_UP),
        rejected=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.REJECTED),
        timed_out=sum(1 for d in outcomes if d.outcome is RecoveryOutcome.TIMED_OUT),
        mean_recovery_ms=(recovery_hist.mean() * 1e3 if recovery_hist is not None
                          and recovery_hist.count else 0.0),
    ))


def _fault_plans(params: dict):
    """One scenario per rate's :func:`default_plan` — or the single
    explicit ``plan``; every scenario shares the run seed."""
    rates, plan = params.pop("rates"), params.pop("plan")
    plans = ([plan] if plan is not None
             else [default_plan(rate, params["window_s"]) for rate in rates])
    for scenario_plan in plans:
        yield scenario_plan.name, {**params, "plan": scenario_plan}


SWEEP = register_sweep(Sweep(
    name="chaos",
    description="invocation latency under injected faults",
    scenario=scenario,
    point=ChaosPoint,
    axis=_fault_plans,
    params=(
        Param("rates", DEFAULT_RATES, "--rates", metavar="R1,R2,...",
              help="comma-separated fault rates (events per simulated minute)",
              group="plan"),
        Param("window_s", 30.0, "--window", metavar="SECONDS", positive=True,
              help="simulated measurement window per scenario"),
        Param("runtime_s", 0.02),
        Param("payload_bytes", 1024),
        Param("streams", 2),
        Param("plan", None, "--plan", metavar="FILE", parse=FaultPlan.load,
              help="JSON FaultPlan to replay (instead of the built-in rate sweep)",
              group="plan"),
        Param("memservice", False, "--memservice",
              help="co-run a remote-paging stream on a replicated (k=2) memory "
                   "service, so the storm also exercises durable-memory failover"),
    ),
    meta=("window_s",),
    title="Chaos sweep — noop latency under faults ({window_s:g}s window)",
    columns=(
        ("plan", "{p.label}"), ("faults", "{p.faults_injected}"),
        ("invocations", "{p.invocations}"),
        ("completed", "{p.completion_ratio:.1%}"),
        ("p50 (ms)", "{p.p50_ms:.3f}"), ("p95 (ms)", "{p.p95_ms:.3f}"),
        ("retries", "{p.retries}"), ("recovered", "{p.recovered}"),
        ("failed", "{p.failed}"), ("recovery (ms)", "{p.mean_recovery_ms:.3f}"),
    ),
    footer="Reclamation is routine, not fatal: retries keep completion high"
           " while faults tax the tail.",
))
run = SWEEP.run_serial
