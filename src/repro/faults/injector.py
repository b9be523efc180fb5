"""The fault injector: replays a :class:`FaultPlan` against a live platform.

The injector is one simulation process that walks the plan in time
order and applies each fault through the *public hooks* of the layer it
targets — ``ResourceManager.remove_node`` / ``revoke_lease`` for
crashes and revocation storms, the fabric's
:class:`~repro.network.transport.LinkConditioner` for degradation and
partitions, ``Executor.dispatch_multiplier`` for stragglers,
``WarmPool.evict_fraction`` for memory pressure, and
``ReplicatedMemoryService.kill_node`` for durable-memory replica
destruction.  Nothing is
monkeypatched, so a fault-injected run exercises exactly the code paths
a real reclamation would.

Determinism contract: the injector draws every random choice (victim
node, storm victims, message-loss stream) from its own seeded rng, and
applies faults at plan-specified simulated times.  Same seed + same
plan ⇒ the same faults hit the same victims at the same instants, and
the whole run replays bit-identically (asserted by
``tests/faults/test_determinism.py``).  An *empty* plan schedules no
events and draws no randomness: the run is indistinguishable from one
without an injector.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.node import AllocationError
from ..rfaas.errors import ManagerUnavailableError, StaleEpochError
from ..sim.engine import Environment, Process
from ..telemetry import telemetry_of
from .plan import FaultEvent, FaultKind, FaultPlan

__all__ = ["Injector"]


class Injector:
    """Schedules the faults of one plan onto one platform instance."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        manager,                      # ResourceManager (duck-typed)
        fabric=None,                  # NetworkFabric, for network faults
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        memservice=None,              # ReplicatedMemoryService, for memservice faults
        gpuservice=None,              # GpuService, for gpu_device_loss faults
        controlplane=None,            # ReplicatedResourceManager, for manager faults
    ):
        self.env = env
        self.plan = plan
        self.manager = manager
        self.fabric = fabric
        self.memservice = memservice
        self.gpuservice = gpuservice
        # When the manager handed in *is* the replicated control plane,
        # the manager fault kinds target it directly.
        if controlplane is None and hasattr(manager, "crash_primary"):
            controlplane = manager
        self.controlplane = controlplane
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._process: Optional[Process] = None
        #: (time, kind, target) triples of faults actually applied.
        self.injected: list[tuple[float, str, Optional[str]]] = []
        #: events that found no viable target (e.g. nothing registered).
        self.skipped: list[FaultEvent] = []
        needs_fabric = {FaultKind.NETWORK_DEGRADE, FaultKind.NETWORK_PARTITION}
        if fabric is None and any(ev.kind in needs_fabric for ev in plan):
            raise ValueError("plan contains network faults but no fabric was given")
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_injected = {
            kind: metrics.counter(
                "repro_faults_injected_total", labels={"kind": kind},
                help="faults applied, by kind",
            )
            for kind in FaultKind.ALL
        }
        self._m_recoveries = metrics.counter(
            "repro_faults_node_recoveries_total",
            help="crashed nodes re-registered after their outage window",
        )

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._process is not None

    def start(self) -> Optional[Process]:
        """Schedule the plan; returns the driver process (None if empty).

        An empty plan is a guaranteed no-op: no process, no events, no
        random draws — the simulation replays exactly as without an
        injector.
        """
        if self._process is not None:
            raise RuntimeError("injector already started")
        if self.plan.empty:
            return None
        self._process = self.env.process(
            self._drive(), name=f"fault-injector:{self.plan.name}"
        )
        return self._process

    def _drive(self):
        for event in self.plan.sorted_events():
            delay = event.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(event)
        return len(self.injected)

    # -- application ---------------------------------------------------------
    def _note(self, event: FaultEvent, target: Optional[str], **attrs) -> None:
        self.injected.append((self.env.now, event.kind, target))
        self._m_injected[event.kind].inc()
        self._tracer.instant(
            f"fault.{event.kind}", track="faults", node=target, **attrs
        )

    def _pick_node(self, event: FaultEvent) -> Optional[str]:
        """The event's target node, or a seeded pick among registered ones."""
        if event.node is not None:
            return event.node if self.manager.is_registered(event.node) else None
        candidates = self.manager.registered_nodes()   # sorted, deterministic
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            FaultKind.NODE_CRASH: self._apply_node_crash,
            FaultKind.LEASE_STORM: self._apply_lease_storm,
            FaultKind.NETWORK_DEGRADE: self._apply_network_degrade,
            FaultKind.NETWORK_PARTITION: self._apply_network_partition,
            FaultKind.STRAGGLER: self._apply_straggler,
            FaultKind.WARMPOOL_PRESSURE: self._apply_warmpool_pressure,
            FaultKind.MEMSERVICE_KILL: self._apply_memservice_kill,
            FaultKind.GPU_DEVICE_LOSS: self._apply_gpu_device_loss,
            FaultKind.MANAGER_CRASH: self._apply_manager_crash,
            FaultKind.MANAGER_PARTITION: self._apply_manager_partition,
        }[event.kind]
        try:
            handler(event)
        except ManagerUnavailableError:
            # The event needed the control plane mid-outage (e.g. a
            # lease storm while the primary is down): deterministic
            # skip — the manager could not have served it either way.
            self.skipped.append(event)

    def _apply_node_crash(self, event: FaultEvent) -> None:
        node = self._pick_node(event)
        if node is None:
            self.skipped.append(event)
            return
        registration = self.manager.registration_of(node)
        self.manager.remove_node(node, immediate=event.immediate)
        self._note(event, node, immediate=event.immediate,
                   duration=event.duration_s)
        if event.duration_s > 0:
            self.env.process(
                self._recover_node(registration, event.duration_s),
                name=f"fault-recover:{node}",
            )

    def _recover_node(self, registration: dict, outage_s: float):
        yield self.env.timeout(outage_s)
        node = registration["node_name"]
        if self.manager.is_registered(node):
            return  # someone else brought it back
        try:
            self.manager.register_node(**registration)
        except (AllocationError, ManagerUnavailableError, StaleEpochError):
            # The batch system took the capacity while the node was
            # down, or the (HA) control plane could not accept the
            # registration; the crash becomes permanent for this run.
            # Anything else is a bug and propagates.
            self._tracer.instant("fault.recovery_failed", track="faults", node=node)
            return
        self._m_recoveries.inc()
        self._tracer.instant("fault.node_recovered", track="faults", node=node)

    def _apply_lease_storm(self, event: FaultEvent) -> None:
        leases = self.manager.active_leases()  # ordered by lease id
        if not leases:
            self.skipped.append(event)
            return
        count = min(event.count, len(leases))
        picks = self.rng.choice(len(leases), size=count, replace=False)
        for index in sorted(int(i) for i in picks):
            lease, _node = leases[index]
            self.manager.revoke_lease(lease, reason="storm")
        self._note(event, None, revoked=count)

    def _apply_network_degrade(self, event: FaultEvent) -> None:
        conditioner = self.fabric.conditioner
        conditioner.degrade(
            latency_factor=event.magnitude,
            bandwidth_factor=event.bandwidth_factor,
        )
        if event.drop_rate > 0:
            loss_rng = np.random.default_rng(int(self.rng.integers(2**32)))
            conditioner.set_loss(event.drop_rate, rng=loss_rng)
        self._note(event, None, latency_factor=event.magnitude,
                   bandwidth_factor=event.bandwidth_factor,
                   drop_rate=event.drop_rate, duration=event.duration_s)
        if event.duration_s > 0:
            self.env.process(self._restore_network(event.duration_s),
                             name="fault-restore:network")

    def _restore_network(self, duration_s: float):
        yield self.env.timeout(duration_s)
        self.fabric.conditioner.restore()
        self._tracer.instant("fault.network_restored", track="faults")

    def _apply_network_partition(self, event: FaultEvent) -> None:
        node = self._pick_node(event)
        if node is None:
            self.skipped.append(event)
            return
        self.fabric.conditioner.partition([node])
        self._note(event, node, duration=event.duration_s)
        if event.duration_s > 0:
            self.env.process(self._heal_partition(node, event.duration_s),
                             name=f"fault-heal:{node}")

    def _heal_partition(self, node: str, duration_s: float):
        yield self.env.timeout(duration_s)
        self.fabric.conditioner.heal([node])
        self._tracer.instant("fault.partition_healed", track="faults", node=node)

    def _apply_straggler(self, event: FaultEvent) -> None:
        node = self._pick_node(event)
        if node is None:
            self.skipped.append(event)
            return
        executor = self.manager.node_info(node).executor
        executor.dispatch_multiplier = event.magnitude
        self._note(event, node, multiplier=event.magnitude,
                   duration=event.duration_s)
        if event.duration_s > 0:
            self.env.process(self._unstraggle(executor, node, event.duration_s),
                             name=f"fault-unstraggle:{node}")

    def _unstraggle(self, executor, node: str, duration_s: float):
        yield self.env.timeout(duration_s)
        executor.dispatch_multiplier = 1.0
        self._tracer.instant("fault.straggler_healed", track="faults", node=node)

    def _apply_warmpool_pressure(self, event: FaultEvent) -> None:
        node = self._pick_node(event)
        if node is None:
            self.skipped.append(event)
            return
        pool = self.manager.node_info(node).warm_pool
        freed = pool.evict_fraction(event.magnitude, swap=event.swap)
        self._note(event, node, fraction=event.magnitude, freed_bytes=freed)

    def _apply_memservice_kill(self, event: FaultEvent) -> None:
        """Destroy every durable-memory replica on one hosting node.

        The victim comes from the service's *hosting* set (sorted, so the
        seeded pick is deterministic), not the executor registry — memory
        service buffers live wherever placement put them.
        """
        service = self.memservice
        if service is None:
            self.skipped.append(event)
            return
        hosts = service.hosting_nodes()
        if event.node is not None:
            node = event.node if event.node in hosts else None
        elif hosts:
            node = hosts[int(self.rng.integers(len(hosts)))]
        else:
            node = None
        if node is None:
            self.skipped.append(event)
            return
        lost = service.kill_node(node, cause=FaultKind.MEMSERVICE_KILL)
        self._note(event, node, replicas_lost=lost)

    def _apply_gpu_device_loss(self, event: FaultEvent) -> None:
        """Lose every GPU device on one hosting node.

        Like ``memservice_kill``, the victim comes from the GPU service's
        *hosting* set (sorted, so the seeded pick is deterministic):
        devices live wherever the service config placed them, not in the
        executor registry.  The service revokes the devices' fractional
        leases and replays queued/in-flight batches on survivors.
        """
        service = self.gpuservice
        if service is None:
            self.skipped.append(event)
            return
        hosts = service.hosting_nodes()
        if event.node is not None:
            node = event.node if event.node in hosts else None
        elif hosts:
            node = hosts[int(self.rng.integers(len(hosts)))]
        else:
            node = None
        if node is None:
            self.skipped.append(event)
            return
        lost = service.lose_node(node, cause=FaultKind.GPU_DEVICE_LOSS)
        self._note(event, node, devices_lost=lost, duration=event.duration_s)
        if event.duration_s > 0:
            self.env.process(self._restore_gpu_node(node, event.duration_s),
                             name=f"fault-gpu-restore:{node}")

    def _restore_gpu_node(self, node: str, outage_s: float):
        yield self.env.timeout(outage_s)
        restored = self.gpuservice.restore_node(node)
        if restored:
            self._tracer.instant("fault.gpu_node_restored", track="faults",
                                 node=node, devices=restored)

    def _apply_manager_crash(self, event: FaultEvent) -> None:
        """Kill a control-plane primary replica.

        Untargeted (``event.node`` unset), the victim is whoever leads
        *at injection time* — no seeded pick, since a replicated manager
        has exactly one primary.  Against a sharded control plane
        (:mod:`repro.shard`) the event may name ``"shard-N"``
        (``FaultPlan.manager_crash(shard=N)``) to kill that shard's
        manager specifically.  Skipped when the platform runs a bare
        unreplicated manager, no primary is up to kill, or the shard
        target does not resolve.
        """
        if self.controlplane is None:
            self.skipped.append(event)
            return
        target = event.node
        if target is not None and target.startswith("shard-"):
            if not hasattr(self.controlplane, "crash_shard"):
                self.skipped.append(event)
                return
            index = int(target.removeprefix("shard-"))
            if not 0 <= index < len(self.controlplane.shards):
                self.skipped.append(event)
                return
            victim = self.controlplane.crash_shard(index, outage_s=event.duration_s)
        else:
            victim = self.controlplane.crash_primary(outage_s=event.duration_s)
        if victim is None:
            self.skipped.append(event)
            return
        self._note(event, victim, duration=event.duration_s)

    def _apply_manager_partition(self, event: FaultEvent) -> None:
        """Cut the current primary off from clients and standbys."""
        if self.controlplane is None:
            self.skipped.append(event)
            return
        victim = self.controlplane.partition_primary(heal_after_s=event.duration_s)
        if victim is None:
            self.skipped.append(event)
            return
        self._note(event, victim, duration=event.duration_s)
