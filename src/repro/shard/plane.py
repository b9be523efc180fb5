"""The sharded control plane: N manager shards behind one front door.

PR 9 made the resource manager *replicated*; it is still one
serialization point for every tenant.  :class:`ShardedControlPlane`
removes that by consistent-hashing tenants onto ``shards`` independent
:class:`~repro.rfaas.manager.ResourceManager` instances — each
optionally HA-wrapped in a
:class:`~repro.controlplane.ha.ReplicatedResourceManager` — so lease
churn scales horizontally with client count (the Function Delivery
Network premise, applied to the rFaaS lease model).

Mechanics:

* **Placement** — :class:`~repro.shard.ring.HashRing` maps a tenant to
  its home shard; every grant/release/revoke for that tenant funnels
  through that shard's :class:`~repro.shard.batch.ShardBatcher`, which
  charges the batched serialization cost in sim time.
* **Nodes** — registrations spread across shards (least registered
  cores first); each shard only ever places leases on its own nodes.
* **Cross-shard migration on drain** — when the batch system retrieves
  a node (:meth:`drain_node`), :meth:`rebalance` moves *idle* nodes
  from capacity-rich shards to starved ones, so one shard's reclaim
  does not strand its tenants while neighbours sit on free cores.
* **Shard-targeted faults** — :meth:`crash_shard` kills one shard: an
  HA-wrapped shard fails over via its replica group; a bare shard
  models lease-expiry fencing (every active lease cancelled) and
  rejects ops with :class:`ManagerUnavailableError` until it restarts.
  :meth:`crash_primary` aliases shard 0 so the fault injector's
  control-plane auto-detection works unchanged.
* **Conservation** — the no-silent-drops invariant, global across
  shards: every submitted op is applied or failed
  (``ops_submitted == ops_applied + ops_failed + queued``), and every
  lease ever granted ends exactly one of ACTIVE / RELEASED / CANCELLED
  (:meth:`conservation` / :meth:`conservation_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..controlplane import HAConfig, ReplicatedResourceManager
from ..cluster.machine import Cluster
from ..rfaas.errors import (
    ManagerUnavailableError,
    NoCapacityError,
    StaleEpochError,
)
from ..rfaas.lease import Lease, LeaseState
from ..rfaas.manager import ResourceManager
from ..sim.engine import Environment, Event
from ..telemetry import telemetry_of
from .batch import BatchOp, ShardBatcher
from .ring import HashRing

__all__ = ["ShardConfig", "Shard", "ShardedControlPlane"]


@dataclass(frozen=True)
class ShardConfig:
    """Shape and cost model of the sharded control plane."""

    #: Manager shards (N >= 1). 1 reproduces the unsharded plane.
    shards: int = 4
    #: Virtual nodes per shard on the hash ring.
    vnodes: int = 64
    #: Max ops one batch flush applies.
    max_batch: int = 32
    #: Fixed sim-time cost per batch flush (amortized by batching).
    batch_overhead_s: float = 5e-4
    #: Per-op sim-time cost — the serialization floor that saturates a
    #: single shard and motivates horizontal scale.
    per_op_s: float = 2e-4
    #: HA-wrap every shard with this replica config (None = bare shards).
    ha: Optional[HAConfig] = None
    #: Period of the automatic rebalance loop; 0 disables it (rebalance
    #: then runs only on drain_node / explicit calls).
    rebalance_interval_s: float = 0.0

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_overhead_s < 0 or self.per_op_s < 0:
            raise ValueError("batch costs must be non-negative")
        if self.rebalance_interval_s < 0:
            raise ValueError("rebalance_interval_s must be >= 0")


class Shard:
    """One manager shard: its manager, batcher, and liveness state."""

    def __init__(self, index: int, manager, batcher: ShardBatcher):
        self.index = index
        #: ResourceManager, or ReplicatedResourceManager when HA-wrapped.
        self.manager = manager
        self.batcher = batcher
        #: Bare-shard outage flag (HA shards track liveness themselves).
        self.down = False

    @property
    def ha(self) -> Optional[ReplicatedResourceManager]:
        if isinstance(self.manager, ReplicatedResourceManager):
            return self.manager
        return None

    @property
    def available(self) -> bool:
        """Would a mutation be accepted right now?"""
        ha = self.ha
        if ha is not None:
            return ha.available
        return not self.down

    def idle_nodes(self) -> list[str]:
        """Registered nodes with no active lease (safe to migrate)."""
        out = []
        for name in self.manager.registered_nodes():
            info = self.manager.node_info(name)
            if not any(entry[0].active for entry in info.leases.values()):
                out.append(name)
        return out


class ShardedControlPlane:
    """N manager shards, one tenant-facing front door."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        config: Optional[ShardConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.config = config if config is not None else ShardConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.ring = HashRing(range(self.config.shards), vnodes=self.config.vnodes)
        self._node_shard: dict[str, int] = {}
        self._lease_shard: dict[int, int] = {}
        #: Every lease this plane ever granted (the conservation ledger).
        self._leases: dict[int, Lease] = {}
        self.migrations = 0
        self._stopped = False

        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_grants = [
            metrics.counter("repro_shard_grants_total",
                            labels={"shard": str(i)},
                            help="leases granted, per shard")
            for i in range(self.config.shards)
        ]
        self._m_batches = [
            metrics.counter("repro_shard_batches_total",
                            labels={"shard": str(i)},
                            help="batch flushes, per shard")
            for i in range(self.config.shards)
        ]
        self._g_depth = [
            metrics.gauge("repro_shard_queue_depth_count",
                          labels={"shard": str(i)},
                          help="ops queued at the shard batcher")
            for i in range(self.config.shards)
        ]
        self._h_batch_ops = metrics.histogram(
            "repro_shard_batch_ops_count",
            help="ops applied per batch flush",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._h_grant_latency = metrics.histogram(
            "repro_shard_grant_latency_seconds",
            help="submit -> grant-applied latency through the batcher",
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
        )
        self._m_rejected = metrics.counter(
            "repro_shard_rejected_total",
            help="ops failed with NoCapacityError",
        )
        self._m_unavailable = metrics.counter(
            "repro_shard_unavailable_total",
            help="ops failed because the owning shard was down or fenced",
        )
        self._m_migrations = metrics.counter(
            "repro_shard_migrations_total",
            help="idle nodes migrated between shards",
        )
        self._m_crashes = metrics.counter(
            "repro_shard_crashes_total", help="shard crashes injected",
        )

        seeds = rng.integers(0, 2**31 - 1, size=self.config.shards)
        self.shards: list[Shard] = []
        for index in range(self.config.shards):
            inner = ResourceManager(
                env, cluster, rng=np.random.default_rng(int(seeds[index])),
            )
            manager = inner
            if self.config.ha is not None:
                manager = ReplicatedResourceManager(env, inner, self.config.ha)
                manager.start()
            shard = Shard(index, manager, None)
            shard.batcher = ShardBatcher(
                env, index,
                apply=lambda op, s=shard: self._apply(s, op),
                max_batch=self.config.max_batch,
                batch_overhead_s=self.config.batch_overhead_s,
                per_op_s=self.config.per_op_s,
                on_flush=self._flushed,
            )
            self.shards.append(shard)
        if self.config.rebalance_interval_s > 0:
            env.process(self._rebalance_loop(), name="shard-rebalancer")

    # -- lifecycle ---------------------------------------------------------------
    def stop(self) -> None:
        """Stop batchers and HA detectors (lets open-ended runs drain)."""
        self._stopped = True
        for shard in self.shards:
            shard.batcher.stop()
            ha = shard.ha
            if ha is not None:
                ha.stop()

    # -- placement ---------------------------------------------------------------
    def shard_of(self, tenant: str) -> int:
        """Home shard of ``tenant`` (consistent-hash placement)."""
        return self.ring.shard_for(tenant)

    # -- node pool ---------------------------------------------------------------
    def register_node(self, node_name: str, cores: int, memory_bytes: int,
                      gpus: int = 0, shard: Optional[int] = None, **kwargs):
        """Add spare capacity; spreads across shards least-cores-first.

        Raises :class:`ManagerUnavailableError` when every shard is down.
        """
        if shard is None:
            available = [s for s in self.shards if s.available]
            if not available:
                raise ManagerUnavailableError(
                    f"no shard is up to register {node_name}", cause="crash",
                )
            shard = min(
                available,
                key=lambda s: (s.manager.total_registered_cores(), s.index),
            ).index
        registered = self.shards[shard].manager.register_node(
            node_name, cores, memory_bytes, gpus=gpus, **kwargs,
        )
        self._node_shard[node_name] = shard
        return registered

    def remove_node(self, node_name: str, immediate: bool = False) -> bool:
        index = self._node_shard.get(node_name)
        if index is None:
            return False
        removed = self.shards[index].manager.remove_node(
            node_name, immediate=immediate,
        )
        if removed:
            del self._node_shard[node_name]
        return removed

    def drain_node(self, node_name: str, immediate: bool = False) -> bool:
        """Batch-system reclaim + rebalance: the cross-shard answer to
        one shard losing capacity while neighbours have idle nodes."""
        removed = self.remove_node(node_name, immediate=immediate)
        if removed:
            self.rebalance()
        return removed

    # -- ResourceManager duck-type surface (Injector/recovery compatible) --------
    def registered_nodes(self) -> list[str]:
        return sorted(self._node_shard)

    def is_registered(self, node_name: str) -> bool:
        return node_name in self._node_shard

    def registration_of(self, node_name: str) -> dict:
        return self.shards[self._node_shard[node_name]].manager.registration_of(node_name)

    def node_info(self, node_name: str):
        return self.shards[self._node_shard[node_name]].manager.node_info(node_name)

    def active_leases(self) -> list[tuple[Lease, str]]:
        """All active ``(lease, node)`` pairs, globally ordered by lease
        id (ids come from one env-wide stream, so the order is total)."""
        out = []
        for lease_id in sorted(self._lease_shard):
            lease = self._leases.get(lease_id)
            if lease is not None and lease.active:
                out.append((lease, lease.node_name))
        return out

    def revoke_lease(self, lease: Lease, reason: str = "revoked") -> bool:
        """Direct (unbatched) revocation — the fault injector's path."""
        index = self._lease_shard.get(lease.lease_id)
        if index is None:
            return False
        return self.shards[index].manager.revoke_lease(lease, reason=reason)

    def release_lease(self, lease: Lease) -> None:
        index = self._lease_shard.get(lease.lease_id)
        if index is None:
            return
        self.shards[index].manager.release_lease(lease)

    def total_registered_cores(self) -> int:
        return sum(s.manager.total_registered_cores() for s in self.shards)

    def total_free_cores(self) -> int:
        return sum(s.manager.total_free_cores() for s in self.shards)

    # -- batched front door ------------------------------------------------------
    def request_grant(self, tenant: str, cores: int = 1, memory_bytes: int = 0,
                      gpus: int = 0, image=None) -> Event:
        """Queue a grant on the tenant's home shard; yields ``(lease,
        executor)`` or fails with the underlying platform error."""
        shard = self.shards[self.shard_of(tenant)]
        event = shard.batcher.submit("grant", {
            "tenant": tenant, "cores": cores,
            "memory_bytes": memory_bytes, "gpus": gpus, "image": image,
        })
        self._g_depth[shard.index].set(shard.batcher.depth())
        return event

    def request_release(self, lease: Lease) -> Event:
        shard = self.shards[self._lease_shard[lease.lease_id]]
        event = shard.batcher.submit("release", {"lease": lease})
        self._g_depth[shard.index].set(shard.batcher.depth())
        return event

    def request_revoke(self, lease: Lease, reason: str = "revoked") -> Event:
        shard = self.shards[self._lease_shard[lease.lease_id]]
        event = shard.batcher.submit("revoke", {"lease": lease, "reason": reason})
        self._g_depth[shard.index].set(shard.batcher.depth())
        return event

    def _apply(self, shard: Shard, op: BatchOp):
        """Apply one batched op against its shard's manager."""
        try:
            if shard.ha is None and shard.down:
                raise ManagerUnavailableError(
                    f"shard-{shard.index} is down", cause="crash",
                )
            if op.kind == "grant":
                payload = op.payload
                lease, executor = shard.manager.lease(
                    client=payload["tenant"], cores=payload["cores"],
                    memory_bytes=payload["memory_bytes"],
                    gpus=payload["gpus"], image=payload["image"],
                )
                self._leases[lease.lease_id] = lease
                self._lease_shard[lease.lease_id] = shard.index
                self._m_grants[shard.index].inc()
                self._h_grant_latency.observe(self.env.now - op.submitted_s)
                return lease, executor
            if op.kind == "release":
                shard.manager.release_lease(op.payload["lease"])
                return True
            if op.kind == "revoke":
                return shard.manager.revoke_lease(
                    op.payload["lease"], reason=op.payload["reason"],
                )
            raise ValueError(f"unknown op kind {op.kind!r}")
        except NoCapacityError:
            self._m_rejected.inc()
            raise
        except (ManagerUnavailableError, StaleEpochError):
            self._m_unavailable.inc()
            raise

    def _flushed(self, index: int, batch_size: int) -> None:
        self._m_batches[index].inc()
        self._h_batch_ops.observe(batch_size)
        self._g_depth[index].set(self.shards[index].batcher.depth())
        self._tracer.instant(
            "shard.batch", track="shard", shard=index, ops=batch_size,
        )

    # -- shard-targeted faults ---------------------------------------------------
    def crash_shard(self, index: int, outage_s: float = 0.0) -> Optional[str]:
        """Kill shard ``index``; restart it after ``outage_s`` (0 = never).

        HA-wrapped shards delegate to their replica group (standby
        takeover, epoch fencing).  Bare shards model lease-expiry
        fencing: every active lease is cancelled, and ops fail with
        :class:`ManagerUnavailableError` until the shard restarts.
        """
        shard = self.shards[index]
        ha = shard.ha
        if ha is not None:
            name = ha.crash_primary(outage_s=outage_s)
            if name is None:
                return None
            self._m_crashes.inc()
            self._tracer.instant(
                "shard.crash", track="shard", shard=index, ha=True,
                outage_s=outage_s,
            )
            return f"shard-{index}/{name}"
        if shard.down:
            return None
        shard.down = True
        self._m_crashes.inc()
        victims = 0
        for lease, _node in shard.manager.active_leases():
            shard.manager.revoke_lease(lease, reason="shard-crash")
            victims += 1
        self._tracer.instant(
            "shard.crash", track="shard", shard=index, ha=False,
            outage_s=outage_s, leases_fenced=victims,
        )
        if outage_s > 0:
            self.env.process(self._restart_shard(shard, outage_s),
                             name=f"shard-{index}-restart")
        return f"shard-{index}"

    def crash_primary(self, outage_s: float = 0.0) -> Optional[str]:
        """Injector compatibility: an untargeted ``manager_crash`` lands
        on shard 0 (the auto-detected control-plane hook)."""
        return self.crash_shard(0, outage_s=outage_s)

    def _restart_shard(self, shard: Shard, outage_s: float):
        yield self.env.timeout(outage_s)
        if self._stopped or not shard.down:
            return
        shard.down = False
        self._tracer.instant("shard.recover", track="shard", shard=shard.index)

    # -- cross-shard migration ---------------------------------------------------
    def migrate_node(self, node_name: str, to_shard: int) -> bool:
        """Move one *idle* node's registration to another shard.

        Only nodes without active leases move (moving a leased node
        would cancel tenant work — conservation forbids silent drops).
        The warm pool does not follow: this is a control-plane handoff,
        and the destination shard rebuilds warm state on first use.
        """
        source_index = self._node_shard.get(node_name)
        if source_index is None or source_index == to_shard:
            return False
        source = self.shards[source_index]
        destination = self.shards[to_shard]
        if not source.available or not destination.available:
            return False
        info = source.manager.node_info(node_name)
        if any(entry[0].active for entry in info.leases.values()):
            return False
        spec = source.manager.registration_of(node_name)
        source.manager.remove_node(node_name, immediate=False)
        destination.manager.register_node(**spec)
        self._node_shard[node_name] = to_shard
        self.migrations += 1
        self._m_migrations.inc()
        self._tracer.instant(
            "shard.migrate", track="shard", node=node_name,
            source=source_index, destination=to_shard,
        )
        return True

    def rebalance(self) -> int:
        """Move idle nodes from surplus shards to starved ones.

        A shard is *starved* when it is up but has zero free cores (or
        no nodes at all); a *donor* is an available shard that would
        keep free capacity after giving up one idle node.  Deterministic
        by construction: deepest-queue starved shard first, richest
        donor first, lowest index on ties.
        """
        moves = 0
        for _ in range(len(self._node_shard) + 1):
            starved = [
                s for s in self.shards
                if s.available and s.manager.total_free_cores() == 0
            ]
            if not starved:
                break
            starved.sort(key=lambda s: (-s.batcher.depth(), s.index))
            moved = False
            for target in starved:
                donors = []
                for donor in self.shards:
                    if donor.index == target.index or not donor.available:
                        continue
                    idle = donor.idle_nodes()
                    if not idle:
                        continue
                    node = idle[0]
                    node_cores = donor.manager.node_info(node).cores_total
                    if donor.manager.total_free_cores() > node_cores:
                        donors.append((donor.manager.total_free_cores(),
                                       -donor.index, donor, node))
                if not donors:
                    continue
                donors.sort(reverse=True)
                _, _, donor, node = donors[0]
                if self.migrate_node(node, target.index):
                    moves += 1
                    moved = True
                    break
            if not moved:
                break
        return moves

    def _rebalance_loop(self):
        interval = self.config.rebalance_interval_s
        while not self._stopped:
            yield self.env.timeout(interval)
            if self._stopped:
                return
            self.rebalance()

    # -- conservation ------------------------------------------------------------
    def conservation(self) -> dict:
        """The global ledger: ops and lease states across every shard."""
        submitted = sum(s.batcher.ops_submitted for s in self.shards)
        applied = sum(s.batcher.ops_applied for s in self.shards)
        failed = sum(s.batcher.ops_failed for s in self.shards)
        queued = sum(s.batcher.depth() for s in self.shards)
        states = {LeaseState.ACTIVE: 0, LeaseState.RELEASED: 0,
                  LeaseState.CANCELLED: 0}
        for lease in self._leases.values():
            states[lease.state] += 1
        return {
            "ops_submitted": submitted,
            "ops_applied": applied,
            "ops_failed": failed,
            "ops_queued": queued,
            "granted": len(self._leases),
            "active": states[LeaseState.ACTIVE],
            "released": states[LeaseState.RELEASED],
            "revoked": states[LeaseState.CANCELLED],
            "migrations": self.migrations,
        }

    def conservation_ok(self, drained: bool = True) -> bool:
        """No silent drops, globally.

        Always: every submitted op is applied, failed, or still queued,
        and every granted lease is in exactly one terminal-or-active
        state.  With ``drained=True`` (end of run): nothing queued and
        nothing still active — every grant was returned or revoked.
        """
        ledger = self.conservation()
        if ledger["ops_submitted"] != (
            ledger["ops_applied"] + ledger["ops_failed"] + ledger["ops_queued"]
        ):
            return False
        if ledger["granted"] != (
            ledger["active"] + ledger["released"] + ledger["revoked"]
        ):
            return False
        if drained and (ledger["ops_queued"] or ledger["active"]):
            return False
        return True
