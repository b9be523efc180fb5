"""Durable memory service: replicated, migrating, self-repairing buffers.

The paper's memory-service functions (Sec. III-C, Fig. 11) pin RMA
buffers in *idle* node memory — memory the batch system may reclaim at
any moment, and that vanishes outright on a node crash.  A single
:class:`~repro.memservice.memory_function.MemoryServiceFunction` has no
story for either; this module supplies the durability layer that turns
leftover memory into a usable disaggregated-memory substrate:

* **Striping + replication** — a logical buffer is cut into fixed-size
  chunks, each placed as ``k`` replicas on distinct nodes (and distinct
  dragonfly groups when possible, via
  :class:`~repro.memservice.placement.ReplicaPlacement`).
* **Versioned, checksummed writes** — every committed chunk write
  carries a monotone version and a checksum over (chunk, version);
  replicas that miss a write fall behind and are *fenced* by an epoch
  token, so a partitioned stale primary can never serve torn reads.
  Writes commit when at least one replica acks; acks below the quorum
  (majority of the replica set) are counted as *degraded* and, under
  ``strict_quorum``, surfaced as
  :class:`~repro.rfaas.errors.MemoryServiceUnavailable`.
* **Drain-triggered live migration** — ``attach_manager`` /
  ``attach_scheduler`` subscribe to ``ResourceManager.remove_node`` and
  ``BatchScheduler.drain_node``; a graceful reclaim copies every chunk
  off the leaving node *before* its memory disappears, with the copy
  time charged through the network fabric.
* **Background repair** — :class:`~repro.memservice.repair.RepairLoop`
  detects under-replicated or fenced chunks after a crash and restores
  the replication factor from surviving clean replicas.
* **Checksum-verified read failover** — :class:`DurableMemoryClient`
  walks a chunk's replicas on failure (dead host, dropped transfer,
  checksum or epoch mismatch) and raises
  :class:`~repro.rfaas.errors.DataLossError` only when *every* replica
  of a chunk is gone or corrupt.

Everything is deterministic: placement is pure, repair order is chunk
order, and no component draws randomness — the ``memdurability_sweep``
JSON is byte-identical across fresh interpreters for one seed and plan.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from ..cluster.machine import Cluster
from ..cluster.node import AllocationError
from ..network.transport import Connection, NetworkFabric, TransferDropped
from ..rfaas.errors import DataLossError, MemoryServiceUnavailable
from ..rfaas.load import NodeLoadRegistry
from ..sim.engine import Environment, Process
from ..telemetry import telemetry_of
from ..telemetry.context import TraceContext
from .memory_function import MemoryServiceFunction
from .placement import ReplicaPlacement
from .repair import RepairLoop

__all__ = ["DurableMemoryConfig", "ChunkReplica", "Chunk",
           "ReplicatedMemoryService", "DurableMemoryClient"]

MiB = 1024**2


@dataclass(frozen=True)
class DurableMemoryConfig:
    """Shape and policy of one replicated logical buffer."""

    #: Logical buffer size visible to clients.
    size_bytes: int = 256 * MiB
    #: Striping granularity; the last chunk may be partial.
    chunk_bytes: int = 16 * MiB
    #: Replicas per chunk (k). 1 reproduces the undurable seed service.
    replication: int = 2
    #: Background repair-loop tick; 0 disables the loop.
    repair_interval_s: float = 0.5
    #: Candidate host nodes (None = every cluster node).
    hosts: Optional[tuple[str, ...]] = None
    #: Memory-registration time per hosted chunk buffer.
    mr_registration_s: float = 120e-6
    #: Surface acks-below-majority writes as MemoryServiceUnavailable
    #: (the write still commits on the replicas that acked).
    strict_quorum: bool = False

    def __post_init__(self):
        if self.size_bytes <= 0 or self.chunk_bytes <= 0:
            raise ValueError("size_bytes and chunk_bytes must be positive")
        if self.replication < 1:
            raise ValueError("replication factor must be >= 1")
        if self.repair_interval_s < 0:
            raise ValueError("repair_interval_s must be non-negative")


class ChunkReplica:
    """One hosted copy of a chunk: a pinned buffer plus its freshness."""

    __slots__ = ("node_name", "service", "version", "epoch", "checksum")

    def __init__(self, node_name: str, service: MemoryServiceFunction,
                 version: int, epoch: int, checksum: int):
        self.node_name = node_name
        self.service = service
        self.version = version
        self.epoch = epoch
        self.checksum = checksum

    @property
    def live(self) -> bool:
        return self.service.active


class Chunk:
    """Authoritative state of one stripe: committed version + replicas."""

    __slots__ = ("index", "size_bytes", "version", "epoch", "replicas")

    def __init__(self, index: int, size_bytes: int):
        self.index = index
        self.size_bytes = size_bytes
        self.version = 0
        self.epoch = 0
        self.replicas: list[ChunkReplica] = []

    @property
    def quorum(self) -> int:
        """Majority of the current replica set (>= 1)."""
        return max(1, len(self.replicas) // 2 + 1)

    def nodes(self) -> list[str]:
        return [r.node_name for r in self.replicas]


def _checksum(chunk_index: int, version: int) -> int:
    """Simulated content checksum of (chunk, version)."""
    return zlib.crc32(f"chunk-{chunk_index}:v{version}".encode("utf-8"))


class ReplicatedMemoryService:
    """A logical buffer striped into k-way replicated, checksummed chunks."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        fabric: NetworkFabric,
        config: Optional[DurableMemoryConfig] = None,
        loads: Optional[NodeLoadRegistry] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.fabric = fabric
        self.config = config or DurableMemoryConfig()
        self.loads = loads
        self.service_id = env.next_id("memservice-durable")
        hosts = self.config.hosts
        if hosts is None:
            hosts = tuple(node.name for node in cluster)
        self.placement = ReplicaPlacement(cluster, hosts)
        size, cb = self.config.size_bytes, self.config.chunk_bytes
        self.chunks = [
            Chunk(i, min(cb, size - i * cb))
            for i in range((size + cb - 1) // cb)
        ]
        self.epoch = 0
        self._started = False
        self._stopped = False
        self._conns: dict[tuple[str, str], Connection] = {}
        self.repair = RepairLoop(env, self, interval_s=self.config.repair_interval_s)
        # DRC: one credential covers the service's internal copies and is
        # granted to every client user (the Sec. IV-A cross-job story).
        self._user = f"memservice-{self.service_id}"
        self.credential = None
        if fabric.provider.requires_credentials() and fabric.drc is not None:
            self.credential = fabric.drc.acquire(owner=self._user)
        # Plain counters (survive NULL telemetry) + metric instruments.
        self.bytes_read = 0
        self.bytes_written = 0
        self.replicas_lost = 0
        self.migrations = 0
        self.migration_failures = 0
        self.degraded_writes = 0
        self.moved_bytes = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_lost = metrics.counter(
            "repro_memservice_replicas_lost_total",
            help="chunk replicas destroyed by crash, kill, or reclaim",
        )
        self._m_migrations = metrics.counter(
            "repro_memservice_chunk_migrations_total",
            help="chunk replicas live-migrated off a draining node",
        )
        self._m_migration_failures = metrics.counter(
            "repro_memservice_migration_failures_total",
            help="chunk migrations that found no target or lost the copy",
        )
        self._m_degraded = metrics.counter(
            "repro_memservice_degraded_writes_total",
            help="committed chunk writes acked by fewer replicas than the quorum",
        )
        self._m_moved = metrics.counter(
            "repro_memservice_moved_bytes",
            help="bytes copied node-to-node by migration and repair",
        )
        self._m_under = metrics.gauge(
            "repro_memservice_under_replicated_count",
            help="chunks currently below the configured replication factor",
        )

    # -- lifecycle -----------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._started and not self._stopped

    @property
    def size_bytes(self) -> int:
        return self.config.size_bytes

    @property
    def replication(self) -> int:
        return self.config.replication

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def start(self) -> None:
        """Allocate every chunk's replica set; idempotent-unfriendly like
        the plain service (double start is a programming error)."""
        if self._started:
            raise RuntimeError("durable memory service already started")
        k = self.config.replication
        for chunk in self.chunks:
            nodes = self.placement.replica_nodes(chunk.index, k)
            if len(nodes) < k:
                raise ValueError(
                    f"cannot place {k} replicas of chunk {chunk.index} on "
                    f"{len(self.placement.hosts)} candidate host(s)"
                )
            for node_name in nodes:
                chunk.replicas.append(self._host_replica(chunk, node_name))
        self._started = True
        if self.config.repair_interval_s > 0:
            self.repair.start()
        self._record_under_replication()

    def stop(self) -> None:
        """Release every hosted buffer (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.repair.stop()
        for chunk in self.chunks:
            for replica in chunk.replicas:
                replica.service.stop()

    def _host_replica(self, chunk: Chunk, node_name: str) -> ChunkReplica:
        """Allocate + start one chunk buffer on ``node_name``."""
        service = MemoryServiceFunction(
            self.env, self.cluster.node(node_name), chunk.size_bytes,
            loads=self.loads, mr_registration_s=self.config.mr_registration_s,
        )
        service.start()
        return ChunkReplica(
            node_name, service, version=chunk.version, epoch=chunk.epoch,
            checksum=_checksum(chunk.index, chunk.version),
        )

    # -- access plumbing -----------------------------------------------------
    def validate_access(self, offset: int, size: int) -> None:
        if not self.active:
            raise MemoryServiceUnavailable(
                f"durable memory service {self.service_id} not active"
            )
        if offset < 0 or size < 0 or offset + size > self.size_bytes:
            raise ValueError(
                f"access [{offset}, {offset + size}) outside buffer of "
                f"{self.size_bytes} B"
            )

    def chunk_span(self, offset: int, size: int) -> list[tuple[int, int]]:
        """(chunk index, bytes within chunk) pairs covering the access."""
        cb = self.config.chunk_bytes
        if size == 0:
            return [(min(offset // cb, self.num_chunks - 1), 0)]
        first = offset // cb
        last = (offset + size - 1) // cb
        out = []
        for index in range(first, last + 1):
            lo = max(offset, index * cb)
            hi = min(offset + size, (index + 1) * cb)
            out.append((index, hi - lo))
        return out

    def grant_access(self, user: str) -> None:
        """Grant ``user`` the DRC credential covering every replica host."""
        if self.credential is not None:
            self.fabric.drc.grant(self.credential.cred_id, self._user, user)

    @property
    def cred_id(self) -> Optional[int]:
        return self.credential.cred_id if self.credential is not None else None

    def hosting_nodes(self) -> list[str]:
        """Sorted nodes currently holding at least one live replica."""
        nodes = {
            r.node_name
            for chunk in self.chunks for r in chunk.replicas if r.live
        }
        return sorted(nodes)

    def is_clean(self, chunk: Chunk, replica: ChunkReplica) -> bool:
        """Replica holds the committed version and is not fenced."""
        return (
            replica.live
            and replica.epoch == chunk.epoch
            and replica.version == chunk.version
            and replica.checksum == _checksum(chunk.index, chunk.version)
        )

    def clean_replicas(self, chunk: Chunk) -> list[ChunkReplica]:
        return [r for r in chunk.replicas if self.is_clean(chunk, r)]

    def under_replicated_chunks(self) -> list[Chunk]:
        """Chunks with fewer clean replicas than the configured factor."""
        k = self.config.replication
        return [c for c in self.chunks if len(self.clean_replicas(c)) < k]

    def _record_under_replication(self) -> None:
        self._m_under.set(len(self.under_replicated_chunks()))

    # -- write bookkeeping (transfers ride the client's connections) ---------
    def propose_write(self, chunk_index: int) -> int:
        """The version a client write will commit if any replica acks."""
        return self.chunks[chunk_index].version + 1

    def commit_write(self, chunk_index: int, version: int,
                     acked: list[ChunkReplica], failed: list[ChunkReplica],
                     nbytes: int) -> bool:
        """Apply the outcome of one replicated chunk write.

        Commits ``version`` when at least one replica acked; replicas
        that failed the transfer are *fenced* by advancing the chunk
        epoch so their (now stale) contents can never satisfy a read.
        Returns True when the ack count reached the quorum.
        """
        chunk = self.chunks[chunk_index]
        if not acked:
            return False  # aborted: committed state unchanged everywhere
        chunk.version = version
        if failed:
            self.epoch += 1
            chunk.epoch = self.epoch
            self._tracer.instant(
                "memservice.fence", track="memservice",
                chunk=chunk_index, epoch=chunk.epoch,
                fenced=[r.node_name for r in failed],
            )
        checksum = _checksum(chunk_index, version)
        for replica in acked:
            replica.version = version
            replica.epoch = chunk.epoch
            replica.checksum = checksum
        self.bytes_written += nbytes * len(acked)
        met = len(acked) >= chunk.quorum
        if not met:
            self.degraded_writes += 1
            self._m_degraded.inc()
        if failed:
            self._record_under_replication()
        return met

    def record_read(self, nbytes: int) -> None:
        self.bytes_read += nbytes

    # -- membership events ----------------------------------------------------
    def attach_manager(self, manager) -> None:
        """Subscribe to ``ResourceManager.remove_node`` reclaim events."""
        manager.on_remove_node.append(self._on_remove_node)

    def attach_scheduler(self, scheduler) -> None:
        """Subscribe to ``BatchScheduler.drain_node`` drain events."""
        scheduler.on_drain.append(self._on_drain)

    def _on_remove_node(self, node_name: str, immediate: bool) -> None:
        if not self.active:
            return
        if immediate:
            self.kill_node(node_name, cause="node_crash")
        else:
            self._on_drain(node_name)

    def _on_drain(self, node_name: str) -> None:
        if not self.active:
            return
        if any(r.node_name == node_name and r.live
               for c in self.chunks for r in c.replicas):
            self.env.process(
                self.evacuate(node_name),
                name=f"memservice-evacuate:{node_name}",
            )

    def kill_node(self, node_name: str, cause: str = "memservice_kill") -> int:
        """The node's hosted buffers vanish *now* (crash semantics).

        Every replica on the node is destroyed and dropped from its
        chunk's replica set; the repair loop restores the replication
        factor from survivors.  Returns the number of replicas lost.
        """
        lost = 0
        for chunk in self.chunks:
            for replica in [r for r in chunk.replicas if r.node_name == node_name]:
                replica.service.stop()
                chunk.replicas.remove(replica)
                lost += 1
        if lost:
            self.replicas_lost += lost
            self._m_lost.inc(lost)
            self._record_under_replication()
            self._tracer.instant(
                "memservice.node_lost", track="memservice",
                node=node_name, replicas=lost, cause=cause,
            )
        return lost

    def evacuate(self, node_name: str):
        """Process body: live-migrate every chunk replica off ``node_name``.

        Copy time is charged through the fabric (source egress + target
        ingress), so a drain under load contends with tenant traffic —
        exactly the Fig. 11 coupling.  Chunks that find no target stay
        put and are counted as migration failures (the batch system will
        destroy them when it takes the memory).
        """
        span = self._tracer.begin(
            "memservice.migrate", track="memservice", node=node_name,
        )
        moved = failed = 0
        for chunk in self.chunks:
            for replica in [r for r in chunk.replicas if r.node_name == node_name]:
                if not replica.live:
                    continue
                ok = yield from self._copy_replica(
                    chunk, source=replica,
                    exclude=chunk.nodes(), remove_source=True,
                )
                if ok:
                    moved += 1
                else:
                    failed += 1
        self.migrations += moved
        self.migration_failures += failed
        self._m_migrations.inc(moved)
        if failed:
            self._m_migration_failures.inc(failed)
        self._record_under_replication()
        self._tracer.finish(span, moved=moved, failed=failed)
        return moved

    # -- replica copies (shared by migration and repair) ----------------------
    def _copy_replica(self, chunk: Chunk, source: ChunkReplica,
                      exclude: list[str], remove_source: bool):
        """Generator: clone ``source`` onto a placement-picked target.

        On success the new replica joins the chunk (stamped with the
        source's version/epoch) and, when ``remove_source``, the source
        buffer is released.  Returns True on success.
        """
        target = self.placement.pick_target(
            exclude=set(exclude) | {source.node_name}, need_bytes=chunk.size_bytes,
        )
        if target is None:
            return False
        try:
            replica = self._host_replica(chunk, target)
        except AllocationError:
            return False
        try:
            moved = yield from self._transfer(
                source.node_name, target, chunk.size_bytes,
            )
        except TransferDropped:
            replica.service.stop()
            return False
        replica.version = source.version
        replica.epoch = source.epoch
        replica.checksum = source.checksum
        chunk.replicas.append(replica)
        self.moved_bytes += moved
        self._m_moved.inc(moved)
        if remove_source:
            source.service.stop()
            chunk.replicas.remove(source)
        return True

    def resync_replica(self, chunk: Chunk, replica: ChunkReplica):
        """Generator: overwrite a fenced/stale live replica in place."""
        sources = self.clean_replicas(chunk)
        if not sources or not replica.live:
            return False
        source = sources[0]
        try:
            moved = yield from self._transfer(
                source.node_name, replica.node_name, chunk.size_bytes,
            )
        except TransferDropped:
            return False
        replica.version = chunk.version
        replica.epoch = chunk.epoch
        replica.checksum = _checksum(chunk.index, chunk.version)
        self.moved_bytes += moved
        self._m_moved.inc(moved)
        self._record_under_replication()
        return True

    def restore_replica(self, chunk: Chunk):
        """Generator: add one replica from a surviving clean copy."""
        sources = self.clean_replicas(chunk)
        if not sources:
            return False
        ok = yield from self._copy_replica(
            chunk, source=sources[0], exclude=chunk.nodes(), remove_source=False,
        )
        if ok:
            self._record_under_replication()
        return ok

    def _transfer(self, src: str, dst: str, size_bytes: int):
        """Generator: one node-to-node copy over a cached connection."""
        conn = self._conns.get((src, dst))
        if conn is None:
            conn = yield self.fabric.connect(src, dst, user=self._user,
                                             cred_id=self.cred_id)
            self._conns[(src, dst)] = conn
        got = yield conn.rdma_write(size_bytes)
        return got

    def stats(self) -> dict:
        """Plain-number summary (robust to NULL telemetry)."""
        return {
            "chunks": self.num_chunks,
            "replication": self.replication,
            "epoch": self.epoch,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "replicas_lost": self.replicas_lost,
            "migrations": self.migrations,
            "migration_failures": self.migration_failures,
            "degraded_writes": self.degraded_writes,
            "moved_bytes": self.moved_bytes,
            "repairs": self.repair.repairs,
            "resyncs": self.repair.resyncs,
            "under_replicated": len(self.under_replicated_chunks()),
        }


class DurableMemoryClient:
    """Chunk-aware client with checksum-verified replica failover.

    API-compatible with :class:`~repro.memservice.memory_function.MemoryClient`
    for the paths :class:`~repro.memservice.paging.RemotePager` uses
    (``read``/``write`` processes plus ``.service.size_bytes``), so a
    pager rides the durable service unchanged.
    """

    def __init__(self, env: Environment, fabric: NetworkFabric,
                 service: ReplicatedMemoryService, client_node: str,
                 user: str = "app"):
        self.env = env
        self.fabric = fabric
        self.service = service
        self.client_node = client_node
        self.user = user
        service.grant_access(user)
        self._conns: dict[str, Connection] = {}
        self.failovers = 0
        self.checksum_failures = 0
        self.stale_reads_averted = 0
        self.data_losses = 0
        self.quorum_failures = 0
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_failovers = metrics.counter(
            "repro_memservice_failovers_total",
            help="reads redirected to another replica after a failure",
        )
        self._m_checksum = metrics.counter(
            "repro_memservice_checksum_failures_total",
            help="replica reads rejected by checksum verification",
        )
        self._m_stale = metrics.counter(
            "repro_memservice_stale_reads_averted_total",
            help="reads that skipped an epoch-fenced (stale) replica",
        )
        self._m_loss = metrics.counter(
            "repro_memservice_data_loss_total",
            help="chunk accesses where every replica was gone or corrupt",
        )

    def _connection(self, node_name: str):
        conn = self._conns.get(node_name)
        if conn is None:
            conn = yield self.fabric.connect(
                self.client_node, node_name, user=self.user,
                cred_id=self.service.cred_id,
            )
            self._conns[node_name] = conn
        return conn

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()

    # -- reads ----------------------------------------------------------------
    def read(self, offset: int, size: int,
             ctx: Optional[TraceContext] = None) -> Process:
        self.service.validate_access(offset, size)

        def run():
            with self._tracer.span(
                "memservice.read", track="memservice", ctx=ctx,
                offset=offset, size=size,
            ):
                total = 0
                for index, nbytes in self.service.chunk_span(offset, size):
                    total += yield from self._read_chunk(index, nbytes)
                self.service.record_read(total)
                return total

        return self.env.process(run(), name="durable-read")

    def _read_chunk(self, index: int, nbytes: int):
        chunk = self.service.chunks[index]
        attempts = 0
        transient = False
        for replica in list(chunk.replicas):
            attempts += 1
            if not replica.live:
                self._note_failover()
                continue
            try:
                got = yield self._probe_read(replica, nbytes)
            except (TransferDropped, MemoryServiceUnavailable):
                # A clean replica we merely could not reach means the
                # data still exists — the failure is retryable, not loss.
                if self.service.is_clean(chunk, replica):
                    transient = True
                self._note_failover()
                continue
            if replica.epoch != chunk.epoch:
                # Fenced: the replica missed a write while unreachable.
                self.stale_reads_averted += 1
                self._m_stale.inc()
                self._note_failover()
                continue
            if (replica.version != chunk.version
                    or replica.checksum != _checksum(index, chunk.version)):
                self.checksum_failures += 1
                self._m_checksum.inc()
                self._note_failover()
                continue
            return got
        if transient:
            raise MemoryServiceUnavailable(
                f"chunk {index}: {attempts} replica(s) unreachable",
                cause="unreachable",
            )
        self.data_losses += 1
        self._m_loss.inc()
        self._tracer.instant(
            "memservice.data_loss", track="memservice",
            chunk=index, replicas_tried=attempts,
        )
        raise DataLossError(
            f"chunk {index}: all {attempts} replica(s) gone or corrupt",
            chunk=index, replicas_lost=attempts,
        )

    def _probe_read(self, replica: ChunkReplica, nbytes: int) -> Process:
        def run():
            replica.service.validate_access(0, nbytes)
            conn = yield from self._connection(replica.node_name)
            got = yield conn.rdma_read(nbytes)
            # The host may have died while the payload was in flight.
            replica.service.validate_access(0, 0)
            return got

        return self.env.process(run(), name=f"durable-read:{replica.node_name}")

    def _note_failover(self) -> None:
        self.failovers += 1
        self._m_failovers.inc()

    # -- writes ---------------------------------------------------------------
    def write(self, offset: int, size: int,
              ctx: Optional[TraceContext] = None) -> Process:
        self.service.validate_access(offset, size)

        def run():
            with self._tracer.span(
                "memservice.write", track="memservice", ctx=ctx,
                offset=offset, size=size,
            ):
                total = 0
                for index, nbytes in self.service.chunk_span(offset, size):
                    total += yield from self._write_chunk(index, nbytes)
                return total

        return self.env.process(run(), name="durable-write")

    def _write_chunk(self, index: int, nbytes: int):
        chunk = self.service.chunks[index]
        live = [r for r in chunk.replicas if r.live]
        if not live:
            self.data_losses += 1
            self._m_loss.inc()
            raise DataLossError(
                f"chunk {index}: no live replicas to write",
                chunk=index, replicas_lost=len(chunk.replicas),
            )
        version = self.service.propose_write(index)
        attempts = [
            self.env.process(self._attempt_write(replica, nbytes),
                             name=f"durable-write:{replica.node_name}")
            for replica in live
        ]
        yield self.env.all_of(attempts)
        acked = [r for r, proc in zip(live, attempts) if proc.value]
        failed = [r for r, proc in zip(live, attempts) if not proc.value]
        met = self.service.commit_write(index, version, acked, failed, nbytes)
        if not acked:
            self.quorum_failures += 1
            raise MemoryServiceUnavailable(
                f"chunk {index}: write reached no replica",
                cause="unreachable",
            )
        if not met and self.service.config.strict_quorum:
            self.quorum_failures += 1
            raise MemoryServiceUnavailable(
                f"chunk {index}: write acked by {len(acked)} replica(s), "
                f"quorum is {chunk.quorum}",
                cause="quorum",
            )
        return nbytes

    def _attempt_write(self, replica: ChunkReplica, nbytes: int):
        """Process body: one replica write; returns True on ack."""
        try:
            if not replica.live:
                return False
            conn = yield from self._connection(replica.node_name)
            yield conn.rdma_write(nbytes)
            return replica.live  # host may have died mid-transfer
        except (TransferDropped, MemoryServiceUnavailable):
            return False
