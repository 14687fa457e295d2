"""The certifier service (functional stack).

Wraps the pure :class:`~repro.core.sharding.ShardedCertifier` with the
responsibilities the paper gives the certifier process:

* a **persistent log** — every certified writeset is written to a log device
  and (when durability is enabled) made durable before the commit decision is
  released to the replica.  The single log-writer design means all writesets
  pending at flush time share one synchronous write; the resulting
  writesets-per-fsync statistic is the paper's key explanation of
  Tashkent-MW's scalability;
* **forced aborts** — the abort-injection knob used by the Section 9.5
  experiment, driven by a deterministic RNG.

The item keyspace is partitioned across ``CertifierConfig.shards`` (N >= 1)
certification shards, each with its own log device, group-commit batcher
and :class:`~repro.transport.WritesetStream`.  ``shards=1`` is the paper's
certifier — one log, one version clock, one fsync group — and the degenerate
case of the same code:

* a single-shard transaction certifies, flushes and propagates entirely
  within one shard, with no cross-shard coordination;
* a cross-shard transaction's decision is released only once its fragment
  is durable on **every** touched shard (the all-shards-commit half of the
  merge; the any-shard-aborts half never reaches IO — see
  :meth:`ShardedCertifier.certify <repro.core.sharding.ShardedCertifier.certify>`);
* propagation is driven by the global durability frontier: full writesets
  are offered to their *home shard*'s stream in strict global version
  order, and every replica consumes the per-shard streams through one
  version-ordered view (:func:`~repro.transport.subscribe_streams`), so the
  proxy refresh path and :meth:`Database.apply_writeset_batch` see one
  stream at any shard count.

The functional path in this module is synchronous (a certification request
returns only once the decision is durable).  The simulated certifier,
:class:`repro.cluster.nodes.SimCertifierNode`, wraps the same core but
overlaps many requests against one flush, which is where batching pays off;
the live scheduler hosts this service unmodified, with each shard's log
device replaced by a remote WAL.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.certification import (
    CertificationRequest,
    CertificationResult,
    RemoteWriteSetInfo,
)
from repro.core.group_commit import GroupCommitBatcher
from repro.core.sharding import Partitioner, ShardedCertifier
from repro.core.stats import CertifierServiceStats, merged_group_commit_stats
from repro.engine.log_device import CountingLogDevice, LogDevice
from repro.errors import ConfigurationError, ReproError
from repro.transport import (
    FlushPolicy,
    MergedSubscription,
    WritesetStream,
    WritesetSubscription,
    propagate_committed,
    subscribe_streams,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.snapshots import StateTransferPackage


@dataclass
class CertifierConfig:
    """Behavioural switches of the certifier service."""

    #: Write the certification log to the log device on the critical path.
    durability_enabled: bool = True
    #: Fraction of successfully certified requests aborted anyway (§9.5).
    forced_abort_rate: float = 0.0
    rng_seed: int = 1
    #: Run log garbage collection every this many certification requests.
    #: 0 disables automatic GC (the log then grows without bound, as in the
    #: seed implementation); :meth:`CertifierService.collect_garbage` can
    #: still be called explicitly.
    gc_interval_requests: int = 256
    #: Records kept below the low-water mark so in-flight transactions whose
    #: start version slightly trails their replica's reported version are
    #: never conservatively aborted ("snapshot too old").
    gc_headroom_versions: int = 256
    #: Batching policy of the outbound writeset streams.  ``None`` keeps the
    #: streams on explicit flushing, which aligns every propagation batch
    #: with a durability flush: exactly the writesets that shared one fsync
    #: are delivered to the replicas as one batch.
    propagation_policy: FlushPolicy | None = None
    #: Number of certification shards (N >= 1).  1, the default, is the
    #: paper's single certifier; higher values partition the item keyspace
    #: across independent certify/flush/propagate pipelines
    #: (``docs/certifier.md``).
    shards: int = 1


class CertifierService:
    """N >= 1 certification shards behind one certifier-service interface."""

    def __init__(
        self,
        config: CertifierConfig | None = None,
        *,
        log_devices: list[LogDevice] | None = None,
        partitioner: Partitioner | None = None,
    ) -> None:
        self.config = config if config is not None else CertifierConfig()
        if self.config.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        shards = self.config.shards
        if log_devices is not None and len(log_devices) != shards:
            raise ConfigurationError(
                f"need one log device per shard ({shards}), got {len(log_devices)}"
            )
        self._rng = random.Random(self.config.rng_seed)
        self.core = ShardedCertifier(
            shards,
            partitioner=partitioner,
            forced_abort_rate=self.config.forced_abort_rate,
            abort_chooser=self._rng.random,
        )
        self.devices: list[LogDevice] = (
            list(log_devices) if log_devices is not None
            else [CountingLogDevice() for _ in range(shards)]
        )
        #: Per-shard flush queues: entries are (global, shard-local) versions.
        self._batchers: list[GroupCommitBatcher[tuple[int, int]]] = [
            GroupCommitBatcher() for _ in range(shards)
        ]
        #: Per-shard outbound propagation channels (home-shard publication).
        self.streams = [
            WritesetStream(policy=self.config.propagation_policy)
            for _ in range(shards)
        ]
        #: With no custom policy, propagation batches align with durability
        #: flushes (the fsync group is the batch boundary).
        self._fsync_aligned_propagation = self.config.propagation_policy is None

    # -- main request path ------------------------------------------------------

    def certify(self, request: CertificationRequest) -> CertificationResult:
        """Certify a transaction; release the decision once it is durable on
        every shard it touched."""
        before = self.core.certification_requests
        result = self.core.certify(request)
        self._release([result])
        self._maybe_collect_garbage(before)
        return result

    def certify_batch(
        self, requests: list[CertificationRequest],
    ) -> list[CertificationResult | ReproError]:
        """Certify a group of requests as one round with shared flushes.

        Decisions/versions/remote windows come from
        :meth:`ShardedCertifier.certify_batch <repro.core.sharding.
        ShardedCertifier.certify_batch>` (sequentially equivalent by
        construction); the service then enqueues *every* admitted fragment of
        the round before flushing, so each touched shard pays **one**
        synchronous log write for the whole batch instead of one per
        transaction — the paper's group-commit economics, applied to the
        certifier's own log.  Per-request failures are returned in place.
        """
        before = self.core.certification_requests
        outcomes = self.core.certify_batch(requests)
        self._release(outcomes)
        self._maybe_collect_garbage(before)
        return outcomes

    def _release(self, outcomes: list[CertificationResult | ReproError]) -> None:
        """Enqueue the round's admitted fragments, then flush (or, without
        durability, propagate at once: the lazily flushed log stays off the
        critical path)."""
        touched: set[int] = set()
        for outcome in outcomes:
            if (isinstance(outcome, CertificationResult) and outcome.committed
                    and outcome.tx_commit_version is not None):
                record = self.core.record_at(outcome.tx_commit_version)
                for shard_id, local in record.shard_locals:
                    self._batchers[shard_id].enqueue(
                        (outcome.tx_commit_version, local))
                    touched.add(shard_id)
        if touched:
            if self.config.durability_enabled:
                self.flush(shard_ids=sorted(touched))
            else:
                self._propagate(self.core.last_version)

    def _maybe_collect_garbage(self, requests_before: int) -> None:
        """Run log GC whenever the request counter crosses the interval."""
        interval = self.config.gc_interval_requests
        if interval > 0 and (requests_before // interval
                             != self.core.certification_requests // interval):
            if not self.config.durability_enabled:
                # tashAPInoCERT keeps the log write off the critical path but
                # still writes it eventually (the sim's lazy log-writer loop);
                # flush here so the durable horizon — and with it GC — keeps
                # advancing instead of pinning prune_to at version 0.
                self.flush()
            self.collect_garbage()

    def fetch_remote_writesets(self, replica_version: int,
                               check_back_to: int | None = None,
                               *, replica: str | None = None,
                               up_to: int | None = None,
                               exclude_version: int | None = None) -> list[RemoteWriteSetInfo]:
        """Serve a bounded-staleness refresh request (merged version order)."""
        return self.core.fetch_remote_writesets(replica_version, check_back_to,
                                                replica=replica, up_to=up_to,
                                                exclude_version=exclude_version)

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]:
        """Extend pushed writesets' conflict-free horizons (Section 5.2.1)."""
        return self.core.extend_remote_horizons(infos, back_to)

    # -- log garbage collection -----------------------------------------------

    def register_replica(self, replica: str, version: int = 0) -> None:
        """Introduce a replica to the low-water-mark protocol.

        Until a replica is known (registered or seen on a certification
        request) it does not constrain GC, so connected-but-idle replicas
        must be registered to keep their log suffix alive.
        """
        self.core.note_replica_version(replica, version)

    def disconnect_replica(self, replica: str) -> None:
        """Remove a replica from the low-water-mark protocol and the streams.

        Closing the stream subscriptions matters as much as forgetting the
        watermark: a dead subscription would otherwise accumulate every
        future batch unread, unbounded by log GC.
        """
        self.core.forget_replica(replica)
        for stream in self.streams:
            stream.detach_replica(replica)

    def collect_garbage(self) -> int:
        """Prune the directory and every shard log below the low-water mark."""
        return self.core.collect_garbage(headroom=self.config.gc_headroom_versions)

    def replication_horizon(self) -> int:
        """Highest version every subscribed replica has already applied.

        This is the replica low-water mark minus the GC headroom — the same
        retention boundary log GC prunes to — and is what replicas feed into
        ``Database.vacuum(replication_horizon=...)``: versions at or below
        it can never again be requested by a lagging or resubscribing
        replica.  Conservatively 0 while no replica has reported (an unknown
        fleet pins the horizon, exactly like it pins log GC).
        """
        low_water = self.core.low_water_mark()
        if low_water is None:
            return 0
        return max(0, low_water - self.config.gc_headroom_versions)

    # -- durability ---------------------------------------------------------------

    def flush(self, shard_ids: list[int] | None = None) -> int:
        """Flush the pending records of the given shards (default: all).

        Each shard costs one synchronous write on its own device; distinct
        shards never share an fsync — that independence is precisely what a
        sharded deployment buys.  Returns the number of log records (writeset
        fragments) made durable, and propagates whatever became fully
        durable: with the default explicit policy the delivered batch is
        exactly this fsync group.
        """
        targets = range(self.config.shards) if shard_ids is None else shard_ids
        flushed = 0
        for shard_id in targets:
            flushed += self._flush_shard(shard_id)
        if flushed:
            self._propagate()
        return flushed

    def _flush_shard(self, shard_id: int) -> int:
        batcher = self._batchers[shard_id]
        if not batcher.has_pending:
            return 0
        shard = self.core.shards[shard_id]
        device = self.devices[shard_id]
        batch = batcher.take_batch()
        for _global_version, local_version in batch:
            record = shard.log.record_at(local_version)
            device.append(record.writeset.size_bytes().to_bytes(4, "big"))
        device.sync()
        batcher.complete_batch()
        shard.log.mark_durable(max(local for _, local in batch))
        self.core.advance_durable_frontier()
        return len(batch)

    # -- propagation (the transport layer) -------------------------------------

    def _propagate(self, up_to: int | None = None) -> None:
        propagate_committed(self.core, self.streams, up_to,
                            aligned=self._fsync_aligned_propagation)

    def flush_propagation(self) -> None:
        """Deliver everything every shard stream is still holding.

        Bounded staleness overrides the batching policy: a refresh delivers
        whatever the certifier has released, even a sub-cap/sub-window tail.
        """
        for stream in self.streams:
            stream.flush()

    def subscribe_replica(
        self, replica: str, from_version: int = 0,
    ) -> WritesetSubscription | MergedSubscription:
        """Attach a replica to every shard stream behind one version-ordered
        view (:func:`~repro.transport.subscribe_streams`).

        The subscription is backfilled from the global directory with every
        record after ``from_version`` so a late joiner starts complete;
        afterwards the replica receives writesets purely as pushed batches.
        Also enrols the replica in the log-GC low-water-mark protocol, so an
        idle subscriber never has its log suffix pruned.
        """
        return subscribe_streams(self.core, self.streams, replica,
                                 from_version=from_version)

    # -- failover hooks ----------------------------------------------------------

    def export_rounds(self) -> list[tuple[int, object, str, int]]:
        """The retained commit rounds, oldest first, for a warm standby.

        Each element is ``(commit_version, writeset, origin_replica,
        global_conflict_horizon)`` — exactly the shape
        :meth:`ShardedCertifier.rebuild <repro.core.sharding.ShardedCertifier.
        rebuild>` replays, so a standby service can be rebuilt from a live
        service's directory (or, in the consensus-backed deployment, from the
        shard groups via :mod:`repro.recovery.sharded_recovery`).
        """
        return [
            (record.commit_version, record.writeset, record.origin_replica,
             self.core.certified_back_to(record.commit_version))
            for record in self.core.records_after(self.core.pruned_version)
        ]

    def export_state_transfer(self) -> "StateTransferPackage":
        """Package the retained state as one checksummed transfer unit.

        The anti-entropy analogue of :meth:`export_rounds`: a standby
        validates the package before installing it (a partial or corrupted
        download is detected and re-fetched instead of seeding a silently
        divergent certifier), and it carries the replica watermarks so the
        standby can keep garbage-collecting without waiting for every
        replica to check back in.
        """
        from repro.recovery.snapshots import StateTransferPackage

        return StateTransferPackage.capture(self.core)

    @classmethod
    def from_state_transfer(
        cls,
        package: "StateTransferPackage",
        *,
        config: CertifierConfig | None = None,
        log_devices: list[LogDevice] | None = None,
        partitioner: Partitioner | None = None,
    ) -> "CertifierService":
        """Bootstrap a standby service from a validated transfer package."""
        package.validate()
        core = ShardedCertifier.rebuild(
            package.num_shards,
            list(package.rounds),
            pruned_to=package.horizon,
            base_version=package.horizon,
            partitioner=partitioner,
        )
        for replica, version in package.replica_versions:
            core.note_replica_version(replica, version)
        return cls.from_recovered_core(core, config=config,
                                       log_devices=log_devices)

    @classmethod
    def from_recovered_core(
        cls,
        core: ShardedCertifier,
        *,
        config: CertifierConfig | None = None,
        log_devices: list[LogDevice] | None = None,
    ) -> "CertifierService":
        """Build a service around a recovered coordinator (failover).

        The per-shard IO pipelines — log devices, group-commit batchers,
        propagation streams — start empty: a recovered coordinator's records
        are already durable (that is what made them recoverable), and a
        re-subscribing replica is backfilled from the directory by
        :meth:`subscribe_replica`, so the fresh streams only ever carry
        post-failover commits.
        """
        base = config if config is not None else CertifierConfig()
        service = cls(
            dataclasses.replace(base, shards=core.num_shards),
            log_devices=log_devices,
            partitioner=core.partitioner,
        )
        service.core = core
        return service

    # -- statistics ------------------------------------------------------------------

    @property
    def fsync_count(self) -> int:
        return sum(device.sync_count for device in self.devices)

    @property
    def writesets_per_fsync(self) -> float:
        """Average log records per synchronous write, across all shards."""
        merged = merged_group_commit_stats([b.stats for b in self._batchers])
        return merged.average_batch_size

    @property
    def system_version(self) -> int:
        return self.core.system_version.version

    def stats_snapshot(self) -> CertifierServiceStats:
        """Typed snapshot with per-shard pipelines merged (fresh aggregates,
        never the live per-shard objects)."""
        return CertifierServiceStats(
            core=self.core.stats_snapshot(),
            flush=merged_group_commit_stats([b.stats for b in self._batchers]),
            propagation=merged_group_commit_stats([s.stats for s in self.streams]),
            fsyncs=self.fsync_count,
            durable_version=self.core.durable_version,
            shards=self.config.shards,
        )

    def stats(self) -> dict[str, float]:
        return self.stats_snapshot().as_dict()

    def per_shard_stats(self) -> list[dict[str, float]]:
        return self.core.per_shard_stats()

    def __repr__(self) -> str:
        return (
            f"CertifierService(shards={self.config.shards}, "
            f"version={self.system_version}, durable={self.core.durable_version}, "
            f"fsyncs={self.fsync_count})"
        )
