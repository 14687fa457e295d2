"""Batched writeset propagation from the certifier to the replicas.

The :class:`WritesetStream` is the one propagation path in the system: the
certifier *offers* every certified (and, when durability is on, durable)
writeset to the stream; a :class:`~repro.transport.policy.FlushPolicy`
decides when the pending writesets are cut into a **batch**; each batch is
published on a :class:`~repro.transport.bus.MessageBus` topic and lands in
every replica's :class:`WritesetSubscription`.  Replicas then apply whole
batches — one version bump and one WAL append per batch on the group-apply
path of :meth:`repro.engine.database.Database.apply_writeset_batch`.

The pending queue is a :class:`~repro.core.group_commit.GroupCommitBatcher`,
the same batching engine that backs the engine WAL's group commit and the
certifier's log flush, so the propagation batch-size statistics reported by
the benchmarks come from the single shared implementation.

Both stacks use this class unchanged:

* the **functional** middleware drains subscriptions inline during
  ``refresh()`` (no clock: ``now`` stays 0.0 and time-windowed policies
  degenerate to explicit flushing);
* the **simulated** cluster offers writesets from the certifier's log-writer
  process and wraps each subscription drain in a network-transfer delay, so
  batch boundaries translate into messages on the modeled LAN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.certification import RemoteWriteSetInfo
from repro.core.group_commit import GroupCommitBatcher, GroupCommitStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sharding import ShardedCertifier
from repro.transport.bus import BusSubscription, Message, MessageBus
from repro.transport.policy import ExplicitFlushPolicy, FlushPolicy

#: Default bus topic carrying writeset batches.
WRITESETS_TOPIC = "writesets"


class WritesetSubscription:
    """One replica's view of the writeset stream.

    Tracks a version cursor so a batch that partially overlaps what the
    replica already received (e.g. writesets applied in-band with a
    certification response) is filtered down to the genuinely new suffix.
    Polling is idempotent with respect to redelivery: a writeset is handed
    out at most once per subscription.
    """

    def __init__(self, stream: "WritesetStream", name: str, from_version: int) -> None:
        self.stream = stream
        self.name = name
        #: Highest commit version handed out by :meth:`poll` so far.
        self.version = from_version
        self._bus_subscription: BusSubscription = stream.bus.subscribe(
            stream.topic, name
        )
        self.batches_received = 0
        self.writesets_received = 0

    # -- consumption ---------------------------------------------------------

    def poll(self) -> list[list[RemoteWriteSetInfo]]:
        """Drain pending batches, filtered to versions past the cursor.

        Returns a list of non-empty batches in delivery order; the cursor
        advances to the highest version returned.  Batch boundaries are
        preserved so callers can pipeline: apply batch *k* while batch *k+1*
        is still in flight.
        """
        batches: list[list[RemoteWriteSetInfo]] = []
        for message in self._bus_subscription.poll():
            batch = [
                info
                for info in message.payload  # type: ignore[union-attr]
                if info.commit_version > self.version
            ]
            if not batch:
                continue
            self.version = max(info.commit_version for info in batch)
            self.batches_received += 1
            self.writesets_received += len(batch)
            batches.append(batch)
        return batches

    def poll_flat(self) -> list[RemoteWriteSetInfo]:
        """Drain pending batches coalesced into one flat list."""
        return [info for batch in self.poll() for info in batch]

    def advance_to(self, version: int) -> None:
        """Move the cursor forward (versions received out-of-band).

        Queued batches that fall entirely below the cursor are discarded on
        the spot: a replica that consumes writesets in-band with every
        certification response may rarely poll, and without this trim its
        queue would grow with every batch published cluster-wide.
        """
        if version > self.version:
            self.version = version
        queue = self._bus_subscription._queue
        while queue and all(
            info.commit_version <= self.version
            for info in queue[0].payload  # type: ignore[union-attr]
        ):
            queue.popleft()

    @property
    def pending_batches(self) -> int:
        return self._bus_subscription.pending

    @property
    def pending_writesets(self) -> int:
        return sum(len(m.payload) for m in self._bus_subscription._queue)  # type: ignore[arg-type]

    def close(self) -> None:
        self._bus_subscription.close()
        self.stream._drop_subscription(self)

    def __repr__(self) -> str:
        return (
            f"WritesetSubscription(name={self.name!r}, version={self.version}, "
            f"pending_batches={self.pending_batches})"
        )


class WritesetStream:
    """The certifier-to-replicas propagation channel with pluggable batching."""

    def __init__(
        self,
        *,
        policy: FlushPolicy | None = None,
        bus: MessageBus | None = None,
        topic: str = WRITESETS_TOPIC,
    ) -> None:
        self.policy: FlushPolicy = policy if policy is not None else ExplicitFlushPolicy()
        self.bus: MessageBus = bus if bus is not None else MessageBus(name="writeset-bus")
        self.topic = topic
        self._batcher: GroupCommitBatcher[RemoteWriteSetInfo] = GroupCommitBatcher(
            max_batch_size=self.policy.max_batch
        )
        self._oldest_enqueued_at: float | None = None
        self._subscriptions: list[WritesetSubscription] = []
        #: Highest commit version ever offered (used to seed late subscribers).
        self.offered_version = 0

    # -- producer side (the certifier) ---------------------------------------

    def offer(self, info: RemoteWriteSetInfo, *, now: float = 0.0) -> int:
        """Enqueue one certified writeset; flush if the policy says so.

        Returns the number of writesets delivered as a consequence (0 when
        the writeset merely joined the pending batch).
        """
        self._batcher.enqueue(info)
        if info.commit_version > self.offered_version:
            self.offered_version = info.commit_version
        if self._oldest_enqueued_at is None:
            self._oldest_enqueued_at = now
        if self.policy.should_flush(self._batcher.pending_count,
                                    now - self._oldest_enqueued_at):
            return sum(len(batch) for batch in self.flush(now=now))
        return 0

    def offer_many(self, infos: Iterable[RemoteWriteSetInfo], *, now: float = 0.0) -> int:
        delivered = 0
        for info in infos:
            delivered += self.offer(info, now=now)
        return delivered

    def flush(self, *, now: float = 0.0) -> list[list[RemoteWriteSetInfo]]:
        """Cut every pending writeset into batches and publish them.

        A policy ``max_batch`` may split the pending queue into several
        batches; each is published as one bus message (one delivery, one
        simulated network transfer).  Returns the batches published.
        """
        batches: list[list[RemoteWriteSetInfo]] = []
        while self._batcher.has_pending:
            batch = self._batcher.take_batch()
            self._batcher.complete_batch()
            self.bus.publish(self.topic, batch)
            batches.append(batch)
        self._oldest_enqueued_at = None
        return batches

    def flush_due(self, *, now: float = 0.0) -> list[list[RemoteWriteSetInfo]]:
        """Flush only if the policy's window/size trigger has fired."""
        if self._oldest_enqueued_at is None:
            return []
        if self.policy.should_flush(self._batcher.pending_count,
                                    now - self._oldest_enqueued_at):
            return self.flush(now=now)
        return []

    # -- consumer side (replicas) --------------------------------------------

    def subscribe(self, name: str, *, from_version: int = 0,
                  backfill: Iterable[RemoteWriteSetInfo] = ()) -> WritesetSubscription:
        """Open a replica subscription.

        ``from_version`` positions the cursor; ``backfill`` (typically the
        certifier log's records after that version) is delivered immediately
        as one initial batch so a late joiner starts complete without a
        separate pull protocol.
        """
        subscription = WritesetSubscription(self, name, from_version)
        self._subscriptions.append(subscription)
        backfill_batch = [
            info for info in backfill if info.commit_version > from_version
        ]
        if backfill_batch:
            # A synthetic message outside the bus sequence: only this
            # subscriber missed these writesets.
            subscription._bus_subscription._deliver(
                Message(topic=self.topic, payload=backfill_batch, seq=0)
            )
        return subscription

    def detach_replica(self, name: str) -> int:
        """Close every subscription held under ``name``.

        The inverse of :meth:`subscribe`: a disconnected replica must stop
        accumulating batches it will never poll.  Returns the number of
        subscriptions closed.
        """
        matching = [s for s in self._subscriptions if s.name == name]
        for subscription in matching:
            subscription.close()
        return len(matching)

    def _drop_subscription(self, subscription: WritesetSubscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def subscriptions(self) -> Iterator[WritesetSubscription]:
        return iter(self._subscriptions)

    # -- statistics ----------------------------------------------------------

    @property
    def stats(self) -> GroupCommitStats:
        """Batch-size statistics from the shared group-commit engine."""
        return self._batcher.stats

    @property
    def pending_count(self) -> int:
        return self._batcher.pending_count

    def __repr__(self) -> str:
        return (
            f"WritesetStream(policy={self.policy.describe()}, "
            f"subscribers={len(self._subscriptions)}, pending={self.pending_count}, "
            f"batches={self.stats.flushes})"
        )


def propagate_committed(
    certifier: "ShardedCertifier",
    streams: Sequence[WritesetStream],
    up_to: int | None = None,
    *,
    now: float = 0.0,
    aligned: bool = True,
) -> None:
    """Offer committed records up to ``up_to`` to their home streams.

    The one propagation walk both certifier front-ends run after releasing
    commit decisions (the functional service with no clock, the simulated
    node at ``now``).  :meth:`ShardedCertifier.take_propagatable
    <repro.core.sharding.ShardedCertifier.take_propagatable>` owns the
    frontier-ordered cursor — ``None`` means "whatever is fully durable",
    so a flush that completes the last outstanding fragment propagates its
    own records.  Each record goes to its home shard's stream, so every
    stream carries an ascending (sparse) slice of the commit order and the
    replica-side :class:`~repro.transport.MergedSubscription` can release
    contiguous runs.  With ``aligned`` (no custom policy) every touched
    stream is flushed, so a durability group propagates as one delivery;
    otherwise each stream's policy decides via :meth:`WritesetStream.flush_due`.
    """
    touched: set[int] = set()
    for record in certifier.take_propagatable(up_to):
        streams[record.home_shard].offer(
            RemoteWriteSetInfo(
                commit_version=record.commit_version,
                writeset=record.writeset,
                origin_replica=record.origin_replica,
                conflict_free_back_to=certifier.certified_back_to(
                    record.commit_version),
            ),
            now=now,
        )
        touched.add(record.home_shard)
    for shard_id in touched:
        if aligned:
            streams[shard_id].flush(now=now)
        else:
            streams[shard_id].flush_due(now=now)
