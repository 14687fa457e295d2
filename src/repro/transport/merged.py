"""Version-ordered merge of per-shard writeset subscriptions.

A sharded certifier propagates each committed writeset on exactly one
stream — its *home shard*'s — so the per-shard streams carry disjoint,
ascending slices of the global commit order.  A replica must nevertheless
apply writesets in strict global version order (the proxy's watermark filter
drops anything at or below ``replica_version``, so an out-of-order delivery
would be lost forever).

:class:`MergedSubscription` is the replica-side merge.  It exploits the one
structural guarantee the sharded certifier provides: **global commit
versions are dense over commits** (the sequencer allocates a version only
when a transaction commits).  Every global version therefore exists on
exactly one home stream, and the merge needs no inter-shard frontier
protocol: drain all parts, hold what arrived early, and release the
contiguous run starting right above the cursor.  A version held back is
simply one whose home shard has not flushed yet; it is released the moment
that batch lands — deterministically, with no timeouts or reordering
windows.

The class mirrors the :class:`~repro.transport.stream.WritesetSubscription`
consumer surface (``poll`` / ``poll_flat`` / ``advance_to`` / ``close`` /
``pending_*``), so the proxy refresh path, the scheduler's lag signal and
``Database.apply_writeset_batch`` work unchanged against either shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.certification import RemoteWriteSetInfo
from repro.transport.stream import WritesetStream, WritesetSubscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sharding import ShardedCertifier


def subscribe_streams(
    certifier: "ShardedCertifier",
    streams: Sequence[WritesetStream],
    name: str,
    *,
    from_version: int = 0,
) -> "WritesetSubscription | MergedSubscription":
    """Subscribe replica ``name`` to a certifier's per-shard streams behind
    one version-ordered view.

    The one recipe both certifier front-ends use.  It enrols the replica in
    the certifier's log-GC low-water-mark protocol (an idle subscriber never
    has its log suffix pruned) and backfills the view with every record
    after ``from_version``, so a late joiner starts complete.  A single
    stream is already version ordered, so its own subscription is the view
    — and it keeps the stream's batch boundaries (one delivery per fsync
    group, the paper's propagation unit).  Several streams are merged by a
    :class:`MergedSubscription`.
    """
    certifier.note_replica_version(name, from_version)
    backfill = certifier.fetch_remote_writesets(from_version, replica=name)
    if len(streams) == 1:
        return streams[0].subscribe(name, from_version=from_version,
                                    backfill=backfill)
    parts = [stream.subscribe(name, from_version=from_version) for stream in streams]
    return MergedSubscription(parts, from_version=from_version, name=name,
                              backfill=backfill)


class MergedSubscription:
    """One replica's version-ordered view over N per-shard subscriptions."""

    def __init__(
        self,
        parts: Iterable[WritesetSubscription],
        *,
        from_version: int = 0,
        name: str = "",
        backfill: Iterable[RemoteWriteSetInfo] = (),
    ) -> None:
        self.parts = list(parts)
        self.name = name
        #: Highest global version released (or skipped via :meth:`advance_to`).
        self.version = from_version
        #: Writesets that arrived ahead of a gap, keyed by global version.
        self._held: dict[int, RemoteWriteSetInfo] = {}
        self.batches_received = 0
        self.writesets_received = 0
        for info in backfill:
            if info.commit_version > from_version:
                self._held[info.commit_version] = info

    # -- consumption ---------------------------------------------------------

    def poll(self) -> list[list[RemoteWriteSetInfo]]:
        """Drain the parts and release the contiguous version-ordered prefix.

        Returns at most one merged batch (interleaved across shards by
        global version); writesets whose predecessors have not been
        delivered yet stay held until a later poll.
        """
        for part in self.parts:
            for batch in part.poll():
                for info in batch:
                    if info.commit_version > self.version:
                        self._held[info.commit_version] = info
        batch: list[RemoteWriteSetInfo] = []
        while (self.version + 1) in self._held:
            self.version += 1
            batch.append(self._held.pop(self.version))
        if not batch:
            return []
        self.batches_received += 1
        self.writesets_received += len(batch)
        return [batch]

    def poll_flat(self) -> list[RemoteWriteSetInfo]:
        """Drain pending batches coalesced into one flat, version-ordered list."""
        return [info for batch in self.poll() for info in batch]

    def advance_to(self, version: int) -> None:
        """Move the cursor forward (versions received out-of-band).

        Held writesets at or below the cursor are dropped on the spot, and
        the advance is forwarded to every part so their bus queues trim
        in-band exactly as with a single subscription.
        """
        if version > self.version:
            self.version = version
            for held_version in [v for v in self._held if v <= version]:
                del self._held[held_version]
        for part in self.parts:
            part.advance_to(version)

    # -- interrogation -------------------------------------------------------

    @property
    def held_count(self) -> int:
        """Writesets waiting for an earlier version to arrive."""
        return len(self._held)

    @property
    def pending_batches(self) -> int:
        return sum(part.pending_batches for part in self.parts) + (
            1 if self._held else 0
        )

    @property
    def pending_writesets(self) -> int:
        """Writesets queued anywhere on the path to this replica (the
        scheduler's transport-lag signal)."""
        return sum(part.pending_writesets for part in self.parts) + len(self._held)

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def __repr__(self) -> str:
        return (
            f"MergedSubscription(name={self.name!r}, parts={len(self.parts)}, "
            f"version={self.version}, held={self.held_count})"
        )
