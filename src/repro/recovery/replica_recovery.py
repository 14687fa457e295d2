"""Replica recovery (paper Section 7.1 / 7.2).

Two database-level paths followed by a shared middleware step:

* **Tashkent-MW** — the replica ran with synchronous WAL writes disabled, so
  neither durability nor physical data integrity can be trusted.  The
  middleware restarts the database from the most recent *valid* dump (it
  keeps two) and then brings it up to date by replaying remote writesets from
  the certifier's log.
* **Base / Tashkent-API** — the database recovers with its own WAL redo;
  committed-but-unacknowledged transactions (at most one for Base, at most
  the concurrently-committing set for Tashkent-API) plus anything that
  committed globally while the replica was down are then re-applied from the
  certifier's log.  "Reapplying writesets in the global order is always
  safe."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.core.writeset import WriteSet
from repro.engine.checkpoint import CheckpointStore
from repro.engine.database import Database
from repro.engine.recovery import recover_from_checkpoint, recover_from_wal
from repro.engine.table import TableSchema
from repro.engine.wal import WriteAheadLog
from repro.errors import RecoveryError


class CommittedRecord(Protocol):
    """One committed writeset at its global commit version."""

    commit_version: int
    writeset: WriteSet


class CertifiedHistory(Protocol):
    """What writeset replay reads from the certifier: its GC horizon and the
    committed records above a version, in global order.  Both the certifier
    core (:class:`~repro.core.sharding.ShardedCertifier`, any shard count)
    and a seed :class:`~repro.core.certifier_log.CertifierLog` provide it."""

    @property
    def pruned_version(self) -> int: ...

    def records_after(self, after_version: int) -> Sequence[CommittedRecord]: ...


@dataclass
class RecoveryReport:
    """What happened during a replica recovery."""

    database: Database
    recovered_to_version: int
    writesets_replayed: int
    used_checkpoint_version: int | None = None

    @property
    def final_version(self) -> int:
        return self.database.current_version


def replay_writesets_from_certifier(database: Database, certifier_log: CertifiedHistory,
                                    *, after_version: int | None = None) -> int:
    """Apply every certified writeset the database is missing, in global order.

    Returns the number of writesets replayed.  Replay is idempotent: records
    at or below the database's current version are skipped, so it is safe to
    call with a conservative ``after_version``.  The starting point is
    clamped to the database's current version, which keeps replay working
    against a garbage-collected log; if the log has been pruned *beyond* the
    database's version the missing records are unrecoverable from the log
    and a :class:`RecoveryError` is raised (the replica needs a newer dump
    or a full state transfer).
    """
    if certifier_log.pruned_version > database.current_version:
        raise RecoveryError(
            f"certifier log is pruned up to version {certifier_log.pruned_version}, "
            f"but the database only reached version {database.current_version}; "
            "log replay cannot recover this replica"
        )
    start = database.current_version if after_version is None else after_version
    start = max(start, database.current_version)
    replayed = 0
    for record in certifier_log.records_after(start):
        if record.commit_version <= database.current_version:
            continue
        database.apply_writeset(record.writeset, version=record.commit_version, priority=True)
        replayed += 1
    return replayed


def recover_tashkent_mw_replica(checkpoints: CheckpointStore, certifier_log: CertifiedHistory) -> RecoveryReport:
    """Tashkent-MW replica recovery: latest valid dump + writeset replay."""
    database = recover_from_checkpoint(checkpoints, synchronous_commit=False)
    checkpoint_version = database.current_version
    replayed = replay_writesets_from_certifier(database, certifier_log)
    return RecoveryReport(
        database=database,
        recovered_to_version=checkpoint_version,
        writesets_replayed=replayed,
        used_checkpoint_version=checkpoint_version,
    )


def recover_base_replica(wal: WriteAheadLog, schemas: list[TableSchema],
                         certifier_log: CertifiedHistory, *, database_name: str = "db",
                         synchronous_commit: bool = True) -> RecoveryReport:
    """Base / Tashkent-API replica recovery: WAL redo + writeset replay."""
    database = recover_from_wal(
        wal, schemas, database_name=database_name, synchronous_commit=synchronous_commit
    )
    wal_version = database.current_version
    replayed = replay_writesets_from_certifier(database, certifier_log)
    return RecoveryReport(
        database=database,
        recovered_to_version=wal_version,
        writesets_replayed=replayed,
    )
