"""Tests for the transparent proxy in all three system modes."""

import pytest

from repro.core.certifier_log import LogRecord
from repro.core.config import SystemKind
from repro.core.writeset import make_writeset
from repro.engine.database import Database
from repro.errors import CertificationAborted, InvalidTransactionState, TransactionAborted
from repro.middleware.certifier import CertifierService
from repro.middleware.proxy import TransparentProxy


def make_proxy(system, certifier=None, name="replica-0"):
    """Build one replica proxy.

    The first proxy on a certifier loads the initial data; later proxies on
    the same certifier receive it through remote writesets (refresh), exactly
    like replicas joining the replicated system.
    """
    db = Database(name)
    db.create_table("accounts", ["id", "balance"])
    certifier = certifier or CertifierService()
    proxy = TransparentProxy(db, certifier, system=system, replica_name=name)
    if certifier.system_version == 0:
        txn = proxy.begin()
        for i in range(5):
            proxy.insert(txn, "accounts", i, id=i, balance=100)
        outcome = proxy.commit(txn)
        assert outcome.committed
    else:
        proxy.refresh()
    return proxy, certifier


@pytest.mark.parametrize("system", [SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API])
def test_update_transaction_commits_through_certifier(system):
    proxy, certifier = make_proxy(system)
    txn = proxy.begin()
    row = proxy.read(txn, "accounts", 1)
    proxy.update(txn, "accounts", 1, balance=row["balance"] + 1)
    outcome = proxy.commit(txn)
    assert outcome.committed
    assert outcome.commit_version == 2
    assert proxy.replica_version.version == 2
    assert certifier.system_version == 2


@pytest.mark.parametrize("system", [SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API])
def test_readonly_transaction_never_contacts_certifier(system):
    proxy, certifier = make_proxy(system)
    requests_before = certifier.core.certification_requests
    txn = proxy.begin()
    proxy.read(txn, "accounts", 1)
    outcome = proxy.commit(txn)
    assert outcome.committed and outcome.readonly
    assert certifier.core.certification_requests == requests_before


def test_standalone_mode_has_no_proxy():
    db = Database("solo")
    with pytest.raises(InvalidTransactionState):
        TransparentProxy(db, CertifierService(), system=SystemKind.STANDALONE)


def test_tashkent_mw_disables_synchronous_commit_at_the_database():
    proxy, _ = make_proxy(SystemKind.TASHKENT_MW)
    assert proxy.database.synchronous_commit is False
    base_proxy, _ = make_proxy(SystemKind.BASE, name="replica-1")
    assert base_proxy.database.synchronous_commit is True


def test_remote_writesets_are_applied_before_local_commit():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-B")

    txn_a = proxy_a.begin()
    proxy_a.update(txn_a, "accounts", 1, balance=500)
    assert proxy_a.commit(txn_a).committed

    txn_b = proxy_b.begin()
    proxy_b.update(txn_b, "accounts", 2, balance=700)
    outcome = proxy_b.commit(txn_b)
    assert outcome.committed
    assert outcome.remote_writesets_applied >= 1
    reader = proxy_b.begin()
    assert proxy_b.read(reader, "accounts", 1)["balance"] == 500
    assert proxy_b.replica_version.version == certifier.system_version


def test_certification_conflict_aborts_second_writer_across_replicas():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.BASE, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.BASE, certifier, name="replica-B")

    txn_a = proxy_a.begin()
    txn_b = proxy_b.begin()
    proxy_a.update(txn_a, "accounts", 3, balance=1)
    proxy_b.update(txn_b, "accounts", 3, balance=2)
    assert proxy_a.commit(txn_a).committed
    outcome_b = proxy_b.commit(txn_b)
    assert not outcome_b.committed
    assert outcome_b.abort_reason in ("certification", "local-certification")


def test_eager_precertification_aborts_conflicting_write_without_round_trip():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.BASE, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.BASE, certifier, name="replica-B")

    # Replica A commits an update to account 4; replica B then refreshes so
    # its proxy_log contains that remote writeset.
    txn_a = proxy_a.begin()
    proxy_a.update(txn_a, "accounts", 4, balance=9)
    proxy_a.commit(txn_a)
    # B starts a conflicting transaction *before* refreshing, so its start
    # version predates the remote writeset.
    txn_b = proxy_b.begin()
    proxy_b.refresh()
    requests_before = certifier.core.certification_requests
    with pytest.raises(CertificationAborted):
        # Eager pre-certification catches the conflict at write time.
        proxy_b.update(txn_b, "accounts", 4, balance=1)
    assert certifier.core.certification_requests == requests_before
    assert proxy_b.stats.eager_precert_aborts == 1


@pytest.mark.parametrize("system", [SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API])
def test_local_certification_advances_effective_start_to_replica_version(system):
    certifier = CertifierService()
    proxy_a, _ = make_proxy(system, certifier, name="replica-A")
    proxy_b, _ = make_proxy(system, certifier, name="replica-B")

    txn_b = proxy_b.begin()
    for i in range(3):
        txn_a = proxy_a.begin()
        proxy_a.update(txn_a, "accounts", i, balance=i)
        assert proxy_a.commit(txn_a).committed
    # B refreshes past A's writesets, none of which touch account 4.
    proxy_b.refresh()
    replica_version = proxy_b.replica_version.version
    assert replica_version == txn_b.tx_start_version + 3
    proxy_b.update(txn_b, "accounts", 4, balance=40)
    outcome = proxy_b.commit(txn_b)
    assert outcome.committed
    # The certifier only had to test B's writeset back to B's replica version.
    assert certifier.core.certified_back_to(outcome.commit_version) == replica_version


def test_local_certification_window_starts_after_the_effective_start_version():
    # The proxy's API never reaches a local-certification abort (a remote
    # writeset aborts the lock holder; a later write aborts eagerly), so the
    # records are appended to the proxy's log directly.
    proxy, certifier = make_proxy(SystemKind.BASE)
    txn = proxy.begin()
    proxy.update(txn, "accounts", 3, balance=1)
    writeset = proxy.database.extract_writeset(txn.engine_txn)
    effective = txn.versions.effective_start_version
    proxy.proxy_log.append(LogRecord(effective + 1, make_writeset([("accounts", 3)])))
    proxy.proxy_log.append(LogRecord(effective + 2, make_writeset([("accounts", 4)])))

    # A conflicting record at exactly the effective start version is outside
    # the window; the effective start then advances to the log's end.
    at_edge = proxy.begin()
    at_edge.versions.advance_effective_start(effective + 1)
    assert proxy._locally_certify(at_edge, writeset)
    assert at_edge.versions.effective_start_version == effective + 2

    # One at effective + 1 aborts the commit without a round trip.
    requests_before = certifier.core.certification_requests
    outcome = proxy.commit(txn)
    assert outcome.abort_reason == "local-certification"
    assert certifier.core.certification_requests == requests_before
    assert proxy.stats.local_certification_aborts == 1


def test_proxy_log_retention_is_bounded_by_the_oldest_open_transaction():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-B")
    proxies = (proxy_a, proxy_b)
    for sequence in range(5000):
        proxy = proxies[sequence % 2]
        txn = proxy.begin()
        proxy.update(txn, "accounts", sequence % 5, balance=sequence)
        assert proxy.commit(txn).committed
    for proxy in proxies:
        assert proxy.proxy_log.retained_count <= 1

    # An open transaction pins retention at its snapshot...
    pinned = proxy_b.begin()
    snapshot = pinned.tx_start_version
    for sequence in range(1000):
        txn = proxy_a.begin()
        proxy_a.update(txn, "accounts", 0, balance=sequence)
        assert proxy_a.commit(txn).committed
        proxy_b.refresh()
    assert proxy_b.proxy_log.pruned_version == snapshot
    assert proxy_b.proxy_log.retained_count == 1000
    # ...so its conflicting write is still aborted eagerly...
    with pytest.raises(CertificationAborted, match=f"version {snapshot + 1}$"):
        proxy_b.update(pinned, "accounts", 0, balance=-1)
    # ...and once it has ended, the next commit prunes.
    txn = proxy_b.begin()
    proxy_b.update(txn, "accounts", 1, balance=1)
    assert proxy_b.commit(txn).committed
    assert proxy_b.proxy_log.retained_count <= 1


def test_bounded_staleness_refresh_pulls_missed_writesets():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.TASHKENT_MW, certifier, name="replica-B")
    for i in range(3):
        txn = proxy_a.begin()
        proxy_a.update(txn, "accounts", i, balance=i)
        proxy_a.commit(txn)
    applied = proxy_b.refresh()
    assert applied == 3
    assert proxy_b.replica_version.version == certifier.system_version
    # One refresh when the replica joined plus this explicit one.
    assert proxy_b.stats.staleness_refreshes == 2


def test_api_mode_groups_commit_records_per_flush():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.TASHKENT_API, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.TASHKENT_API, certifier, name="replica-B")
    # A commits several updates; B then commits one of its own, dragging in
    # all of A's writesets as remote writesets.
    for i in range(4):
        txn = proxy_a.begin()
        proxy_a.update(txn, "accounts", i, balance=i)
        assert proxy_a.commit(txn).committed
    fsyncs_before = proxy_b.database.fsync_count
    txn_b = proxy_b.begin()
    proxy_b.update(txn_b, "accounts", 4, balance=40)
    outcome = proxy_b.commit(txn_b)
    assert outcome.committed
    assert outcome.remote_writesets_applied == 4
    # All four remote writesets plus the local commit shared one flush
    # because AllUpdates-style writesets never artificially conflict.
    assert proxy_b.database.fsync_count - fsyncs_before == 1
    # The grouped flush carried all five commit records at once.
    assert proxy_b.database.wal.stats.records_appended >= 5
    assert proxy_b.database.wal.records_per_sync >= 2.5


def test_api_mode_serialises_artificially_conflicting_remote_writesets():
    certifier = CertifierService()
    proxy_a, _ = make_proxy(SystemKind.TASHKENT_API, certifier, name="replica-A")
    proxy_b, _ = make_proxy(SystemKind.TASHKENT_API, certifier, name="replica-B")
    # Two sequential (non-concurrent) transactions at A touch the same row:
    # at B they arrive as remote writesets that artificially conflict.
    for balance in (111, 222):
        txn = proxy_a.begin()
        proxy_a.update(txn, "accounts", 0, balance=balance)
        assert proxy_a.commit(txn).committed
    fsyncs_before = proxy_b.database.fsync_count
    txn_b = proxy_b.begin()
    proxy_b.update(txn_b, "accounts", 4, balance=4)
    outcome = proxy_b.commit(txn_b)
    assert outcome.committed
    assert proxy_b.stats.artificial_conflicts >= 1
    # The conflicting remote writesets need separate flushes.
    assert proxy_b.database.fsync_count - fsyncs_before >= 2
    reader = proxy_b.begin()
    assert proxy_b.read(reader, "accounts", 0)["balance"] == 222


def test_commit_on_aborted_transaction_raises():
    proxy, _ = make_proxy(SystemKind.BASE)
    txn = proxy.begin()
    proxy.update(txn, "accounts", 1, balance=1)
    proxy.abort(txn)
    with pytest.raises(TransactionAborted):
        proxy.commit(txn)
