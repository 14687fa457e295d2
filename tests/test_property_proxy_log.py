"""Property test: the proxy's pruned, indexed checks ≡ the unpruned list scan.

The proxy's ``proxy_log`` is a :class:`repro.core.certifier_log.CertifierLog`
pruned below the replica's oldest open snapshot.  For random interleavings
of begin / update / delete / insert / commit / refresh on several proxies
over one certifier, with transactions held open across many commits, every
eager pre-certification and every local certification must reach the same
answer as the seed's list scan over the full certified history (the
certifier's own records, never garbage collected here) up to the proxy's
``replica_version``:

* whether a write aborts eagerly, and at which commit version;
* whether local certification aborts a commit;
* how far the transaction's effective start version advances.

Local-certification aborts never occur here: applying a conflicting remote
writeset already aborts a transaction holding the row's lock (the priority
rule), and a later write to the row aborts eagerly.  A unit test in
``test_middleware_proxy.py`` pins that window instead.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.core.config import SystemKind
from repro.engine.database import Database
from repro.engine.locks import LockBlockedError
from repro.errors import CertificationAborted, TransactionAborted
from repro.middleware.certifier import CertifierConfig, CertifierService
from repro.middleware.proxy import TransparentProxy

KEYS = 6
FRESH_KEYS = 4

begin = st.tuples(st.just("begin"), st.integers(0, 2))
# Updates and deletes go to the initial rows; inserts go to fresh keys,
# which concurrent transactions may race to insert.
write = st.tuples(st.just("write"), st.integers(0, 50),
                  st.sampled_from(["update", "update", "delete"]), st.integers(0, KEYS - 1))
insert = st.tuples(st.just("write"), st.integers(0, 50),
                   st.just("insert"), st.integers(KEYS, KEYS + FRESH_KEYS - 1))
commit = st.tuples(st.just("commit"), st.integers(0, 50))
refresh = st.tuples(st.just("refresh"), st.integers(0, 2))
# Writes outnumber the other operations so most transactions commit a
# writeset; picking among *all* open transactions keeps some open across
# many commits.
ops = st.lists(st.one_of(begin, begin, write, write, write, insert, commit, commit, refresh),
               min_size=20, max_size=120)


def history_up_to(certifier, proxy):
    """The certified records a proxy has applied, from version 1 on."""
    return [record for record in certifier.core.records_after(0)
            if record.commit_version <= proxy.replica_version.version]


def scan_eager(history, effective, table, key):
    """The seed's eager pre-certification: first later writer of the row."""
    for record in history:
        if record.commit_version <= effective:
            continue
        if record.writeset.touches(table, key):
            return record.commit_version
    return None


def scan_local(history, effective, writeset):
    """The seed's local certification: ``None`` on conflict, else the
    advanced effective start version."""
    for record in history:
        if record.commit_version <= effective:
            continue
        if writeset.conflicts_with(record.writeset):
            return None
        if record.commit_version == effective + 1:
            effective = record.commit_version
    return effective


def build(system, shards, replicas):
    certifier = CertifierService(CertifierConfig(shards=shards, gc_interval_requests=0))
    proxies = []
    for index in range(replicas):
        database = Database(f"replica-{index}")
        database.create_table("accounts", ["id", "balance"])
        proxy = TransparentProxy(database, certifier, system=system,
                                 replica_name=f"replica-{index}")
        if index == 0:
            txn = proxy.begin()
            for key in range(KEYS):
                proxy.insert(txn, "accounts", key, id=key, balance=0)
            assert proxy.commit(txn).committed
        else:
            proxy.refresh()
        proxies.append(proxy)
    return certifier, proxies


def write_and_check(certifier, proxy, txn, kind, key, value):
    if kind == "insert" and any(record.writeset.touches("accounts", key)
                                for record in certifier.core.records_after(0)
                                if record.commit_version <= txn.tx_start_version):
        # The row is in the snapshot: the insert would be a duplicate.  An
        # insert by a concurrent transaction is a conflict and is kept.
        return
    expected = scan_eager(history_up_to(certifier, proxy),
                          txn.versions.effective_start_version, "accounts", key)
    eager_before = proxy.stats.eager_precert_aborts
    try:
        if kind == "update":
            proxy.update(txn, "accounts", key, balance=value)
        elif kind == "delete":
            proxy.delete(txn, "accounts", key)
        else:
            proxy.insert(txn, "accounts", key, balance=value)
    except CertificationAborted as exc:
        assert expected is not None, "eager abort the scan does not make"
        assert re.search(rf"at version {expected}$", str(exc)), str(exc)
    except (TransactionAborted, LockBlockedError):
        # The database's own lock check, after the eager check passed.
        assert expected is None
        assert proxy.stats.eager_precert_aborts == eager_before
        proxy.abort(txn)
    else:
        assert expected is None, f"missed eager abort at version {expected}"


def commit_and_check(certifier, proxy, txn):
    writeset = proxy.database.extract_writeset(txn.engine_txn)
    expected = scan_local(history_up_to(certifier, proxy),
                          txn.versions.effective_start_version, writeset)
    outcome = proxy.commit(txn)
    if writeset.is_empty():
        assert outcome.readonly
    elif expected is None:
        assert outcome.abort_reason == "local-certification"
    else:
        assert outcome.abort_reason != "local-certification"
        assert txn.versions.effective_start_version == expected


def assert_log_invariants(proxies, open_txns):
    """Each log is dense up to its replica version, and pruning never
    reaches past an open transaction's effective start version."""
    for proxy in proxies:
        log = proxy.proxy_log
        assert log.last_version == proxy.replica_version.version
        for owner, txn in open_txns:
            if owner is proxy and txn.is_active:
                assert txn.versions.effective_start_version >= log.pruned_version


@settings(max_examples=150, deadline=None)
@given(
    system=st.sampled_from([SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API]),
    shards=st.integers(1, 2),
    replicas=st.integers(2, 3),
    schedule=ops,
)
def test_proxy_checks_match_the_unpruned_scan(system, shards, replicas, schedule):
    certifier, proxies = build(system, shards, replicas)
    open_txns = []  # (proxy, ProxyTransaction)
    for step, op in enumerate(schedule):
        # Remote writesets may have aborted an open transaction (priority
        # rule); such a transaction no longer reaches the proxy's checks.
        open_txns = [(proxy, txn) for proxy, txn in open_txns if txn.is_active]
        if op[0] == "begin":
            proxy = proxies[op[1] % replicas]
            open_txns.append((proxy, proxy.begin()))
        elif op[0] == "refresh":
            proxies[op[1] % replicas].refresh()
        elif open_txns:
            proxy, txn = open_txns[op[1] % len(open_txns)]
            if op[0] == "write":
                write_and_check(certifier, proxy, txn, op[2], op[3], step)
            else:
                commit_and_check(certifier, proxy, txn)
        assert_log_invariants(proxies, open_txns)
