"""Property tests: indexed certification ≡ the reference linear scan.

The tentpole invariant of the indexed certifier log: for any sequence of
certifications, durability advances, crash truncations and garbage
collections, the indexed conflict check reaches exactly the same decisions
as the seed's linear scan over the full history (for every window that GC
has not discarded — below the horizon the contract is a conservative
abort, which is also asserted).

The indexed log additionally runs in ``verify`` mode, so every check is
*also* cross-validated internally against a scan of the retained records.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.certification import CertificationRequest, Certifier
from repro.core.certifier_log import MODE_VERIFY, CertifierLog
from repro.core.writeset import make_writeset
from repro.middleware.certifier import CertifierConfig, CertifierService

# A small keyspace keeps both conflicts and re-writes of the same item
# frequent, which is what stresses the per-item version lists.
keys = st.integers(min_value=0, max_value=9)
key_lists = st.lists(keys, min_size=1, max_size=4)


class ReferenceScanCertifier:
    """The seed algorithm: scan every logged record after the snapshot.

    Keeps the *full* history (never pruned), so it can answer windows the
    indexed log has garbage-collected — which is exactly what lets the test
    distinguish "correctly conservative" from "wrong".
    """

    def __init__(self):
        self.history = []  # list of (commit_version, frozenset of item ids)

    @property
    def version(self):
        return self.history[-1][0] if self.history else 0

    def first_conflict(self, item_ids, after_version):
        for version, ids in self.history:
            if version > after_version and ids & item_ids:
                return version
        return None

    def certify(self, item_ids, start_version):
        conflict = self.first_conflict(item_ids, start_version)
        if conflict is not None:
            return conflict
        self.history.append((self.version + 1, frozenset(item_ids)))
        return None

    def truncate_to(self, durable_version):
        self.history = [(v, ids) for v, ids in self.history if v <= durable_version]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("certify"), key_lists, st.floats(0.0, 1.0)),
        st.tuples(st.just("durable"), st.floats(0.0, 1.0)),
        st.tuples(st.just("crash"), st.floats(0.0, 1.0)),
        st.tuples(st.just("gc"), st.floats(0.0, 1.0)),
        st.tuples(st.just("probe"), key_lists, st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=60,
)


def _pick(low, high, fraction):
    """Deterministically map a unit float onto the inclusive range."""
    if high <= low:
        return low
    return low + round((high - low) * fraction)


@given(ops)
@settings(max_examples=120, deadline=None)
def test_indexed_decisions_match_reference_scan(operations):
    log = CertifierLog(mode=MODE_VERIFY)
    certifier = Certifier(log)
    reference = ReferenceScanCertifier()

    for op in operations:
        kind = op[0]
        if kind == "certify":
            _, key_list, fraction = op
            writeset = make_writeset([("t", k) for k in key_list])
            # Snapshots are drawn at or above the GC horizon: the low-water
            # protocol guarantees live transactions never start below it.
            start = _pick(log.pruned_version, certifier.system_version.version, fraction)
            result = certifier.certify(CertificationRequest(
                tx_start_version=start,
                writeset=writeset,
                replica_version=certifier.system_version.version,
            ))
            expected_conflict = reference.certify(
                frozenset(writeset.item_ids), start)
            assert result.committed == (expected_conflict is None)
            if expected_conflict is not None:
                assert result.conflicting_version == expected_conflict
            else:
                assert result.tx_commit_version == reference.version
        elif kind == "durable":
            _, fraction = op
            target = _pick(log.durable_version, log.last_version, fraction)
            log.mark_durable(target)
        elif kind == "crash":
            _, fraction = op
            target = _pick(log.durable_version, log.last_version, fraction)
            log.mark_durable(target)
            log.truncate_to_durable()
            reference.truncate_to(target)
            # A crash restarts the certifier over the surviving log.
            certifier = Certifier(log)
            assert certifier.system_version.version == reference.version
        elif kind == "gc":
            _, fraction = op
            target = _pick(log.pruned_version, log.durable_version, fraction)
            log.prune_to(target)
            # Reference keeps full history: GC must not change decisions.
        elif kind == "probe":
            _, key_list, fraction = op
            probe = make_writeset([("t", k) for k in key_list])
            after = _pick(log.pruned_version, log.last_version, fraction)
            assert (log.first_conflicting_version(probe, after)
                    == reference.first_conflict(frozenset(probe.item_ids), after))
            assert log.conflicts(probe, after) == (
                reference.first_conflict(frozenset(probe.item_ids), after) is not None
            )

    # Final sweep: every above-horizon window agrees with the reference;
    # every below-horizon window is conservatively a conflict.
    probe = make_writeset([("t", k) for k in range(10)])
    for after in range(0, log.last_version + 1):
        indexed = log.first_conflicting_version(probe, after)
        if after >= log.pruned_version:
            assert indexed == reference.first_conflict(frozenset(probe.item_ids), after)
        else:
            assert indexed == log.pruned_version
            assert log.conflicts(probe, after)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_gc_and_crash_keep_index_rebuildable(operations):
    """After any op sequence, the live index equals a from-scratch rebuild."""
    log = CertifierLog(mode=MODE_VERIFY)
    certifier = Certifier(log)
    for op in operations:
        kind = op[0]
        if kind == "certify" or kind == "probe":
            key_list, fraction = op[1], op[2]
            writeset = make_writeset([("t", k) for k in key_list])
            start = _pick(log.pruned_version, certifier.system_version.version, fraction)
            certifier.certify(CertificationRequest(
                tx_start_version=start,
                writeset=writeset,
                replica_version=certifier.system_version.version,
            ))
        elif kind == "durable":
            log.mark_durable(_pick(log.durable_version, log.last_version, op[1]))
        elif kind == "crash":
            log.mark_durable(_pick(log.durable_version, log.last_version, op[1]))
            log.truncate_to_durable()
            certifier = Certifier(log)
        elif kind == "gc":
            log.prune_to(_pick(log.pruned_version, log.durable_version, op[1]))

    rebuilt = CertifierLog.from_records(log.iter_records(), durable=False)
    assert rebuilt.index_item_count == log.index_item_count
    probe_all = make_writeset([("t", k) for k in range(10)])
    for after in range(log.pruned_version, log.last_version + 1):
        assert (log.first_conflicting_version(probe_all, after)
                == rebuilt.first_conflicting_version(probe_all, after))


# ---------------------------------------------------------------------------
# The certifier service ≡ the seed certifier (decisions and replica state)
# ---------------------------------------------------------------------------
#
# The second tentpole invariant: for any workload, the certifier service at
# any shard count N >= 1 reaches exactly the same commit/abort decisions,
# assigns the same commit versions, reports the same remote windows and
# delivers the same version-ordered writeset stream to a replica as the seed
# :class:`Certifier` driven the way a durable service drives it.  The
# workload spans two tables and a small keyspace so writesets routinely
# straddle shards and conflicts are frequent; garbage collection runs at an
# aggressive interval so the pruned-window paths are exercised too.

shard_ops = st.lists(
    st.one_of(
        # certify: items as (table_index, key) pairs + a snapshot-age fraction
        st.tuples(st.just("certify"),
                  st.lists(st.tuples(st.integers(0, 1), keys), min_size=1, max_size=5),
                  st.floats(0.0, 1.0)),
        st.tuples(st.just("poll"), st.just(0)),
        st.tuples(st.just("gc"), st.just(0)),
    ),
    min_size=1,
    max_size=50,
)


def _service_config(**overrides):
    base = dict(durability_enabled=True, gc_interval_requests=16,
                gc_headroom_versions=4, rng_seed=7)
    base.update(overrides)
    return CertifierConfig(**base)


class SeedOracle:
    """The seed :class:`Certifier` behind a synchronous durable log.

    Every commit is durable at once (the service flushes before it answers),
    GC runs on the service's request cadence with its headroom, and the
    replica state is rebuilt from the seed log's records in commit order —
    applied as each commit happens, so later GC never hides one.
    """

    def __init__(self, config):
        self.config = config
        self.core = Certifier(forced_abort_rate=config.forced_abort_rate,
                              abort_chooser=random.Random(config.rng_seed).random)
        self.state: dict = {}

    def certify(self, request):
        result = self.core.certify(request)
        if result.committed:
            version = result.tx_commit_version
            self.core.log.mark_durable(version)
            for item_id in self.core.log.record_at(version).writeset.iter_item_ids():
                self.state[item_id] = version
        if self.core.certification_requests % self.config.gc_interval_requests == 0:
            self.collect_garbage()
        return result

    def collect_garbage(self):
        self.core.collect_garbage(headroom=self.config.gc_headroom_versions)

    @property
    def version(self):
        return self.core.system_version.version


def _drain(subscription, state, last_seen):
    """Apply a subscription's delivered writesets to a model replica state.

    Asserts global version order on the way (an out-of-order delivery would
    be dropped by the real proxy's watermark filter).  Returns the highest
    version seen.
    """
    for info in subscription.poll_flat():
        assert info.commit_version > last_seen, "delivery out of version order"
        last_seen = info.commit_version
        for item_id in info.writeset.iter_item_ids():
            state[item_id] = info.commit_version
    return last_seen


@given(shard_ops, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_sharded_certifier_matches_single_decisions_and_replica_state(operations, shards):
    oracle = SeedOracle(_service_config())
    service = CertifierService(_service_config(shards=shards))

    subscription = service.subscribe_replica("observer", 0)
    oracle.core.note_replica_version("observer", 0)
    state: dict = {}
    seen = 0

    for op in operations:
        kind = op[0]
        if kind == "certify":
            _, entries, fraction = op
            writeset = make_writeset([(f"t{t}", k) for t, k in entries])
            start = _pick(oracle.core.log.pruned_version, oracle.version, fraction)
            request = dict(tx_start_version=start,
                           replica_version=oracle.version,
                           origin_replica="client")
            expected = oracle.certify(CertificationRequest(writeset=writeset, **request))
            result = service.certify(CertificationRequest(writeset=writeset, **request))
            assert result.committed == expected.committed
            assert result.tx_commit_version == expected.tx_commit_version
            assert result.conflicting_version == expected.conflicting_version
            # The merged in-band remote view matches version for version.
            assert ([i.commit_version for i in result.remote_writesets]
                    == [i.commit_version for i in expected.remote_writesets])
        elif kind == "poll":
            service.flush_propagation()
            seen = _drain(subscription, state, seen)
            # Everything committed is durable, so a refresh delivers it all.
            assert seen == subscription.version == oracle.version
            # Feed the observer's watermark so log GC can make progress.
            service.register_replica("observer", seen)
            oracle.core.note_replica_version("observer", oracle.version)
        elif kind == "gc":
            service.collect_garbage()
            oracle.collect_garbage()
        # The GC horizon tracks the seed's: the snapshot strategy above
        # draws from the seed log's window.
        assert service.core.pruned_version == oracle.core.log.pruned_version
        assert service.system_version == oracle.version

    # Final drain: the replica converges to the state rebuilt from the seed log.
    service.flush_propagation()
    seen = _drain(subscription, state, seen)
    assert seen == oracle.version
    assert state == oracle.state
    assert service.core.stats_snapshot().commits == oracle.core.commits
    assert service.core.stats_snapshot().aborts == oracle.core.aborts


@given(shard_ops, st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.1, max_value=0.5))
@settings(max_examples=25, deadline=None)
def test_sharded_forced_aborts_match_single(operations, shards, rate):
    """The §9.5 abort-injection knob fires identically at every shard count:
    the chooser is consulted at the same decision points with the same RNG."""
    oracle = SeedOracle(_service_config(forced_abort_rate=rate))
    service = CertifierService(_service_config(forced_abort_rate=rate, shards=shards))
    for op in operations:
        if op[0] != "certify":
            continue
        _, entries, fraction = op
        writeset = make_writeset([(f"t{t}", k) for t, k in entries])
        start = _pick(oracle.core.log.pruned_version, oracle.version, fraction)
        request = dict(tx_start_version=start,
                       replica_version=oracle.version,
                       origin_replica="client")
        expected = oracle.certify(CertificationRequest(writeset=writeset, **request))
        result = service.certify(CertificationRequest(writeset=writeset, **request))
        assert result.committed == expected.committed
        assert result.forced_abort == expected.forced_abort
        assert result.tx_commit_version == expected.tx_commit_version
