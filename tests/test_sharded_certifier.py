"""Tests for the certifier front-ends at N >= 1 shards in both stacks.

Covers the functional :class:`CertifierService` (per-shard fsync
pipelines, merged propagation, disconnect hygiene), the transport-layer
:class:`MergedSubscription` (deterministic version-ordered merge, held-gap
release, out-of-band advances) and the simulated :class:`SimCertifierNode`
(per-shard log devices, release once all touched shards flushed,
full-cluster runs on every system kind).
"""

import pytest

from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.core.certification import CertificationRequest, RemoteWriteSetInfo
from repro.core.config import ReplicationConfig, SystemKind, WorkloadName
from repro.core.writeset import make_writeset
from repro.errors import ConfigurationError
from repro.core.certification import Certifier
from repro.middleware.certifier import CertifierConfig, CertifierService
from repro.middleware.systems import build_replicated_system
from repro.transport import MergedSubscription, WritesetStream


def request(service, entries, *, start=None, origin="r0"):
    current = service.system_version
    return CertificationRequest(
        tx_start_version=current if start is None else start,
        writeset=make_writeset(entries),
        replica_version=current,
        origin_replica=origin,
    )


def shard_key(partitioner, shard_id, table="t"):
    return next(k for k in range(10_000)
                if partitioner.shard_of((table, k)) == shard_id)


# ---------------------------------------------------------------------------- construction


def test_no_argument_service_is_the_single_certifier():
    service = CertifierService()
    assert service.config == CertifierConfig()
    assert service.core.num_shards == 1
    assert len(service.streams) == 1
    assert len(service.devices) == 1
    assert service.stats()["shards"] == 1.0


def test_service_rejects_bad_shard_counts_and_device_lists():
    with pytest.raises(ConfigurationError):
        CertifierService(CertifierConfig(shards=0))
    with pytest.raises(ConfigurationError):
        CertifierService(CertifierConfig(shards=2), log_devices=[])


# ---------------------------------------------------------------------------- functional service


def test_single_shard_commit_costs_one_shard_fsync():
    service = CertifierService(CertifierConfig(shards=4))
    key = shard_key(service.core.partitioner, 2)
    result = service.certify(request(service, [("t", key)]))
    assert result.committed
    assert [d.sync_count for d in service.devices] == [0, 0, 1, 0]
    assert service.core.durable_version == 1


def test_cross_shard_commit_is_durable_on_every_touched_shard():
    service = CertifierService(CertifierConfig(shards=2))
    k0 = shard_key(service.core.partitioner, 0)
    k1 = shard_key(service.core.partitioner, 1)
    result = service.certify(request(service, [("t", k0), ("t", k1)]))
    assert result.committed
    assert [d.sync_count for d in service.devices] == [1, 1]
    assert service.core.is_record_durable(result.tx_commit_version)
    assert service.fsync_count == 2
    assert service.writesets_per_fsync == 1.0


def test_subscriber_sees_version_ordered_merged_stream():
    service = CertifierService(CertifierConfig(shards=3))
    subscription = service.subscribe_replica("replica-A", 0)
    for k in range(25):
        assert service.certify(request(service, [("t", k)])).committed
    delivered = subscription.poll_flat()
    assert [info.commit_version for info in delivered] == list(range(1, 26))
    # Late joiner backfills the full history through the merged view.
    late = service.subscribe_replica("replica-B", 10)
    assert [i.commit_version for i in late.poll_flat()] == list(range(11, 26))


def test_disconnect_closes_every_shard_subscription():
    service = CertifierService(CertifierConfig(shards=3))
    service.subscribe_replica("replica-A", 0)
    assert sum(len(list(s.subscriptions())) for s in service.streams) == 3
    service.disconnect_replica("replica-A")
    assert sum(len(list(s.subscriptions())) for s in service.streams) == 0
    assert service.core.low_water_mark() is None


def test_sharded_gc_runs_on_the_request_interval():
    service = CertifierService(CertifierConfig(
        shards=2, gc_interval_requests=8, gc_headroom_versions=2))
    service.register_replica("r0", 0)
    for k in range(32):
        result = service.certify(request(service, [("t", k)]))
        assert result.committed
    assert service.core.pruned_version > 0
    assert service.stats()["gc_runs"] >= 1


def test_stats_dict_matches_single_service_shape():
    single = CertifierService()
    sharded = CertifierService(CertifierConfig(shards=2))
    assert set(sharded.stats()) == set(single.stats())
    # Every seed certifier counter is reported under its seed name.
    assert set(Certifier().stats()) <= set(single.stats())
    assert sharded.stats()["shards"] == 2.0
    assert single.stats()["shards"] == 1.0


def test_non_durable_sharded_service_propagates_before_flush():
    service = CertifierService(CertifierConfig(shards=2,
                                                      durability_enabled=False))
    subscription = service.subscribe_replica("replica-A", 0)
    assert service.certify(request(service, [("t", 1)])).committed
    assert service.fsync_count == 0
    assert [i.commit_version for i in subscription.poll_flat()] == [1]


# ---------------------------------------------------------------------------- merged subscription


def _info(version, key=0):
    return RemoteWriteSetInfo(
        commit_version=version,
        writeset=make_writeset([("t", key)]),
        origin_replica="origin",
        conflict_free_back_to=0,
    )


def test_merged_subscription_holds_gaps_until_the_owing_shard_delivers():
    streams = [WritesetStream(), WritesetStream()]
    merged = MergedSubscription(
        [stream.subscribe("r") for stream in streams], name="r")
    # Shard 1 delivers versions 2,3 before shard 0 has flushed version 1.
    streams[1].offer(_info(2))
    streams[1].offer(_info(3))
    streams[1].flush()
    assert merged.poll() == []
    assert merged.held_count == 2
    assert merged.pending_writesets == 2
    streams[0].offer(_info(1))
    streams[0].flush()
    released = merged.poll()
    assert [i.commit_version for batch in released for i in batch] == [1, 2, 3]
    assert merged.held_count == 0
    assert merged.version == 3


def test_merged_subscription_advance_to_drops_held_and_trims_parts():
    streams = [WritesetStream(), WritesetStream()]
    merged = MergedSubscription([s.subscribe("r") for s in streams], name="r")
    streams[1].offer(_info(3))
    streams[1].flush()
    merged.advance_to(4)  # versions 1-4 arrived in-band with commits
    assert merged.poll() == []
    assert merged.held_count == 0
    streams[0].offer(_info(5))
    streams[0].flush()
    assert [i.commit_version for i in merged.poll_flat()] == [5]


def test_merged_subscription_backfill_counts_as_held_until_polled():
    stream = WritesetStream()
    merged = MergedSubscription([stream.subscribe("r")], from_version=2,
                                backfill=[_info(2), _info(3), _info(4)])
    assert merged.pending_writesets == 2  # version 2 is below the cursor
    assert [i.commit_version for i in merged.poll_flat()] == [3, 4]


# ---------------------------------------------------------------------------- simulated cluster


def _sim(system, shards, *, replicas=2, measure_ms=500, **overrides):
    return run_experiment(ExperimentConfig(
        system=system,
        workload=WorkloadName.ALL_UPDATES,
        num_replicas=replicas,
        certifier_shards=shards,
        warmup_ms=200.0,
        measure_ms=measure_ms,
        **overrides,
    ))


@pytest.mark.parametrize("system", [
    SystemKind.TASHKENT_MW,
    SystemKind.BASE,
    SystemKind.TASHKENT_API,
    SystemKind.TASHKENT_API_NO_CERT,
])
def test_sim_sharded_certifier_runs_every_system_kind(system):
    result = _sim(system, shards=3)
    assert result.throughput_tps > 0
    assert result.utilization["certifier_shards"] == 3.0
    assert result.utilization["certifier_fsyncs"] >= (
        0 if system is SystemKind.TASHKENT_API_NO_CERT else 1
    )


#: ``run_experiment`` results at ``certifier_shards=1`` (500 ms warmup, 3 s
#: measured), recorded from the dedicated single-certifier sim node this
#: code replaced.  One shard must cost exactly what that node cost: shard 0
#: carries the coordinator's CPU lane and the single certifier's device
#: names (the disk name keys its fsync-time random stream), and a lone
#: stream keeps its fsync-group batch boundaries.
SINGLE_CERTIFIER_POINTS = [
    ((SystemKind.TASHKENT_MW, WorkloadName.ALL_UPDATES, 4), {
        "throughput_tps": 1836.0, "abort_rate": 0.0,
        "mean_response_ms": 21.77475449919254, "p95_response_ms": 28.596962030041595,
        "completed_transactions": 5508, "certifier_fsyncs": 387.0,
        "certifier_writesets_per_fsync": 16.599483204134366, "certifier_commits": 6447,
        "certifier_log_pruned_version": 5842, "certifier_propagation_batches": 387.0}),
    ((SystemKind.TASHKENT_API, WorkloadName.ALL_UPDATES, 4), {
        "throughput_tps": 640.0, "abort_rate": 0.0,
        "mean_response_ms": 62.37283601057832, "p95_response_ms": 80.84840931502004,
        "completed_transactions": 1920, "certifier_fsyncs": 366.0,
        "certifier_writesets_per_fsync": 6.131147540983607, "certifier_commits": 2250,
        "certifier_log_pruned_version": 1386, "certifier_propagation_batches": 366.0}),
    ((SystemKind.BASE, WorkloadName.TPC_B, 8), {
        "throughput_tps": 285.0, "abort_rate": 0.19567262464722485,
        "mean_response_ms": 226.38112671709496, "p95_response_ms": 262.71203522492806,
        "completed_transactions": 1063, "certifier_fsyncs": 380.0,
        "certifier_writesets_per_fsync": 2.768421052631579, "certifier_commits": 1054,
        "certifier_log_pruned_version": 329, "certifier_propagation_batches": 380.0}),
    ((SystemKind.TASHKENT_API, WorkloadName.TPC_W, 8), {
        "throughput_tps": 121.66666666666667, "abort_rate": 0.0,
        "mean_response_ms": 254.3147210052744, "p95_response_ms": 1437.8971681665726,
        "completed_transactions": 365, "certifier_fsyncs": 77.0,
        "certifier_writesets_per_fsync": 1.0, "certifier_commits": 77,
        "certifier_log_pruned_version": 0, "certifier_propagation_batches": 77.0}),
]


@pytest.mark.parametrize("point,expected", SINGLE_CERTIFIER_POINTS,
                         ids=["mw-allupdates-4", "api-allupdates-4", "base-tpcb-8",
                              "api-tpcw-8"])
def test_one_shard_costs_exactly_what_the_single_certifier_cost(point, expected):
    system, workload, replicas = point
    result = run_experiment(ExperimentConfig(
        system=system, workload=workload, num_replicas=replicas,
        certifier_shards=1, warmup_ms=500.0, measure_ms=3000.0))
    observed = {name: getattr(result, name, None) for name in expected}
    observed.update({name: result.utilization[name]
                     for name in expected if name.startswith("certifier_")})
    assert observed == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_sim_sharded_run_is_deterministic():
    first = _sim(SystemKind.TASHKENT_MW, shards=4)
    second = _sim(SystemKind.TASHKENT_MW, shards=4)
    assert first.throughput_tps == second.throughput_tps
    assert first.utilization["certifier_commits"] == second.utilization["certifier_commits"]


def test_sim_bounded_flush_batch_caps_the_fsync_group():
    result = _sim(SystemKind.TASHKENT_MW, shards=1, certifier_max_flush_batch=2,
                  replicas=4)
    per_fsync = result.utilization["certifier_writesets_per_fsync"]
    assert 0 < per_fsync <= 2.0


def test_sim_sharded_node_merges_in_version_order():
    """Drive the sharded node directly and check the replica-side stream."""
    from repro.cluster.nodes import SimCertifierNode
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    env = Environment()
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               certifier_shards=3)
    node = SimCertifierNode(env, config, RandomStreams(1),
                            durability_enabled=True)
    node.register_replica("replica-0")
    results = []

    def one_client(index):
        for round_number in range(10):
            request = CertificationRequest(
                tx_start_version=node.core.system_version.version,
                writeset=make_writeset([("t", index * 1000 + round_number)]),
                replica_version=node.core.system_version.version,
                origin_replica="replica-0",
            )
            result = yield from node.certify(request)
            results.append(result)

    for index in range(4):
        env.process(one_client(index), name=f"client-{index}")
    env.run_until(10_000)
    assert not env.failed_processes
    assert sum(1 for r in results if r.committed) == 40

    subscription = node.subscription("replica-0")
    for stream in node.streams:
        stream.flush(now=env.now)
    delivered = subscription.poll_flat()
    assert [i.commit_version for i in delivered] == list(range(1, 41))


def test_functional_sharded_system_replicas_stay_consistent():
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=3,
                               certifier_shards=4)
    system = build_replicated_system(config)
    system.create_table("acct", ["id", "bal"])
    sessions = [system.session(i, client_name=f"c{i}") for i in range(3)]
    for i in range(9):
        session = sessions[i % 3]
        session.begin()
        session.insert("acct", i, id=i, bal=i)
        assert session.commit().committed
    assert system.replicas_consistent()
    assert system.certifier.stats()["shards"] == 4.0
    assert system.total_fsyncs()["certifier"] == system.certifier.fsync_count
