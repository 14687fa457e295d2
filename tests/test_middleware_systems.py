"""Integration tests: whole replicated systems built from the public API."""

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.errors import ConfigurationError, TransactionAborted
from repro.middleware.systems import (
    build_base_system,
    build_replicated_system,
    build_tashkent_api_system,
    build_tashkent_mw_system,
)

BUILDERS = [build_base_system, build_tashkent_mw_system, build_tashkent_api_system]


def loaded_system(builder, num_replicas=3):
    system = builder(num_replicas=num_replicas)
    system.create_table("accounts", ["id", "balance"])

    def loader(session):
        session.begin()
        for i in range(12):
            session.insert("accounts", i, id=i, balance=100)
        assert session.commit().committed

    system.load_initial_data(loader)
    return system


@pytest.mark.parametrize("builder", BUILDERS)
def test_updates_on_any_replica_propagate_to_all(builder):
    system = loaded_system(builder)
    for replica_index in range(3):
        session = system.session(replica_index, client_name=f"c{replica_index}")
        session.begin()
        row = session.read("accounts", replica_index)
        session.update("accounts", replica_index, balance=row["balance"] + replica_index + 1)
        assert session.commit().committed
    assert system.replicas_consistent()
    reference = system.session(0)
    reference.begin()
    assert reference.read("accounts", 2)["balance"] == 103
    reference.commit()


@pytest.mark.parametrize("builder", BUILDERS)
def test_cross_replica_conflict_commits_exactly_one(builder):
    system = loaded_system(builder)
    s0 = system.session(0, client_name="c0")
    s1 = system.session(1, client_name="c1")
    s0.begin()
    s1.begin()
    outcomes = []
    for session, value in ((s0, 111), (s1, 222)):
        try:
            session.update("accounts", 7, balance=value)
            outcomes.append(session.commit().committed)
        except TransactionAborted:
            outcomes.append(False)
    assert outcomes.count(True) == 1
    assert system.replicas_consistent()


def test_fsync_accounting_separates_the_three_designs():
    """The core claim: where the synchronous writes happen differs by design."""
    workload = range(20)

    def run(builder):
        system = loaded_system(builder, num_replicas=2)
        sessions = [system.session(i % 2, client_name=f"c{i}") for i in range(2)]
        for i in workload:
            session = sessions[i % 2]
            session.begin()
            row = session.read("accounts", i % 12)
            session.update("accounts", i % 12, balance=row["balance"] + 1)
            session.commit()
        return system.total_fsyncs(), system

    base_fsyncs, _ = run(build_base_system)
    mw_fsyncs, mw_system = run(build_tashkent_mw_system)
    api_fsyncs, _ = run(build_tashkent_api_system)

    # Tashkent-MW replicas never write synchronously; Base replicas write for
    # every remote batch and every local commit; Tashkent-API writes grouped
    # flushes, strictly fewer than Base.
    assert mw_fsyncs["replicas"] == 0
    assert base_fsyncs["replicas"] > api_fsyncs["replicas"] > 0
    # Durability never disappears: the certifier logs in all three designs.
    assert mw_fsyncs["certifier"] > 0
    assert base_fsyncs["certifier"] > 0
    assert mw_system.certifier.core.durable_version == mw_system.certifier.system_version


def test_checkpoint_all_and_stats_snapshot():
    system = loaded_system(build_tashkent_mw_system, num_replicas=2)
    system.checkpoint_all()
    for replica in system.replicas:
        assert len(replica.checkpoints) == 1
    stats = system.stats()
    assert stats["system"] == "tashkent-mw"
    assert stats["num_replicas"] == 2
    assert len(stats["replicas"]) == 2


def test_build_replicated_system_rejects_standalone():
    with pytest.raises(ConfigurationError):
        build_replicated_system(ReplicationConfig(system=SystemKind.STANDALONE))


def test_session_index_out_of_range():
    system = loaded_system(build_base_system, num_replicas=2)
    with pytest.raises(ConfigurationError):
        system.session(5)


def test_sessions_round_robin_spread_over_replicas():
    system = loaded_system(build_base_system, num_replicas=3)
    sessions = system.sessions_round_robin(6)
    replicas = {session.proxy.replica_name for session in sessions}
    assert replicas == {"replica-0", "replica-1", "replica-2"}


def test_forced_abort_rate_flows_through_the_system():
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               forced_abort_rate=0.99, rng_seed=5)
    system = build_replicated_system(config)
    system.create_table("accounts", ["id", "balance"])

    def loader(session):
        session.begin()
        session.insert("accounts", 0, id=0, balance=0)
        session.commit()

    # With a 99% forced-abort rate the initial load may need several tries.
    session = system.session(0)
    aborted = 0
    for attempt in range(200):
        session.begin()
        session.insert("accounts", attempt + 1, id=attempt + 1, balance=0)
        if session.commit().committed:
            pass
        else:
            aborted += 1
    assert aborted > 100
