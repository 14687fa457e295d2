"""Tests of the live-cluster benchmark itself.

* the async transaction bodies leave the same table state as the workloads'
  own ``run_transaction`` over a ``LiveSession``, for one client and a fixed
  seed;
* the load comes from one thread over one data connection per replica;
* every metric the benchmark prints is declared in ``BENCHMARK.json`` with
  the same name and unit, and every name is well formed.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading

import pytest

from perfbench import ROOT, bench, loadgen
from repro.sim.rng import RandomStreams


def _tcp_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
        return True
    except OSError:
        return False


pytestmark = [
    pytest.mark.live,
    pytest.mark.skipif(not _tcp_available(),
                       reason="cannot bind localhost TCP sockets here"),
]

SEED = 7
TRANSACTIONS = 40


def _tables(cluster, workload) -> dict:
    cluster.refresh_all()
    return {schema.name: cluster.dump_table("replica-0", schema.name)
            for schema in workload.schemas()}


def _async_script_state(spec, tmp_path) -> tuple[list[bool], dict]:
    with bench.booted(spec, SEED, tmp_path) as (cluster, workload):
        async def main() -> list[bool]:
            channel = await loadgen.Channel.open(cluster.replicas["replica-0"].port)
            session = loadgen.AsyncSession(channel, "mirror-0")
            await session.open()
            rng = RandomStreams(SEED)
            outcomes = []
            for sequence in range(TRANSACTIONS):
                outcome = await spec.transaction(workload, session, rng,
                                                 client_index=0, sequence=sequence)
                outcomes.append(bool(outcome and outcome.committed))
            await session.close()
            await channel.close()
            return outcomes

        outcomes = asyncio.run(main())
        return outcomes, _tables(cluster, workload)


def _run_transaction_state(spec, tmp_path) -> tuple[list[bool], dict]:
    with bench.booted(spec, SEED, tmp_path) as (cluster, workload):
        rng = RandomStreams(SEED)
        with cluster.session("replica-0", client_name="mirror-0") as session:
            outcomes = [workload.run_transaction(session, rng, client_index=0,
                                                 sequence=sequence)
                        for sequence in range(TRANSACTIONS)]
        return outcomes, _tables(cluster, workload)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_async_script_mirrors_run_transaction(name, tmp_path):
    spec = bench.WORKLOADS[name]
    script_outcomes, script_state = _async_script_state(spec, tmp_path)
    reference_outcomes, reference_state = _run_transaction_state(spec, tmp_path)
    assert script_outcomes == reference_outcomes
    assert all(script_outcomes)
    assert script_state == reference_state


def test_one_thread_and_one_data_connection_per_replica(tmp_path):
    spec = bench.WORKLOADS["tpcw-fastdisk"]
    with bench.booted(spec, SEED, tmp_path) as (cluster, workload):
        initial = {t: cluster.dump_table("replica-0", t) for t in spec.checked_tables}
        before = bench.durability_counters(cluster)
        connections = {name: cluster.replica_stats(name)["server"]["connections"]
                       for name in cluster.replicas}
        threads = threading.active_count()
        driver = bench.drive(cluster, spec, workload, SEED, window_s=1.0)
        # Each stats call opens one connection of its own, counted too.
        opened = {name: cluster.replica_stats(name)["server"]["connections"]
                  - connections[name] - 1 for name in cluster.replicas}
        failures = bench.check_outputs(cluster, spec, initial, before, driver)
    assert opened == {name: 1 for name in cluster.replicas}
    assert driver.threads_seen == threads
    assert driver.failures == [] and failures == []
    assert driver.committed > 0


def test_metrics_match_the_declared_names_and_units(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench.WORKLOADS["tpcw-fastdisk"]
    run = bench.measured_run(spec, SEED, 1.0, tmp_path, traced=True)
    assert run.check_failures == [] and run.driver.failures == []
    doc = bench.trace_document(run, spec, SEED, untraced_tps=1.0)
    printed = {
        "end_to_end": bench.end_to_end_metrics(run, [run.setup_s]),
        "per_layer": bench.per_layer_metrics(json.loads(json.dumps(doc))),
    }
    for kind, metrics in printed.items():
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert {name: unit for name, (_, unit) in metrics.items()} == units
        for name, (value, unit) in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert unit, name
            assert isinstance(value, (int, float)), name
