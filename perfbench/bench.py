"""Cluster set-up, the measured window, output checks and the metrics.

One benchmark run boots the fixed cluster shape (Tashkent-MW, two replicas,
one certifier shard, one scheduler), loads the workload's data through
``workload.setup`` on a ``LiveSession``, and drives it from one asyncio
thread (:mod:`perfbench.loadgen`).  The untraced run gives the end-to-end
metrics; the traced run records per-frame spans and scrapes every node's
``stats`` op and ``/proc`` at each fifth of the window, writes them to a
trace file, and derives the per-layer metrics from that file.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from perfbench import loadgen
from repro.core.config import ReplicationConfig, SystemKind
from repro.errors import TransactionAborted
from repro.live.cluster import LiveCluster
from repro.live.wire import WireError, encode_frame, read_frame
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

REPLICAS = 2
#: Load before the window starts; part of set-up.
WARMUP_S = 1.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Scrapes in a traced run: window start plus one at the end of each fifth.
FIFTHS = 5
#: Upper bound on finishing in-flight transactions after the window.
DRAIN_TIMEOUT_S = 30.0


# -- output checks -------------------------------------------------------------


def _rows(state: dict, table: str) -> list[dict]:
    return list(state[table].values())


def check_allupdates(initial: dict, final: dict, commits: int) -> list[str]:
    added = (sum(int(r["value"]) for r in _rows(final, "counters"))
             - sum(int(r["value"]) for r in _rows(initial, "counters")))
    if added != commits:
        return [f"sum(counters.value) grew by {added}, {commits} commits"]
    return []


def check_tpcb(initial: dict, final: dict, commits: int) -> list[str]:
    sums = {table: sum(int(r["balance"]) for r in _rows(final, table))
            for table in ("accounts", "tellers", "branches")}
    sums["history.delta"] = sum(int(r["delta"]) for r in _rows(final, "history"))
    failures = []
    if len(set(sums.values())) != 1:
        failures.append(f"balances disagree: {sums}")
    history = len(final["history"]) - len(initial["history"])
    if history != commits:
        failures.append(f"{history} history rows added, {commits} commits")
    return failures


def check_tpcw(initial: dict, final: dict, commits: int) -> list[str]:
    failures = []
    for table in ("orders", "order_line"):
        added = len(final[table]) - len(initial[table])
        if added != commits:
            failures.append(f"{added} {table} rows added, {commits} buys")
    sold = sum(int(row["stock"]) - int(final["items"][key]["stock"])
               for key, row in initial["items"].items())
    ordered = (sum(int(r["qty"]) for r in _rows(final, "order_line"))
               - sum(int(r["qty"]) for r in _rows(initial, "order_line")))
    if sold != ordered:
        failures.append(f"stock fell by {sold}, order lines hold {ordered}")
    return failures


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: traffic, client count and shard fsync floor."""

    name: str
    kind: str
    scale: int
    clients: int
    fsync_floor_ms: float
    transaction: Callable
    check: Callable[[dict, dict, int], list[str]]
    #: Tables the output check reads.
    checked_tables: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("allupdates-disk8", "allupdates", 1, 12, 8.0,
             loadgen.allupdates_transaction, check_allupdates, ("counters",)),
    Workload("tpcb-fastdisk", "tpcb", 32, 16, 0.0,
             loadgen.tpcb_transaction, check_tpcb,
             ("accounts", "tellers", "branches", "history")),
    Workload("tpcw-fastdisk", "tpcw", 1, 16, 0.0,
             loadgen.tpcw_transaction, check_tpcw,
             ("items", "orders", "order_line")),
)}


@contextmanager
def booted(spec: Workload, seed: int, out_dir: Path) -> Iterator[tuple[LiveCluster, object]]:
    """A started cluster with the workload's data loaded on every replica."""
    workload = workload_by_name(spec.kind, num_replicas=REPLICAS, scale=spec.scale)
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW,
                               num_replicas=REPLICAS, certifier_shards=1,
                               rng_seed=seed,
                               live_wal_fsync_floor_ms=spec.fsync_floor_ms)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="cluster-", dir=out_dir)
    try:
        with LiveCluster(config, workload.schemas(), run_dir=run_dir) as cluster:
            cluster.load_initial_data(workload)
            yield cluster, workload
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# -- /proc sampling --------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def proc_sample(pid: int) -> dict:
    """CPU seconds (user + system) and resident set size of one process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    rss_kb = 0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                rss_kb = int(line.split()[1])
                break
    return {"cpu_s": (int(fields[11]) + int(fields[12])) / _TICKS,
            "rss_kb": rss_kb}


def host_cpu_ticks() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (steal is field 8)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    deltas = [b - a for a, b in zip(before, after)]
    return ratio(deltas[7], sum(deltas))


def cluster_rss_mb(cluster: LiveCluster) -> float:
    return sum(proc_sample(node.pid)["rss_kb"]
               for node in cluster.harness.nodes.values()) / 1024.0


async def node_stats(port: int) -> dict:
    """One ``stats`` call on a connection of its own (not a data connection)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame({"op": "stats"}))
        await writer.drain()
        response = await read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if not response or not response.pop("ok", False):
        raise WireError(f"stats call on port {port} failed: {response}")
    return response


# -- the load driver -------------------------------------------------------------


class Driver:
    """N closed-loop clients on one thread, one data connection per replica."""

    def __init__(self, cluster: LiveCluster, spec: Workload, workload, seed: int,
                 *, traced: bool = False) -> None:
        self.cluster = cluster
        self.spec = spec
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.channels: dict[str, loadgen.Channel] = {}
        self.sessions: list[loadgen.AsyncSession] = []
        self._tasks: list[asyncio.Task] = []
        self._stop = False
        self.window: tuple[float, float] | None = None
        self._window_start: float | None = None
        #: Update commits over the cluster's whole life (output checks).
        self.update_commits = 0
        #: Failures at any time, in or out of the window.
        self.failures: list[str] = []
        # In-window tallies.
        self.attempted = 0
        self.committed = 0
        self.aborts: Counter[str] = Counter()
        self.txn_s: list[float] = []
        self.commit_s: list[float] = []
        self.ro_txn_s: list[float] = []
        self.spans: list[list] = []
        self.scrapes: list[dict] = []
        self.threads_seen = threading.active_count()
        #: When warm-up ended and the window could start.
        self.setup_done = 0.0
        #: Summed VmRSS of every node at the end of the window.
        self.rss_mb = 0.0
        #: CPU the host stole from this machine during the window; the main
        #: source of run-to-run spread on a shared virtual machine.
        self.host_steal_frac = 0.0

    async def start(self) -> None:
        for name, node in self.cluster.replicas.items():
            self.channels[name] = await loadgen.Channel.open(node.port)
        names = list(self.channels)
        self.sessions = [
            loadgen.AsyncSession(self.channels[names[i % len(names)]],
                                 f"bench-{i}", traced=self.traced)
            for i in range(self.spec.clients)]
        await asyncio.gather(*(s.open() for s in self.sessions))
        self._tasks = [asyncio.get_running_loop().create_task(self._client(i))
                       for i in range(self.spec.clients)]

    async def measure(self, seconds: float) -> None:
        ticks = host_cpu_ticks()
        started = time.perf_counter()
        self._window_start = started
        if self.traced:
            await self._scrape(started)
            for fifth in range(1, FIFTHS + 1):
                await asyncio.sleep(max(0.0, started + seconds * fifth / FIFTHS
                                        - time.perf_counter()))
                await self._scrape(started)
        else:
            await asyncio.sleep(seconds)
        self.window = (started, time.perf_counter())
        self.host_steal_frac = steal_frac(ticks, host_cpu_ticks())

    async def stop(self) -> None:
        self._stop = True
        done, pending = await asyncio.wait(self._tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
            self.failures.append("client did not finish its transaction after the window")
        for task in done:
            if task.exception() is not None:
                self.failures.append(f"client crashed: {task.exception()!r}")
        if pending:
            await asyncio.wait(pending)
        # A failed channel fails its sessions' close too; that failure is
        # already recorded by the client that saw it.
        await asyncio.gather(*(s.close() for s in self.sessions),
                             return_exceptions=True)
        for channel in self.channels.values():
            await channel.close()

    async def _client(self, index: int) -> None:
        session = self.sessions[index]
        rng = RandomStreams(self.seed + index)
        sequence = 0
        while not self._stop:
            started = time.perf_counter()
            outcome = None
            try:
                outcome = await self.spec.transaction(
                    self.workload, session, rng, client_index=index,
                    sequence=sequence)
            except TransactionAborted as exc:
                status, reason = "abort", exc.reason or "abort"
            except (WireError, OSError) as exc:
                status, reason = "failed", f"{type(exc).__name__}: {exc}"
            else:
                if outcome is not None and outcome.committed:
                    status, reason = "commit", None
                else:
                    status = "abort"
                    reason = outcome.abort_reason if outcome else "client-abort"
            ended = time.perf_counter()
            self.threads_seen = max(self.threads_seen, threading.active_count())
            self._record(session, index, sequence, started, ended, status,
                         reason, outcome)
            sequence += 1
            if status == "failed":
                self.failures.append(f"client {index}: {reason}")
                return

    def _record(self, session, index, sequence, started, ended, status,
                reason, outcome) -> None:
        readonly = bool(outcome is not None and outcome.readonly)
        if status == "commit" and not readonly:
            self.update_commits += 1
        window_start = self._window_start
        in_window = (window_start is not None and ended >= window_start
                     and self.window is None)
        if in_window or status == "failed":
            self.attempted += 1
        if not in_window:
            return
        if status == "commit":
            self.committed += 1
            self.txn_s.append(ended - started)
            if readonly:
                self.ro_txn_s.append(ended - started)
            else:
                self.commit_s.append(session.commit_rtt)
        elif status == "abort":
            self.aborts[reason] += 1
        if self.traced:
            span_id = session.last_tx_id or f"{session.client_name}/{sequence}"
            self.spans.append([
                span_id, index, started - window_start, ended - window_start,
                status, reason, readonly,
                [[label, s - window_start, e - window_start]
                 for label, s, e in session.frames]])

    async def _scrape(self, window_start: float) -> None:
        nodes = self.cluster.harness.nodes
        stats = await asyncio.gather(*(node_stats(n.port) for n in nodes.values()))
        driver = os.times()
        self.scrapes.append({
            "t": time.perf_counter() - window_start,
            "stats": dict(zip(nodes, stats)),
            "proc": {name: proc_sample(n.pid) for name, n in nodes.items()},
            "driver_cpu_s": driver.user + driver.system,
        })


def drive(cluster: LiveCluster, spec: Workload, workload, seed: int, *,
          window_s: float | None, traced: bool = False) -> Driver:
    """Start the clients, warm up, measure ``window_s`` (None: no window), stop."""
    driver = Driver(cluster, spec, workload, seed, traced=traced)

    async def main() -> None:
        await driver.start()
        try:
            await asyncio.sleep(WARMUP_S)
            driver.setup_done = time.perf_counter()
            if window_s is not None:
                await driver.measure(window_s)
                driver.rss_mb = cluster_rss_mb(cluster)
        finally:
            await driver.stop()

    asyncio.run(main())
    return driver


def check_outputs(cluster: LiveCluster, spec: Workload, initial: dict,
                  before: dict, driver: Driver) -> list[str]:
    """Every output check after a window; returns the failures."""
    try:
        return _check_outputs(cluster, spec, initial, before, driver)
    except (WireError, OSError) as exc:
        return [f"output checks could not read the cluster: {exc!r}"]


def _check_outputs(cluster: LiveCluster, spec: Workload, initial: dict,
                   before: dict, driver: Driver) -> list[str]:
    cluster.refresh_all()
    tables = [schema.name for schema in driver.workload.schemas()]
    failures = []
    if not cluster.replicas_consistent(tables):
        failures.append("replicas hold different table states after refresh")
    final = {t: cluster.dump_table("replica-0", t) for t in spec.checked_tables}
    failures += spec.check(initial, final, driver.update_commits)
    after = durability_counters(cluster)
    wal = after["wal_records"] - before["wal_records"]
    admitted = after["admitted"] - before["admitted"]
    if wal != admitted:
        failures.append(f"shard WAL gained {wal} records, certifier admitted {admitted}")
    return failures


def durability_counters(cluster: LiveCluster) -> dict:
    return {"wal_records": cluster.shard_wal_stats(0)["records"],
            "admitted": cluster.scheduler_stats()["service"]["commits"]}


@dataclass
class Measured:
    driver: Driver
    setup_s: float
    check_failures: list[str]


def measured_run(spec: Workload, seed: int, seconds: float, out_dir: Path, *,
                 traced: bool) -> Measured:
    """Boot, load, warm up, measure one window, check outputs, tear down."""
    started = time.perf_counter()
    with booted(spec, seed, out_dir) as (cluster, workload):
        initial = {t: cluster.dump_table("replica-0", t) for t in spec.checked_tables}
        before = durability_counters(cluster)
        driver = drive(cluster, spec, workload, seed, window_s=seconds,
                       traced=traced)
        failures = check_outputs(cluster, spec, initial, before, driver)
    return Measured(driver, driver.setup_done - started, failures)


def setup_only(spec: Workload, seed: int, out_dir: Path) -> Measured:
    """One cluster set-up (boot, load, refresh, warm-up) and no window."""
    started = time.perf_counter()
    with booted(spec, seed, out_dir) as (cluster, workload):
        driver = drive(cluster, spec, workload, seed, window_s=None)
    return Measured(driver, driver.setup_done - started, [])


# -- metrics -----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(run: Measured, setup_times: list[float]) -> dict:
    driver = run.driver
    start, end = driver.window
    return {
        "tps": (driver.committed / (end - start), "1/s"),
        "txn_p50_ms": (percentile(driver.txn_s, 0.50) * 1e3, "ms"),
        "txn_p95_ms": (percentile(driver.txn_s, 0.95) * 1e3, "ms"),
        "commit_p50_ms": (percentile(driver.commit_s, 0.50) * 1e3, "ms"),
        "commit_p95_ms": (percentile(driver.commit_s, 0.95) * 1e3, "ms"),
        "attempts_per_commit": (ratio(driver.attempted, driver.committed), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cluster_rss_mb": (driver.rss_mb, "MB"),
    }


def trace_document(run: Measured, spec: Workload, seed: int,
                   untraced_tps: float) -> dict:
    driver = run.driver
    start, end = driver.window
    return {
        "workload": spec.name, "seed": seed, "clients": spec.clients,
        "window_s": end - start, "untraced_tps": untraced_tps,
        "host_steal_frac": driver.host_steal_frac,
        "span_fields": ["id", "client", "start_s", "end_s", "status",
                        "reason", "readonly", "frames"],
        "spans": driver.spans,
        "scrapes": driver.scrapes,
    }


def _delta(first: dict, last: dict, *path: str | int) -> float:
    a, b = first, last
    for key in path:
        a, b = a[key], b[key]
    return b - a


def per_layer_metrics(doc: dict) -> dict:
    """Every per-layer metric, from a trace document alone."""
    spans = doc["spans"]
    first, last = doc["scrapes"][0], doc["scrapes"][-1]
    elapsed = last["t"] - first["t"]
    s0, s1 = first["stats"], last["stats"]
    replicas = [name for name in s1 if name.startswith("replica-")]

    def replicas_delta(*path: str) -> float:
        return sum(_delta(s0[r], s1[r], *path) for r in replicas)

    def cpu_ms(name: str) -> float:
        return (last["proc"][name]["cpu_s"] - first["proc"][name]["cpu_s"]) * 1e3

    attempted = len(spans)
    committed = sum(1 for s in spans if s[4] == "commit")
    service = ("scheduler", "service")
    requests = _delta(s0, s1, *service, "requests")
    commits = _delta(s0, s1, *service, "commits")
    batching = ("scheduler", "certify_batching")
    rounds = _delta(s0, s1, *batching, "rounds")
    batches = _delta(s0, s1, "shard-0", "wal", "batches")
    frames = [f for s in spans for f in s[7]]
    stmt = [e - b for label, b, e in frames if label == "stmt"]
    fifth = doc["window_s"] / FIFTHS
    stmt_first = [e - b for label, b, e in frames if label == "stmt" and e <= fifth]
    stmt_last = [e - b for label, b, e in frames
                 if label == "stmt" and b >= doc["window_s"] - fifth]
    certified = [e - b for s in spans for label, b, e in s[7]
                 if label == "commit" and not s[6]
                 and (s[4] == "commit" or s[5] in ("certification", "forced-abort"))]
    wait_ms = ratio(replicas_delta("commit_wire_wait_s") * 1e3, requests)
    gate_ms = ratio(replicas_delta("commit_gate_wait_s") * 1e3, requests)
    round_ms = ratio(_delta(s0, s1, *batching, "busy_s") * 1e3, rounds)
    proxy = ("stats", "proxy")
    mvcc = [s1[r]["stats"]["database"]["mvcc"] for r in replicas]
    traced_tps = committed / doc["window_s"]
    wal_client = ("scheduler", "wal_clients", 0)
    wal_sync_s = _delta(s0, s1, *wal_client, "sync_wait_s")
    wal_calls = _delta(s0, s1, *wal_client, "calls")
    rss_mb = [sum(p["rss_kb"] for p in scrape["proc"].values()) / 1024.0
              for scrape in doc["scrapes"]]
    return {
        "trace.tps": (traced_tps, "1/s"),
        "trace.tps_ratio": (ratio(traced_tps, doc["untraced_tps"]), "ratio"),
        "driver.cpu_ms_per_txn": (
            ratio((last["driver_cpu_s"] - first["driver_cpu_s"]) * 1e3, attempted), "ms"),
        "driver.txn_p99_ms": (percentile(
            [s[3] - s[2] for s in spans if s[4] == "commit"], 0.99) * 1e3, "ms"),
        "wire.frames_per_txn": (ratio(len(frames), attempted), "count"),
        "wire.replica_bytes_per_txn": (ratio(
            replicas_delta("server", "bytes_in") + replicas_delta("server", "bytes_out"),
            attempted), "bytes"),
        "wire.cert_bytes_per_commit": (ratio(
            replicas_delta("certifier_wire", "bytes_sent")
            + replicas_delta("certifier_wire", "bytes_received"), commits), "bytes"),
        "wire.scheduler_in_flight_hw": (
            s1["scheduler"]["server"]["in_flight_high_water"], "count"),
        "replica.stmt_p50_ms": (percentile(stmt, 0.50) * 1e3, "ms"),
        "replica.stmt_p95_ms": (percentile(stmt, 0.95) * 1e3, "ms"),
        "replica.stmt_p50_ms_last_over_first": (ratio(
            percentile(stmt_last, 0.50), percentile(stmt_first, 0.50)), "ratio"),
        "replica.local_commit_ms": (
            ratio(sum(certified), len(certified)) * 1e3 - wait_ms - gate_ms, "ms"),
        "replica.remote_ws_per_commit": (ratio(
            replicas_delta(*proxy, "remote_writesets_applied"), commits), "count"),
        "replica.cpu_ms_per_txn": (ratio(
            sum(cpu_ms(r) for r in replicas), attempted), "ms"),
        "proxy.ww_block_abort_frac": (ratio(
            sum(1 for s in spans if s[5] == "ww-block"), attempted), "ratio"),
        "proxy.local_cert_abort_frac": (ratio(
            replicas_delta(*proxy, "local_certification_aborts"), attempted), "ratio"),
        "proxy.eager_precert_abort_frac": (ratio(
            replicas_delta(*proxy, "eager_precert_aborts"), attempted), "ratio"),
        "engine.versions_per_row": (ratio(
            sum(m["versions_installed"] - m["versions_reclaimed"] for m in mvcc),
            sum(m["live_rows"] for m in mvcc)), "count"),
        "engine.dead_candidates": (sum(m["dead_candidates"] for m in mvcc), "count"),
        "certify.wait_ms_per_commit": (wait_ms, "ms"),
        "certify.gate_ms_per_commit": (gate_ms, "ms"),
        "scheduler.round_size_mean": (ratio(
            _delta(s0, s1, *batching, "requests"), rounds), "count"),
        "scheduler.rounds_per_s": (ratio(rounds, elapsed), "1/s"),
        "scheduler.busy_frac": (ratio(
            _delta(s0, s1, *batching, "busy_s"), elapsed), "ratio"),
        "scheduler.round_ms": (round_ms, "ms"),
        "scheduler.exec_ms_per_round": (ratio(
            _delta(s0, s1, *batching, "exec_s") * 1e3, rounds), "ms"),
        "scheduler.queue_ms_per_commit": (wait_ms - round_ms, "ms"),
        "scheduler.cpu_ms_per_commit": (ratio(cpu_ms("scheduler"), commits), "ms"),
        "scheduler.tx_table_size": (s1["scheduler"]["tx_table_size"], "count"),
        "certifier.intersection_tests_per_request": (ratio(
            _delta(s0, s1, *service, "intersection_tests"), requests), "count"),
        "certifier.log_retained_records": (
            s1["scheduler"]["service"]["log_retained_records"], "count"),
        "certifier.abort_rate": (ratio(
            _delta(s0, s1, *service, "aborts"), requests), "ratio"),
        "wal.fsyncs_per_commit": (ratio(batches, commits), "ratio"),
        "wal.sync_ms": (ratio(wal_sync_s * 1e3, wal_calls), "ms"),
        "wal.bytes_per_commit": (ratio(
            _delta(s0, s1, "shard-0", "wal", "bytes"), commits), "bytes"),
        "wal.cpu_ms_per_fsync": (ratio(cpu_ms("shard-0"), batches), "ms"),
        "wal.resent_batches": (_delta(s0, s1, "scheduler", "wal_resent_batches"), "count"),
        "cluster.rss_growth_mb": (rss_mb[-1] - rss_mb[0], "MB"),
        "host.cpu_steal_frac": (doc["host_steal_frac"], "ratio"),
    }


def time_series(doc: dict) -> list[dict]:
    """State growth per fifth: statement latency, table sizes, WAL, RSS."""
    fifth = doc["window_s"] / FIFTHS
    series = []
    for index, scrape in enumerate(doc["scrapes"]):
        stats = scrape["stats"]
        stmt = [e - b for s in doc["spans"] for label, b, e in s[7]
                if label == "stmt" and (index - 1) * fifth <= b < index * fifth]
        series.append({
            "t_s": round(scrape["t"], 3),
            "stmt_p50_ms": percentile(stmt, 0.5) * 1e3 if stmt else None,
            "tx_table_size": stats["scheduler"]["tx_table_size"],
            "certifier_log_retained": stats["scheduler"]["service"]["log_retained_records"],
            "wal_bytes": stats["shard-0"]["wal"]["bytes"],
            "cluster_rss_mb": round(sum(p["rss_kb"] for p in scrape["proc"].values())
                                    / 1024.0, 1),
        })
    return series


def write_trace(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
