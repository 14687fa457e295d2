"""Single-threaded asyncio load generator for the live cluster.

One :class:`Channel` per replica carries every logical client's frames over
one connection, tagged with request ids so replies may come back out of
order.  Each logical client owns an :class:`AsyncSession`, the asyncio twin
of :class:`repro.live.client.LiveSession`: statements without a result ride
ahead of the next read or commit in one ``session_batch`` frame, and every
commit carries a unique ``<client>:<seq>`` transaction id.

The transaction bodies below mirror ``run_transaction`` of
:mod:`repro.workloads` statement for statement: same tables, keys,
``RandomStreams`` stream names and draw order.  ``test_perfbench.py`` holds
them to that by comparing table state after a single-client run of each.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.errors import TransactionAborted
from repro.live import codec
from repro.live.wire import ConnectionLost, RemoteCallError, encode_frame, read_frame
from repro.middleware.proxy import CommitOutcome


class Channel:
    """One rid-tagged connection to a replica, shared by many sessions."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._rids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed: Exception | None = None
        self.frames = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "Channel":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception = ConnectionLost("replica closed the connection")
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                future = self._pending.pop(message.pop("rid", None), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, asyncio.IncompleteReadError, ConnectionLost) as exc:
            error = ConnectionLost(f"replica connection failed: {exc}")
        finally:
            self._closed = error
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def call(self, op: str, **fields: object) -> dict:
        """One round trip; raises :class:`RemoteCallError` on an error reply."""
        if self._closed is not None:
            raise self._closed
        rid = next(self._rids)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        self._writer.write(encode_frame({"op": op, "rid": rid, **fields}))
        self.frames += 1
        await self._writer.drain()
        response = await future
        if not response.get("ok", False):
            raise RemoteCallError(
                op, str(response.get("error", "unknown remote error")),
                error_type=str(response.get("error_type", "error")),
                reason=response.get("reason"))
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass


class AsyncSession:
    """``LiveSession`` semantics over a shared :class:`Channel`.

    ``frames`` collects one ``(label, start, end)`` span per frame of the
    current transaction when ``traced``; ``commit_rtt`` always holds the
    round trip of the last frame that carried a commit.
    """

    def __init__(self, channel: Channel, client_name: str, *,
                 traced: bool = False) -> None:
        self.channel = channel
        self.client_name = client_name
        self.traced = traced
        self.session_id: int | None = None
        self.frames: list[tuple[str, float, float]] = []
        self.commit_rtt = 0.0
        self.last_tx_id: str | None = None
        self._seq = 0
        self._deferred: list[dict] = []

    async def open(self) -> None:
        response = await self.channel.call("open_session",
                                           client_name=self.client_name)
        self.session_id = response["session_id"]

    async def close(self) -> None:
        self._deferred.clear()
        await self.channel.call("close_session", session_id=self.session_id)

    async def _call(self, label: str, op: str, **fields: object) -> dict:
        started = time.perf_counter()
        try:
            return await self.channel.call(op, session_id=self.session_id,
                                           **fields)
        except RemoteCallError as exc:
            if exc.error_type == "TransactionAborted":
                raise TransactionAborted(exc.error, reason=exc.reason) from exc
            raise
        finally:
            ended = time.perf_counter()
            if label == "commit":
                self.commit_rtt = ended - started
            if self.traced:
                self.frames.append((label, started, ended))

    async def _sync_call(self, op: str, **fields: object) -> dict:
        label = "commit" if op == "commit" else "stmt"
        if not self._deferred:
            return await self._call(label, op, **fields)
        ops = self._deferred + [{"op": op, **fields}]
        self._deferred = []
        results = (await self._call(label, "session_batch", ops=ops))["results"]
        last = results[-1] if results else {}
        if not last.get("ok", False):
            failed_op = str(ops[max(len(results) - 1, 0)]["op"])
            error = RemoteCallError(
                failed_op, str(last.get("error", "unknown remote error")),
                error_type=str(last.get("error_type", "error")),
                reason=last.get("reason"))
            if error.error_type == "TransactionAborted":
                raise TransactionAborted(error.error,
                                         reason=error.reason) from error
            raise error
        return last

    def begin(self) -> None:
        self.frames = []
        self.last_tx_id = None
        self._deferred.append({"op": "begin"})

    async def read(self, table: str, key: object) -> dict | None:
        return (await self._sync_call("read", table=table, key=key))["row"]

    def insert(self, table: str, key: object, **values: object) -> None:
        self._deferred.append({"op": "insert", "table": table, "key": key,
                               "values": values})

    def update(self, table: str, key: object, **values: object) -> None:
        self._deferred.append({"op": "update", "table": table, "key": key,
                               "values": values})

    async def commit(self) -> CommitOutcome:
        self._seq += 1
        self.last_tx_id = f"{self.client_name}:{self._seq}"
        response = await self._sync_call("commit", tx_id=self.last_tx_id)
        return codec.decode_outcome(response["outcome"])

    async def abort(self) -> None:
        await self._sync_call("abort")


# -- transaction bodies: async mirrors of the workloads' run_transaction ------


async def allupdates_transaction(workload, session: AsyncSession, rng, *,
                                 client_index: int, sequence: int) -> CommitOutcome:
    replica_index = client_index % workload.num_replicas
    key = workload._counter_key(replica_index, client_index, sequence)
    session.begin()
    row = await session.read("counters", key)
    current = int(row["value"]) if row is not None else 0
    session.update("counters", key, value=current + 1, note=f"seq-{sequence}")
    return await session.commit()


async def tpcb_transaction(workload, session: AsyncSession, rng, *,
                           client_index: int, sequence: int) -> CommitOutcome | None:
    accounts_per_branch = workload.accounts_per_branch_functional
    stream = f"tpcb-func:{client_index}"
    branch = rng.choice_index(stream, workload.functional_branches)
    teller = branch * workload.tellers_per_branch + rng.choice_index(
        stream, workload.tellers_per_branch)
    account = branch * accounts_per_branch + rng.choice_index(stream, accounts_per_branch)
    delta = rng.choice_index(stream, 1999) - 999

    session.begin()
    account_row = await session.read("accounts", account)
    teller_row = await session.read("tellers", teller)
    branch_row = await session.read("branches", branch)
    if account_row is None or teller_row is None or branch_row is None:
        await session.abort()
        return None
    session.update("accounts", account, balance=int(account_row["balance"]) + delta)
    session.update("tellers", teller, balance=int(teller_row["balance"]) + delta)
    session.update("branches", branch, balance=int(branch_row["balance"]) + delta)
    history = f"h-{client_index}-{sequence}"
    session.insert("history", history, id=history, account=account,
                   teller=teller, branch=branch, delta=delta)
    return await session.commit()


async def tpcw_transaction(workload, session: AsyncSession, rng, *,
                           client_index: int, sequence: int) -> CommitOutcome | None:
    stream = f"tpcw-func:{client_index}"
    if rng.random(stream) >= workload.update_fraction:
        session.begin()
        for _ in range(3):
            item = rng.choice_index(stream, workload.items_functional)
            await session.read("items", item)
        return await session.commit()
    customer = rng.choice_index(stream, workload.customers_functional)
    item = rng.choice_index(stream, workload.items_functional)
    order_id = f"o-{client_index}-{sequence}"
    session.begin()
    item_row = await session.read("items", item)
    customer_row = await session.read("customers", customer)
    if item_row is None or customer_row is None:
        await session.abort()
        return None
    qty = 1 + rng.choice_index(stream, 3)
    session.insert("orders", order_id, id=order_id, customer=customer,
                   total=int(item_row["price"]) * qty, status="pending",
                   ship_addr="1 repro way")
    session.insert("order_line", f"{order_id}-1", id=f"{order_id}-1",
                   order=order_id, item=item, qty=qty, comments="")
    session.update("items", item, stock=int(item_row["stock"]) - qty)
    session.update("customers", customer, last_order=order_id)
    return await session.commit()
