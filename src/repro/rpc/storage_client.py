"""A storage engine that speaks to the router's shared storage service.

:class:`RemoteStorage` is the node process's view of cloud storage.  Each
op of the :class:`~repro.storage.base.StorageEngine` contract is one
coroutine that awaits its socket round trip, and the engine declares
``wall_clock_io``, so sync callers are driven on the connection's loop.

Every op travels as one op of a ``storage_batch`` frame.  Ops go through a
cross-transaction :class:`_OpCoalescer`: the ops submitted within one
event-loop tick (or a configurable window) share a frame.  An IO plan is
one op group (``StorageEngine.execute_plan_async``), and this engine's
``execute_group_async`` — the one override of the base wave executor —
ships the group whole, so a plan crosses the wire as one round trip.  Its
stage barriers ride along as ``StorageOp.after`` links, which the router
runs through the same wave executor.  Independent single ops from
*concurrent* transactions share frames when they happen to meet.  Per-op
errors come back as data, so a fenced commit-record write fails exactly its
own waiter.

Once a frame has left, cancelling a waiter does not recall its ops: a
commit whose caller is cancelled after the flush still lands, data first
and record after, and the router fans the record out to the other nodes —
the commit is durable and visible to the peers, and only the origin node
never learns of it.

Accounting rule: the layer that returns to the caller does the stats and
latency accounting — the single-op coroutines account for themselves, the
batched ``execute_group_async`` accounts per op for the plan path, and the
coalescer never accounts.  Nothing is double-counted whichever path an op
takes.  The charges land on the attached ledger directly, without plan-stage
tags: no per-op ledger on the socket path.

Code on the connection's loop (the node server, ``AftNode.bootstrap_async``)
awaits the ``*_async`` coroutines.  The base class's sync names (``get``,
``list_keys``, ...) serve callers on *other* threads:
:func:`repro.runtime.drive` runs their coroutine on the connection's loop
and blocks the caller.  Calling them *on* the loop thread raises instead of
deadlocking.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Iterable, Mapping

from repro.errors import StorageError
from repro.observability import trace as tr
from repro.rpc import messages as m
from repro.rpc.framing import RpcConnection
from repro.storage.base import StorageEngine, StorageOp, StorageOpResult

#: Default socket round-trip budget per storage batch (generous: a stalled
#: router should surface as an error, not a hung node).  Configurable per
#: deployment via ``AftConfig.storage_request_timeout``.
DEFAULT_REQUEST_TIMEOUT = 30.0
#: Ops per frame at which the coalescer flushes without waiting for the tick.
COALESCE_MAX_OPS = 128


class _OpCoalescer:
    """Packs concurrently submitted storage ops into shared wire frames.

    ``submit_many`` parks a group of ops and schedules a flush; every group
    that lands before the flush callback runs — a whole IO plan *and* ops
    of other transactions interleaved on the loop — rides the same
    ``storage_batch`` frame.  The default window of 0 flushes on the next
    event-loop tick (``call_soon``): no added latency, pure piggybacking on
    natural concurrency.  A positive window trades that latency for bigger
    frames via ``call_later``.

    A group is never split across frames, because its ops' ``after`` links
    point into it: the group is parked contiguously with its links shifted
    to frame indexes, the open batch is flushed first if the group would
    overflow ``COALESCE_MAX_OPS``, and a group larger than the cap travels
    alone.
    """

    def __init__(self, conn: RpcConnection, owner: "RemoteStorage", window: float) -> None:
        self._conn = conn
        self._owner = owner
        self._window = window
        self._pending_ops: list[StorageOp] = []
        self._pending_futures: list[asyncio.Future] = []
        self._flush_handle: asyncio.TimerHandle | None = None

    def submit_many(self, ops: list[StorageOp]) -> list[asyncio.Future]:
        """Park one op group; each future resolves to its op's StorageOpResult."""
        loop = asyncio.get_running_loop()
        if self._pending_ops and len(self._pending_ops) + len(ops) > COALESCE_MAX_OPS:
            self._flush(loop)
        base = len(self._pending_ops)
        if base:
            ops = [
                replace(op, after=tuple(base + index for index in op.after)) if op.after else op
                for op in ops
            ]
        futures = [loop.create_future() for _ in ops]
        self._pending_ops.extend(ops)
        self._pending_futures.extend(futures)
        if len(self._pending_ops) >= COALESCE_MAX_OPS:
            self._flush(loop)
        elif self._flush_handle is None:
            if self._window > 0:
                self._flush_handle = loop.call_later(self._window, self._flush, loop)
            else:
                self._flush_handle = loop.call_soon(self._flush, loop)
        return futures

    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending_ops:
            return
        ops, self._pending_ops = self._pending_ops, []
        futures, self._pending_futures = self._pending_futures, []
        loop.create_task(self._send_batch(ops, futures))

    async def _send_batch(self, ops: list[StorageOp], futures: list[asyncio.Future]) -> None:
        try:
            # The flush span parents under whichever submitter's context the
            # flush callback inherited — a shared frame belongs to one trace
            # at most, and the per-op waiters carry their own spans anyway.
            with tr.span("storage.flush", n_ops=len(ops)):
                batch = m.encode_storage_ops(ops)
                batch.trace = tr.wire_context()
                self._conn.stats.batched_ops_sent += len(ops)
                reply = await self._conn.request(batch, timeout=self._owner.request_timeout)
            if not isinstance(reply, m.StorageBatchResult):
                raise StorageError(f"unexpected batch reply {type(reply).__name__}")
            results = m.decode_storage_results(reply)
            if len(results) != len(ops):
                raise StorageError(
                    f"batch reply carried {len(results)} results for {len(ops)} ops"
                )
        except Exception as exc:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)


class RemoteStorage(StorageEngine):
    """Durable key-value store proxied over an :class:`RpcConnection`."""

    name = "remote"
    wall_clock_io = True
    supports_batch_writes = True
    supports_batch_reads = True

    def __init__(
        self,
        conn: RpcConnection,
        loop: asyncio.AbstractEventLoop,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        coalesce_window: float = 0.0,
    ) -> None:
        super().__init__()
        #: The loop ``conn`` lives on; sync callers are driven there.
        self.loop = loop
        #: Socket round-trip budget per storage batch.
        self.request_timeout: float | None = request_timeout
        self._coalescer = _OpCoalescer(conn, self, coalesce_window)

    async def _apply(self, op: StorageOp) -> StorageOpResult:
        """Ship one op, raise its error or account for it."""
        result = await self._coalescer.submit_many([op])[0]
        if result.error is not None:
            raise result.error
        self._account_op(op, result)
        return result

    # ------------------------------------------------------------------ #
    # Accounting (stats + metered latency), one call per completed op
    # ------------------------------------------------------------------ #
    def _account_op(self, op: StorageOp, result: StorageOpResult) -> None:
        if op.op == "get":
            data = (result.values or {}).get(op.keys[0])
            with self._lock:
                self.stats.reads += 1
                if data is not None:
                    self.stats.items_read += 1
                    self.stats.bytes_read += len(data)
            self._charge("read", total_bytes=len(data) if data else 0)
        elif op.op == "multi_get":
            values = result.values or {}
            total = sum(len(v) for v in values.values() if v is not None)
            with self._lock:
                self.stats.batch_reads += 1
                self.stats.items_read += sum(1 for v in values.values() if v is not None)
                self.stats.bytes_read += total
            self._charge("batch_read", n_items=max(1, len(op.keys)), total_bytes=total)
        elif op.op == "put":
            total = sum(len(v) for v in (op.items or {}).values())
            with self._lock:
                self.stats.writes += 1
                self.stats.items_written += 1
                self.stats.bytes_written += total
            self._charge("write", total_bytes=total)
        elif op.op == "multi_put":
            items = op.items or {}
            total = sum(len(v) for v in items.values())
            with self._lock:
                self.stats.batch_writes += 1
                self.stats.items_written += len(items)
                self.stats.bytes_written += total
            self._charge("batch_write", n_items=max(1, len(items)), total_bytes=total)
        elif op.op == "delete":
            with self._lock:
                self.stats.deletes += 1
                self.stats.items_deleted += 1
            self._charge("delete")
        elif op.op == "multi_delete":
            with self._lock:
                self.stats.deletes += 1
                self.stats.items_deleted += len(op.keys)
            self._charge("batch_write", n_items=max(1, len(op.keys)))
        elif op.op == "list":
            with self._lock:
                self.stats.lists += 1
            self._charge("list", n_items=max(1, len(result.keys or [])))

    # ------------------------------------------------------------------ #
    # Storage-op groups: one wire frame per IO plan (plus stowaways)
    # ------------------------------------------------------------------ #
    async def execute_group_async(self, ops: list[StorageOp]) -> list[StorageOpResult]:
        """Ship the whole group as one ``storage_batch``; the router runs its
        waves.  Once the frame has left, cancelling the caller does not
        recall the group's later waves."""
        results = list(await asyncio.gather(*self._coalescer.submit_many(ops)))
        for op, result in zip(ops, results):
            if result.error is None:
                self._account_op(op, result)
        return results

    # ------------------------------------------------------------------ #
    # The op contract: each op awaits its socket round trip
    # ------------------------------------------------------------------ #
    async def get_async(self, key: str) -> bytes | None:
        result = await self._apply(StorageOp(op="get", keys=(key,)))
        return (result.values or {}).get(key)

    async def put_async(self, key: str, value: bytes) -> None:
        await self._apply(StorageOp(op="put", keys=(key,), items={key: value}))

    async def delete_async(self, key: str) -> None:
        await self._apply(StorageOp(op="delete", keys=(key,)))

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        keys = list(keys)
        if not keys:
            return {}
        values = (await self._apply(StorageOp(op="multi_get", keys=tuple(keys)))).values or {}
        return {key: values.get(key) for key in keys}

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        if items:
            await self._apply(StorageOp(op="multi_put", keys=tuple(items), items=dict(items)))

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = tuple(keys)
        if keys:
            await self._apply(StorageOp(op="multi_delete", keys=keys))

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        result = await self._apply(StorageOp(op="list", prefix=prefix))
        return list(result.keys or [])
