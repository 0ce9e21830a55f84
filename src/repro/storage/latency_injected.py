"""A wall-clock latency injector over any storage engine.

The simulated engines *meter* latency (sample a cost, charge a ledger, return
immediately), which is what the discrete-event benchmarks need — but it means
no reproduction code path ever experiences real concurrency.
:class:`LatencyInjectedStorage` is the inverse: it wraps an inner engine
(typically :class:`~repro.storage.memory.InMemoryStorage`) and really waits a
sampled latency (``asyncio.sleep``) before every operation, while charging
**zero** metered cost.  Wall-clock behaviour of a remote backend, none of the
simulated-time accounting — exactly what the async-IO benchmark needs to
measure genuine txn/s scaling (``bench_ablation_async_io``).

The wrapper declares ``wall_clock_io``, so each wave of an op group (an IO
plan's stage) is gathered as coroutines on the event loop instead of awaited
in order, and sync callers are driven on an event loop.  The wait happens
before the inner engine's (instant) operation; the stats counters are
updated under the wrapper's lock, so they stay exact even under heavy
fan-out.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Mapping

from repro.clock import Clock
from repro.storage.base import StorageEngine
from repro.storage.latency import ConstantLatency, LatencyModel, ZeroLatency


class LatencyInjectedStorage(StorageEngine):
    """Delegate to an inner engine after waiting a sampled real latency.

    Parameters
    ----------
    inner:
        The engine that actually stores the data.  Its batching capabilities
        are mirrored so IO plans partition into the same requests they would
        against the inner engine directly.
    injected:
        Latency model whose samples are *waited*, not charged.  Defaults to a
        constant 1 ms per operation.
    charged:
        Latency model whose samples are *charged* to the attached ledger
        (the usual metering).  Defaults to :class:`ZeroLatency` — the whole
        point of the wrapper is that its cost shows up on the wall clock.
    """

    name = "latency-injected"
    wall_clock_io = True

    def __init__(
        self,
        inner: StorageEngine,
        injected: LatencyModel | None = None,
        charged: LatencyModel | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(
            latency_model=charged if charged is not None else ZeroLatency(), clock=clock
        )
        self.inner = inner
        self.injected = injected if injected is not None else ConstantLatency(0.001)
        self.supports_batch_writes = inner.supports_batch_writes
        self.max_batch_size = inner.max_batch_size
        self.supports_batch_reads = inner.supports_batch_reads
        self.max_batch_get_size = inner.max_batch_get_size

    # ------------------------------------------------------------------ #
    # Every operation is "wait the injected delay, then apply": many
    # in-flight operations interleave on one loop thread while they wait.
    # ------------------------------------------------------------------ #
    async def _wait(self, op: str, n_items: int = 1, total_bytes: int = 0) -> None:
        delay = self.injected.sample(op, n_items=n_items, total_bytes=total_bytes)
        if delay > 0:
            await asyncio.sleep(delay)

    async def get_async(self, key: str) -> bytes | None:
        await self._wait("read")
        value = await self.inner.get_async(key)
        with self._lock:
            self.stats.reads += 1
            if value is not None:
                self.stats.items_read += 1
                self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    async def put_async(self, key: str, value: bytes) -> None:
        await self._wait("write", total_bytes=len(value))
        await self.inner.put_async(key, value)
        with self._lock:
            self.stats.writes += 1
            self.stats.items_written += 1
            self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    async def delete_async(self, key: str) -> None:
        await self._wait("delete")
        await self.inner.delete_async(key)
        with self._lock:
            self.stats.deletes += 1
            self.stats.items_deleted += 1
        self._charge("delete")

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        await self._wait("list")
        keys = await self.inner.list_keys_async(prefix)
        with self._lock:
            self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        keys = list(keys)
        await self._wait("batch_read", n_items=max(1, len(keys)))
        result = await self.inner.multi_get_async(keys)
        total = sum(len(v) for v in result.values() if v is not None)
        with self._lock:
            self.stats.batch_reads += 1
            self.stats.items_read += sum(1 for v in result.values() if v is not None)
            self.stats.bytes_read += total
        self._charge("batch_read", n_items=max(1, len(keys)), total_bytes=total)
        return result

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        total = sum(len(v) for v in items.values())
        await self._wait("batch_write", n_items=max(1, len(items)), total_bytes=total)
        await self.inner.multi_put_async(items)
        with self._lock:
            self.stats.batch_writes += 1
            self.stats.items_written += len(items)
            self.stats.bytes_written += total
        self._charge("batch_write", n_items=max(1, len(items)), total_bytes=total)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        await self._wait("batch_write", n_items=max(1, len(keys)))
        await self.inner.multi_delete_async(keys)
        with self._lock:
            self.stats.deletes += 1
            self.stats.items_deleted += len(keys)
        self._charge("batch_write", n_items=max(1, len(keys)))

    # ------------------------------------------------------------------ #
    def size(self) -> int:
        return self.inner.size()
