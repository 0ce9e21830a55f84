"""A wall-clock latency injector over any storage engine.

The simulated engines *meter* latency (sample a cost, charge a ledger, return
immediately), which is what the discrete-event benchmarks need — but it means
no reproduction code path ever experiences real concurrency.
:class:`LatencyInjectedStorage` is the inverse: it wraps an inner engine
(typically :class:`~repro.storage.memory.InMemoryStorage`) and really
``time.sleep``\\ s a sampled latency before every operation, while charging
**zero** metered cost.  Wall-clock behaviour of a remote backend, none of the
simulated-time accounting — exactly what the async-IO benchmark needs to
measure genuine txn/s scaling (``bench_ablation_async_io``).

The wrapper declares ``wall_clock_io``, so ``execute_plan_async`` fans its
request groups out (on the shared bounded executor, or as coroutines with
``native_async``) instead of issuing them sequentially, and sync callers are
driven on an event loop.  The injected sleep happens
*outside* the wrapper's lock; the inner engine's (instant) operation and the
stats counters are updated under it, so counters stay exact even under heavy
fan-out.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable, Mapping

from repro.clock import Clock
from repro.storage.base import StorageEngine
from repro.storage.latency import ConstantLatency, LatencyModel, ZeroLatency


class LatencyInjectedStorage(StorageEngine):
    """Delegate to an inner engine after sleeping a sampled real latency.

    Parameters
    ----------
    inner:
        The engine that actually stores the data.  Its batching capabilities
        are mirrored so IO plans partition into the same request groups they
        would against the inner engine directly.
    injected:
        Latency model whose samples are *slept*, not charged.  Defaults to a
        constant 1 ms per operation.
    charged:
        Latency model whose samples are *charged* to the attached ledger
        (the usual metering).  Defaults to :class:`ZeroLatency` — the whole
        point of the wrapper is that its cost shows up on the wall clock.
    native_async:
        Declare ``supports_native_async``: the injected delay of the
        ``*_async`` operation twins becomes an ``asyncio.sleep`` awaited on
        the event loop, so ``execute_plan_async`` fans request groups out as
        plain coroutines instead of executor hops.  This models a real
        async-socket backend and is what the ``bench_ablation_async_io``
        native-path ablation toggles.
    """

    name = "latency-injected"
    wall_clock_io = True

    def __init__(
        self,
        inner: StorageEngine,
        injected: LatencyModel | None = None,
        charged: LatencyModel | None = None,
        clock: Clock | None = None,
        native_async: bool = False,
    ) -> None:
        super().__init__(
            latency_model=charged if charged is not None else ZeroLatency(), clock=clock
        )
        self.inner = inner
        self.injected = injected if injected is not None else ConstantLatency(0.001)
        self.supports_native_async = bool(native_async)
        self.supports_batch_writes = inner.supports_batch_writes
        self.max_batch_size = inner.max_batch_size
        self.supports_batch_reads = inner.supports_batch_reads
        self.max_batch_get_size = inner.max_batch_get_size

    # ------------------------------------------------------------------ #
    # Every operation is "wait the injected delay, then apply": the blocking
    # form sleeps the calling thread, the ``*_async`` form awaits the delay on
    # the event loop (so many in-flight operations interleave on one thread),
    # and both share one ``_apply_*`` body — the inner (instant) operation
    # and the counters update under the lock, the wait happens outside it.
    # ------------------------------------------------------------------ #
    def _sleep(self, op: str, n_items: int = 1, total_bytes: int = 0) -> None:
        delay = self.injected.sample(op, n_items=n_items, total_bytes=total_bytes)
        if delay > 0:
            time.sleep(delay)

    async def _sleep_async(self, op: str, n_items: int = 1, total_bytes: int = 0) -> None:
        delay = self.injected.sample(op, n_items=n_items, total_bytes=total_bytes)
        if delay > 0:
            await asyncio.sleep(delay)

    def get(self, key: str) -> bytes | None:
        self._sleep("read")
        return self._apply_get(key)

    async def get_async(self, key: str) -> bytes | None:
        await self._sleep_async("read")
        return self._apply_get(key)

    def _apply_get(self, key: str) -> bytes | None:
        with self._lock:
            value = self.inner.get(key)
            self.stats.reads += 1
            if value is not None:
                self.stats.items_read += 1
                self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    def put(self, key: str, value: bytes) -> None:
        self._sleep("write", total_bytes=len(value))
        self._apply_put(key, value)

    async def put_async(self, key: str, value: bytes) -> None:
        await self._sleep_async("write", total_bytes=len(value))
        self._apply_put(key, value)

    def _apply_put(self, key: str, value: bytes) -> None:
        with self._lock:
            self.inner.put(key, value)
            self.stats.writes += 1
            self.stats.items_written += 1
            self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    def delete(self, key: str) -> None:
        self._sleep("delete")
        self._apply_delete(key)

    async def delete_async(self, key: str) -> None:
        await self._sleep_async("delete")
        self._apply_delete(key)

    def _apply_delete(self, key: str) -> None:
        with self._lock:
            self.inner.delete(key)
            self.stats.deletes += 1
            self.stats.items_deleted += 1
        self._charge("delete")

    def list_keys(self, prefix: str = "") -> list[str]:
        self._sleep("list")
        with self._lock:
            keys = self.inner.list_keys(prefix)
            self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    def multi_get(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        keys = list(keys)
        self._sleep("batch_read", n_items=max(1, len(keys)))
        return self._apply_multi_get(keys)

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        keys = list(keys)
        await self._sleep_async("batch_read", n_items=max(1, len(keys)))
        return self._apply_multi_get(keys)

    def _apply_multi_get(self, keys: list[str]) -> dict[str, bytes | None]:
        with self._lock:
            result = self.inner.multi_get(keys)
            total = sum(len(v) for v in result.values() if v is not None)
            self.stats.batch_reads += 1
            self.stats.items_read += sum(1 for v in result.values() if v is not None)
            self.stats.bytes_read += total
        self._charge("batch_read", n_items=max(1, len(keys)), total_bytes=total)
        return result

    def multi_put(self, items: Mapping[str, bytes]) -> None:
        total = sum(len(v) for v in items.values())
        self._sleep("batch_write", n_items=max(1, len(items)), total_bytes=total)
        self._apply_multi_put(items, total)

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        total = sum(len(v) for v in items.values())
        await self._sleep_async("batch_write", n_items=max(1, len(items)), total_bytes=total)
        self._apply_multi_put(items, total)

    def _apply_multi_put(self, items: Mapping[str, bytes], total: int) -> None:
        with self._lock:
            self.inner.multi_put(items)
            self.stats.batch_writes += 1
            self.stats.items_written += len(items)
            self.stats.bytes_written += total
        self._charge("batch_write", n_items=max(1, len(items)), total_bytes=total)

    def multi_delete(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        self._sleep("batch_write", n_items=max(1, len(keys)))
        self._apply_multi_delete(keys)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        await self._sleep_async("batch_write", n_items=max(1, len(keys)))
        self._apply_multi_delete(keys)

    def _apply_multi_delete(self, keys: list[str]) -> None:
        with self._lock:
            self.inner.multi_delete(keys)
            self.stats.deletes += 1
            self.stats.items_deleted += len(keys)
        self._charge("batch_write", n_items=max(1, len(keys)))

    # ------------------------------------------------------------------ #
    def size(self) -> int:
        return self.inner.size()
