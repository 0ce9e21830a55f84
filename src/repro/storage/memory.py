"""A plain, linearizable, in-memory storage engine.

This is the simplest possible backend: a dict guarded by a lock.  It is the
default engine for unit tests and examples, and the reference behaviour that
the fancier simulated engines must agree with when their consistency knobs
are turned off.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.clock import Clock
from repro.errors import BatchTooLargeError
from repro.storage.base import StorageEngine
from repro.storage.latency import LatencyModel


class InMemoryStorage(StorageEngine):
    """Linearizable dict-backed storage with optional batching support."""

    name = "memory"
    supports_batch_writes = True
    max_batch_size = None
    supports_batch_reads = True
    max_batch_get_size = None

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        clock: Clock | None = None,
        max_batch_size: int | None = None,
    ) -> None:
        super().__init__(latency_model=latency_model, clock=clock)
        self._data: dict[str, bytes] = {}
        self.max_batch_size = max_batch_size

    # ------------------------------------------------------------------ #
    async def get_async(self, key: str) -> bytes | None:
        with self._lock:
            value = self._data.get(key)
        self.stats.reads += 1
        if value is not None:
            self.stats.items_read += 1
            self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    async def put_async(self, key: str, value: bytes) -> None:
        with self._lock:
            self._data[key] = bytes(value)
        self.stats.writes += 1
        self.stats.items_written += 1
        self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    async def delete_async(self, key: str) -> None:
        with self._lock:
            existed = self._data.pop(key, None) is not None
        self.stats.deletes += 1
        if existed:
            self.stats.items_deleted += 1
        self._charge("delete")

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        with self._lock:
            keys = sorted(k for k in self._data if k.startswith(prefix))
        self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    # ------------------------------------------------------------------ #
    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        keys = list(keys)
        with self._lock:
            result = {key: self._data.get(key) for key in keys}
        total = sum(len(v) for v in result.values() if v is not None)
        self.stats.batch_reads += 1
        self.stats.items_read += sum(1 for v in result.values() if v is not None)
        self.stats.bytes_read += total
        self._charge("batch_read", n_items=max(1, len(keys)), total_bytes=total)
        return result

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        if self.max_batch_size is not None and len(items) > self.max_batch_size:
            raise BatchTooLargeError(
                f"batch of {len(items)} items exceeds the {self.max_batch_size}-item limit"
            )
        with self._lock:
            for key, value in items.items():
                self._data[key] = bytes(value)
        total = sum(len(v) for v in items.values())
        self.stats.batch_writes += 1
        self.stats.items_written += len(items)
        self.stats.bytes_written += total
        self._charge("batch_write", n_items=max(1, len(items)), total_bytes=total)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        with self._lock:
            for key in keys:
                if self._data.pop(key, None) is not None:
                    self.stats.items_deleted += 1
        self.stats.deletes += 1
        self._charge("batch_write", n_items=max(1, len(keys)))

    # ------------------------------------------------------------------ #
    def size(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop all stored data (test helper)."""
        with self._lock:
            self._data.clear()
