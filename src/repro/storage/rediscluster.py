"""A simulated Redis cluster (AWS ElastiCache style).

The paper deploys Redis in cluster mode with two shards.  The behaviours the
evaluation depends on:

* **Hash sharding**: keys are assigned to shards by a hash of the key (real
  Redis uses CRC16 hash slots; we use Python's stable ``zlib.crc32``).
* **Per-shard linearizability, no cross-shard guarantees**: reads always see
  the latest write of their shard, but a multi-key operation cannot span
  shards — this is why AFT over Redis cannot batch its commit writes
  (Section 6.1.2) and why the plain-Redis baseline still exhibits anomalies
  (Table 2) even though each shard is strongly consistent.
* **MSET/MGET within a single shard** with mild per-key cost.
* **Fixed deployment**: the cluster does not autoscale; reconfiguration is
  expensive (noted in Section 6.5.2).  ``shard_count`` is fixed at
  construction.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Mapping

from repro.clock import Clock
from repro.errors import CrossShardBatchError
from repro.storage.base import StorageEngine
from repro.storage.latency import LatencyModel


class SimulatedRedisCluster(StorageEngine):
    """In-memory model of a sharded Redis cluster."""

    name = "redis"
    #: Multi-key writes are only supported when every key maps to one shard,
    #: so the engine advertises no general batching capability; callers that
    #: know their keys are co-located may still use :meth:`mset`.  The IO-plan
    #: executor regains most of the benefit anyway: it groups a stage's keys
    #: by shard and issues one concurrent MSET/MGET per shard.
    supports_batch_writes = False
    max_batch_size = None
    supports_batch_reads = False
    max_batch_get_size = None

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        clock: Clock | None = None,
        shard_count: int = 2,
        replicas_per_shard: int = 2,
    ) -> None:
        super().__init__(latency_model=latency_model, clock=clock)
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = int(shard_count)
        self.replicas_per_shard = int(replicas_per_shard)
        self._shards: list[dict[str, bytes]] = [dict() for _ in range(self.shard_count)]

    # ------------------------------------------------------------------ #
    def shard_of(self, key: str) -> int:
        """Return the shard index that owns ``key``."""
        return zlib.crc32(key.encode("utf-8")) % self.shard_count

    def _shard(self, key: str) -> dict[str, bytes]:
        return self._shards[self.shard_of(key)]

    # ------------------------------------------------------------------ #
    async def get_async(self, key: str) -> bytes | None:
        with self._lock:
            value = self._shard(key).get(key)
        self.stats.reads += 1
        if value is not None:
            self.stats.items_read += 1
            self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    async def put_async(self, key: str, value: bytes) -> None:
        with self._lock:
            self._shard(key)[key] = bytes(value)
        self.stats.writes += 1
        self.stats.items_written += 1
        self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    async def delete_async(self, key: str) -> None:
        with self._lock:
            existed = self._shard(key).pop(key, None) is not None
        self.stats.deletes += 1
        if existed:
            self.stats.items_deleted += 1
        self._charge("delete")

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        with self._lock:
            keys = sorted(
                key
                for shard in self._shards
                for key in shard
                if key.startswith(prefix)
            )
        self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    # ------------------------------------------------------------------ #
    # Multi-key operations
    # ------------------------------------------------------------------ #
    def mset(self, items: Mapping[str, bytes]) -> None:
        """Atomically set several keys, all of which must share a shard."""
        items = dict(items)
        if not items:
            return
        shards = {self.shard_of(key) for key in items}
        if len(shards) > 1:
            raise CrossShardBatchError(
                f"MSET keys span {len(shards)} shards; Redis cluster mode requires a single shard"
            )
        with self._lock:
            shard = self._shards[shards.pop()]
            for key, value in items.items():
                shard[key] = bytes(value)
        total = sum(len(v) for v in items.values())
        self.stats.batch_writes += 1
        self.stats.items_written += len(items)
        self.stats.bytes_written += total
        self._charge("batch_write", n_items=len(items), total_bytes=total)

    def mget(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        """Read several keys from a single shard in one request."""
        keys = list(keys)
        if not keys:
            return {}
        shards = {self.shard_of(key) for key in keys}
        if len(shards) > 1:
            raise CrossShardBatchError(
                f"MGET keys span {len(shards)} shards; Redis cluster mode requires a single shard"
            )
        with self._lock:
            shard = self._shards[shards.pop()]
            result = {key: shard.get(key) for key in keys}
        total = sum(len(v) for v in result.values() if v is not None)
        self.stats.batch_reads += 1
        self.stats.items_read += sum(1 for v in result.values() if v is not None)
        self.stats.bytes_read += total
        self._charge("batch_read", n_items=len(keys), total_bytes=total)
        return result

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        """Group ``items`` by shard and issue one MSET per shard.

        The engine still charges one request per shard, so a write set spread
        over all shards costs roughly one round trip per shard — which is why
        AFT cannot hide its per-version writes behind a single batch on Redis.
        """
        by_shard: dict[int, dict[str, bytes]] = {}
        for key, value in items.items():
            by_shard.setdefault(self.shard_of(key), {})[key] = value
        for shard_items in by_shard.values():
            self.mset(shard_items)

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        """Group ``keys`` by shard and issue one MGET per shard."""
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self.shard_of(key), []).append(key)
        result: dict[str, bytes | None] = {}
        for shard_keys in by_shard.values():
            result.update(self.mget(shard_keys))
        return result

    # ------------------------------------------------------------------ #
    # IO-plan capability hooks: group a stage's operations by shard so each
    # shard receives one MSET/MGET (a one-shard ``multi_*_async`` call), and
    # the per-shard requests of one stage run concurrently (max, not sum, of
    # shard latencies).
    # ------------------------------------------------------------------ #
    def _plan_put_groups(self, items: Mapping[str, bytes]) -> list[dict[str, bytes]]:
        by_shard: dict[int, dict[str, bytes]] = {}
        for key, value in items.items():
            by_shard.setdefault(self.shard_of(key), {})[key] = value
        return list(by_shard.values())

    def _plan_get_groups(self, keys: Iterable[str]) -> list[list[str]]:
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self.shard_of(key), []).append(key)
        return list(by_shard.values())

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        with self._lock:
            for key in keys:
                if self._shard(key).pop(key, None) is not None:
                    self.stats.items_deleted += 1
        self.stats.deletes += 1
        self._charge("batch_write", n_items=max(1, len(keys)))

    def size(self) -> int:
        with self._lock:
            return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Number of keys per shard (used in load-balance tests)."""
        with self._lock:
            return [len(shard) for shard in self._shards]
