"""A simulated S3 bucket.

S3 is a throughput-oriented object store.  The properties that shape the
paper's results are modelled:

* **No batching**: every object write is its own request, so AFT's
  key-per-version layout issues one PUT per key version plus one PUT for the
  commit record (the paper notes this layout is a poor fit for S3, Section 8).
* **High, variable small-object latency**: captured by the calibrated latency
  profile in :mod:`repro.storage.latency`.
* **Eventual consistency for overwrites**: at the time of the paper, S3
  offered read-after-write consistency for new objects but only eventual
  consistency for overwrites — the source of the plain-S3 anomalies in
  Table 2.  (New-object reads are consistent, which is all AFT needs, since
  the shim never overwrites objects.)
* **Prefix listing**, used by AFT for bootstrap and commit-set scans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.clock import Clock
from repro.storage.base import StorageEngine
from repro.storage.latency import LatencyModel


@dataclass
class _Object:
    """One object version with its global visibility time."""

    value: bytes
    written_at: float
    visible_at: float


class SimulatedS3(StorageEngine):
    """In-memory model of an S3 bucket."""

    name = "s3"
    #: S3 has no multi-object PUT or GET, so the IO-plan executor falls back
    #: to one request per object and hides the cost by issuing the requests of
    #: a stage concurrently (the fan-out emulation of parallel HTTP clients).
    supports_batch_writes = False
    max_batch_size = None
    supports_batch_reads = False
    max_batch_get_size = None

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        clock: Clock | None = None,
        inconsistency_window: float = 0.2,
        history_limit: int = 8,
        seed: int | None = 0,
    ) -> None:
        super().__init__(latency_model=latency_model, clock=clock)
        self._objects: dict[str, list[_Object]] = {}
        self.inconsistency_window = float(inconsistency_window)
        self.history_limit = int(history_limit)
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return self.clock.now()

    def _sample_visibility_delay(self) -> float:
        if self.inconsistency_window <= 0:
            return 0.0
        return self._rng.uniform(0.0, self.inconsistency_window)

    # ------------------------------------------------------------------ #
    async def get_async(self, key: str) -> bytes | None:
        now = self._now()
        with self._lock:
            history = self._objects.get(key)
            if not history:
                value = None
            else:
                visible = [obj for obj in history if obj.visible_at <= now]
                value = visible[-1].value if visible else history[0].value
        self.stats.reads += 1
        if value is not None:
            self.stats.items_read += 1
            self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    async def put_async(self, key: str, value: bytes) -> None:
        now = self._now()
        with self._lock:
            history = self._objects.setdefault(key, [])
            visible_at = now if not history else now + self._sample_visibility_delay()
            history.append(_Object(value=bytes(value), written_at=now, visible_at=visible_at))
            if len(history) > self.history_limit:
                del history[: len(history) - self.history_limit]
        self.stats.writes += 1
        self.stats.items_written += 1
        self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    async def delete_async(self, key: str) -> None:
        with self._lock:
            existed = self._objects.pop(key, None) is not None
        self.stats.deletes += 1
        if existed:
            self.stats.items_deleted += 1
        self._charge("delete")

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        with self._lock:
            keys = sorted(k for k in self._objects if k.startswith(prefix))
        self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    # S3 has no batch API: multi_put/multi_get fall back to per-object requests
    # via the StorageEngine defaults, which is exactly the behaviour the paper
    # calls out as expensive.

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        """S3 *does* support bulk deletes (DeleteObjects, up to 1000 keys)."""
        keys = list(keys)
        with self._lock:
            for key in keys:
                if self._objects.pop(key, None) is not None:
                    self.stats.items_deleted += 1
        self.stats.deletes += 1
        self._charge("batch_write", n_items=max(1, len(keys)))

    def size(self) -> int:
        with self._lock:
            return len(self._objects)
