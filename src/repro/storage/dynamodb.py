"""A simulated DynamoDB table.

The behaviours that matter to the paper's evaluation are reproduced here:

* **Point reads and writes** with millisecond-scale latencies.
* **Batched writes** (``BatchWriteItem``) of up to 25 items per request —
  AFT's commit protocol leans on this to turn N sequential client writes into
  a single storage round trip (Figure 2).
* **Eventually consistent reads**: by default DynamoDB reads may return a
  stale value for a recently overwritten item.  The simulation keeps a short
  version history per key and makes an overwrite visible to eventually
  consistent readers only after a sampled *inconsistency window*.  This is the
  mechanism behind the read-your-write anomalies of the "plain DynamoDB"
  baseline in Table 2.
* **Transact mode** (``TransactWriteItems`` / ``TransactGetItems``): single
  request, all-or-nothing, conflict-abort semantics, used by the
  ``repro.baselines.dynamo_txn`` baseline.  Conflicts are detected through an
  item-level lock table whose entries are held for the duration of a
  transaction window (the discrete-event clients hold them across simulated
  time, so contention produces aborts just as it does against the real
  service).
* **Throughput limits**: an optional provisioned-capacity ceiling used by the
  scalability experiment (Figure 8 plateaus at DynamoDB's resource limits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro import runtime
from repro.clock import Clock
from repro.errors import BatchTooLargeError, TransactionConflictError
from repro.storage.base import StorageEngine
from repro.storage.latency import LatencyModel


@dataclass
class _Version:
    """One stored value together with the time it becomes globally visible."""

    value: bytes
    written_at: float
    visible_at: float


class SimulatedDynamoDB(StorageEngine):
    """In-memory model of a DynamoDB table."""

    name = "dynamodb"
    supports_batch_writes = True
    #: DynamoDB's BatchWriteItem limit.
    max_batch_size = 25
    #: DynamoDB's TransactWriteItems limit.
    max_transact_size = 25
    supports_batch_reads = True
    #: DynamoDB's BatchGetItem limit.
    max_batch_get_size = 100

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        clock: Clock | None = None,
        consistent_reads: bool = False,
        inconsistency_window: float = 0.05,
        history_limit: int = 8,
        seed: int | None = 0,
    ) -> None:
        super().__init__(latency_model=latency_model, clock=clock)
        self._versions: dict[str, list[_Version]] = {}
        #: Item-level claims held by in-flight native transactions:
        #: key -> {token: mode}, where mode is "read" or "write".
        self._transact_locks: dict[str, dict[str, str]] = {}
        self.consistent_reads = consistent_reads
        self.inconsistency_window = float(inconsistency_window)
        self.history_limit = int(history_limit)
        self._rng = random.Random(seed)
        self.stats.extra["transacts"] = 0
        self.stats.extra["transact_conflicts"] = 0

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return self.clock.now()

    def _sample_visibility_delay(self) -> float:
        if self.inconsistency_window <= 0:
            return 0.0
        # Most overwrites converge quickly; a minority take the full window.
        return self._rng.uniform(0.0, self.inconsistency_window)

    def _store(self, key: str, value: bytes, now: float) -> None:
        history = self._versions.setdefault(key, [])
        if history:
            visible_at = now + self._sample_visibility_delay()
        else:
            # First write of a key is read-after-write consistent, matching
            # the behaviour of real cloud stores for new items.  AFT never
            # overwrites keys, so the shim always sees its data immediately.
            visible_at = now
        history.append(_Version(value=bytes(value), written_at=now, visible_at=visible_at))
        if len(history) > self.history_limit:
            del history[: len(history) - self.history_limit]

    def _read(self, key: str, consistent: bool, now: float) -> bytes | None:
        history = self._versions.get(key)
        if not history:
            return None
        if consistent:
            return history[-1].value
        visible = [version for version in history if version.visible_at <= now]
        if visible:
            return visible[-1].value
        # Nothing has converged yet; eventually-consistent readers observe the
        # oldest retained version (the pre-overwrite value).
        return history[0].value

    # ------------------------------------------------------------------ #
    # StorageEngine interface
    # ------------------------------------------------------------------ #
    # The two sync reads are overridden only to pass ``consistent=`` through.
    def get(self, key: str, consistent: bool | None = None) -> bytes | None:
        return runtime.drive(self.get_async(key, consistent), self)

    def multi_get(self, keys: Iterable[str], consistent: bool | None = None) -> dict[str, bytes | None]:
        return runtime.drive(self.multi_get_async(keys, consistent), self)

    async def get_async(self, key: str, consistent: bool | None = None) -> bytes | None:
        consistent = self.consistent_reads if consistent is None else consistent
        now = self._now()
        with self._lock:
            value = self._read(key, consistent, now)
        self.stats.reads += 1
        if value is not None:
            self.stats.items_read += 1
            self.stats.bytes_read += len(value)
        self._charge("read", total_bytes=len(value) if value else 0)
        return value

    async def put_async(self, key: str, value: bytes) -> None:
        now = self._now()
        with self._lock:
            self._check_not_locked([key], owner=None)
            self._store(key, value, now)
        self.stats.writes += 1
        self.stats.items_written += 1
        self.stats.bytes_written += len(value)
        self._charge("write", total_bytes=len(value))

    async def delete_async(self, key: str) -> None:
        with self._lock:
            existed = self._versions.pop(key, None) is not None
        self.stats.deletes += 1
        if existed:
            self.stats.items_deleted += 1
        self._charge("delete")

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        with self._lock:
            keys = sorted(k for k in self._versions if k.startswith(prefix))
        self.stats.lists += 1
        self._charge("list", n_items=max(1, len(keys)))
        return keys

    async def multi_get_async(
        self, keys: Iterable[str], consistent: bool | None = None
    ) -> dict[str, bytes | None]:
        keys = list(keys)
        if len(keys) > self.max_batch_get_size:
            raise BatchTooLargeError(
                f"BatchGetItem of {len(keys)} items exceeds the {self.max_batch_get_size}-item limit"
            )
        consistent = self.consistent_reads if consistent is None else consistent
        now = self._now()
        with self._lock:
            result = {key: self._read(key, consistent, now) for key in keys}
        total = sum(len(v) for v in result.values() if v is not None)
        self.stats.batch_reads += 1
        self.stats.items_read += sum(1 for v in result.values() if v is not None)
        self.stats.bytes_read += total
        self._charge("batch_read", n_items=max(1, len(keys)), total_bytes=total)
        return result

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        if len(items) > self.max_batch_size:
            raise BatchTooLargeError(
                f"BatchWriteItem of {len(items)} items exceeds the {self.max_batch_size}-item limit"
            )
        now = self._now()
        with self._lock:
            self._check_not_locked(items.keys(), owner=None)
            for key, value in items.items():
                self._store(key, value, now)
        total = sum(len(v) for v in items.values())
        self.stats.batch_writes += 1
        self.stats.items_written += len(items)
        self.stats.bytes_written += total
        self._charge("batch_write", n_items=max(1, len(items)), total_bytes=total)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        keys = list(keys)
        with self._lock:
            for key in keys:
                if self._versions.pop(key, None) is not None:
                    self.stats.items_deleted += 1
        self.stats.deletes += 1
        self._charge("batch_write", n_items=max(1, len(keys)))

    def size(self) -> int:
        with self._lock:
            return len(self._versions)

    # ------------------------------------------------------------------ #
    # Transact mode (used by the DynamoDB-transactions baseline)
    # ------------------------------------------------------------------ #
    def _check_not_locked(self, keys: Iterable[str], owner: str | None, mode: str = "write") -> None:
        """Raise if any key is claimed in a way that conflicts with ``mode``.

        Two concurrent transactional *reads* of the same item do not conflict;
        any combination involving a transactional write does (this mirrors the
        service's documented conflict behaviour).
        """
        for key in keys:
            holders = self._transact_locks.get(key)
            if not holders:
                continue
            for holder_token, holder_mode in holders.items():
                if holder_token == owner:
                    continue
                if mode == "read" and holder_mode == "read":
                    continue
                self.stats.extra["transact_conflicts"] += 1
                raise TransactionConflictError(
                    f"item {key!r} is part of a conflicting in-flight transaction"
                )

    def transact_begin(self, keys: Iterable[str], token: str, mode: str = "write") -> None:
        """Claim item-level locks for a native transaction window.

        The discrete-event clients call this at the simulated start of a
        ``TransactWriteItems``/``TransactGetItems`` request and release with
        :meth:`transact_end` at its simulated completion, so that overlapping
        requests touching the same items conflict (as the real service's
        optimistic concurrency control would).
        """
        if mode not in ("read", "write"):
            raise ValueError(f"transaction mode must be 'read' or 'write', got {mode!r}")
        keys = list(keys)
        if len(keys) > self.max_transact_size:
            raise BatchTooLargeError(
                f"transaction of {len(keys)} items exceeds the {self.max_transact_size}-item limit"
            )
        with self._lock:
            self._check_not_locked(keys, owner=token, mode=mode)
            for key in keys:
                self._transact_locks.setdefault(key, {})[token] = mode

    def transact_end(self, token: str) -> None:
        """Release all locks held by ``token``."""
        with self._lock:
            empty_keys = []
            for key, holders in self._transact_locks.items():
                holders.pop(token, None)
                if not holders:
                    empty_keys.append(key)
            for key in empty_keys:
                del self._transact_locks[key]

    def transact_write_items(self, items: Mapping[str, bytes], token: str | None = None) -> None:
        """All-or-nothing write of up to 25 items, conflict-checked."""
        items = dict(items)
        if len(items) > self.max_transact_size:
            raise BatchTooLargeError(
                f"TransactWriteItems of {len(items)} items exceeds the {self.max_transact_size}-item limit"
            )
        now = self._now()
        with self._lock:
            self._check_not_locked(items.keys(), owner=token)
            for key, value in items.items():
                # Transactional writes are strongly consistent: visible at once.
                history = self._versions.setdefault(key, [])
                history.append(_Version(value=bytes(value), written_at=now, visible_at=now))
                if len(history) > self.history_limit:
                    del history[: len(history) - self.history_limit]
            self.stats.extra["transacts"] += 1
        total = sum(len(v) for v in items.values())
        self.stats.items_written += len(items)
        self.stats.bytes_written += total
        self._charge("transact", n_items=max(1, len(items)), total_bytes=total)

    def transact_get_items(self, keys: Iterable[str], token: str | None = None) -> dict[str, bytes | None]:
        """All-or-nothing, strongly consistent read of up to 25 items."""
        keys = list(keys)
        if len(keys) > self.max_transact_size:
            raise BatchTooLargeError(
                f"TransactGetItems of {len(keys)} items exceeds the {self.max_transact_size}-item limit"
            )
        now = self._now()
        with self._lock:
            self._check_not_locked(keys, owner=token, mode="read")
            result = {key: self._read(key, True, now) for key in keys}
            self.stats.extra["transacts"] += 1
        total = sum(len(v) for v in result.values() if v is not None)
        self.stats.items_read += sum(1 for v in result.values() if v is not None)
        self.stats.bytes_read += total
        self._charge("transact", n_items=max(1, len(keys)), total_bytes=total)
        return result
