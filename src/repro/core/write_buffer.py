"""The Atomic Write Buffer.

All writes of a transaction are sequestered in its node's Atomic Write Buffer
until commit (paper Section 3.3).  Buffered data serves two purposes before
commit: it answers the transaction's own reads (read-your-writes,
Section 3.5) and it is the unit that the commit protocol pushes to storage —
in one batched request when the backend supports it.

For long-running transactions with large update sets, the buffer can
proactively *spill* intermediary data to storage once a transaction's buffered
bytes exceed a threshold.  Spilled data is written under its final storage key
but remains invisible to every other transaction because no commit record
references it yet; if the transaction aborts or the node fails, the orphaned
keys are removed by garbage collection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import runtime
from repro.core.io_plan import IOPlan
from repro.errors import UnknownTransactionError
from repro.ids import TransactionId, data_key
from repro.storage.base import StorageEngine


@dataclass
class BufferedWrite:
    """One pending update of a transaction."""

    key: str
    value: bytes
    #: Storage key the value was spilled to, if it has been spilled.
    spilled_to: str | None = None


@dataclass
class _TransactionBuffer:
    """All pending updates of one transaction."""

    uuid: str
    writes: dict[str, BufferedWrite] = field(default_factory=dict)
    buffered_bytes: int = 0
    spilled_keys: list[str] = field(default_factory=list)

    def put(self, key: str, value: bytes) -> None:
        existing = self.writes.get(key)
        if existing is not None:
            self.buffered_bytes -= len(existing.value)
        self.writes[key] = BufferedWrite(key=key, value=bytes(value))
        self.buffered_bytes += len(value)


class AtomicWriteBuffer:
    """Per-node buffer of uncommitted writes, keyed by transaction uuid."""

    def __init__(
        self,
        storage: StorageEngine | None = None,
        spill_threshold_bytes: int | None = None,
        use_plans: bool = True,
    ) -> None:
        self._buffers: dict[str, _TransactionBuffer] = {}
        self._storage = storage
        self.spill_threshold_bytes = spill_threshold_bytes
        #: Spill through a one-stage IO plan (parallel fan-out / native
        #: batching) rather than one sequential point write per key.
        self.use_plans = use_plans
        self._lock = threading.RLock()
        self.spills = 0

    # ------------------------------------------------------------------ #
    # Transaction lifecycle
    # ------------------------------------------------------------------ #
    def open(self, uuid: str) -> None:
        """Create an empty buffer for a new transaction."""
        with self._lock:
            if uuid not in self._buffers:
                self._buffers[uuid] = _TransactionBuffer(uuid=uuid)

    def discard(self, uuid: str) -> list[str]:
        """Drop a transaction's buffer (abort / post-commit cleanup).

        Returns the storage keys of any spilled-but-uncommitted data so the
        caller can schedule them for deletion.
        """
        with self._lock:
            buffer = self._buffers.pop(uuid, None)
            if buffer is None:
                return []
            return list(buffer.spilled_keys)

    # ------------------------------------------------------------------ #
    # Buffered operations
    # ------------------------------------------------------------------ #
    def put(self, uuid: str, key: str, value: bytes, provisional_id: TransactionId | None = None) -> None:
        """Sync facade: drive :meth:`put_async` to completion."""
        runtime.drive(self.put_async(uuid, key, value, provisional_id), self._storage)

    async def put_async(
        self, uuid: str, key: str, value: bytes, provisional_id: TransactionId | None = None
    ) -> None:
        """Buffer an update, spilling to storage if over the threshold."""
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                raise UnknownTransactionError(f"no open write buffer for transaction {uuid!r}", txid=uuid)
            buffer.put(key, value)
            over_threshold = (
                self.spill_threshold_bytes is not None
                and self._storage is not None
                and provisional_id is not None
                and buffer.buffered_bytes > self.spill_threshold_bytes
            )
        if over_threshold:
            await self.spill_async(uuid, provisional_id)

    def get(self, uuid: str, key: str) -> bytes | None:
        """Return the transaction's own pending value for ``key``, if any.

        This is the read-your-writes path (Section 3.5); it deliberately
        bypasses Algorithm 1 because buffered versions have no commit
        timestamp yet.
        """
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                raise UnknownTransactionError(f"no open write buffer for transaction {uuid!r}", txid=uuid)
            pending = buffer.writes.get(key)
            return pending.value if pending is not None else None

    def has_write(self, uuid: str, key: str) -> bool:
        with self._lock:
            buffer = self._buffers.get(uuid)
            return buffer is not None and key in buffer.writes

    def pending_writes(self, uuid: str) -> dict[str, bytes]:
        """Snapshot of the transaction's pending ``{key: value}`` updates."""
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                raise UnknownTransactionError(f"no open write buffer for transaction {uuid!r}", txid=uuid)
            return {key: write.value for key, write in buffer.writes.items()}

    def write_set(self, uuid: str) -> set[str]:
        """User keys written so far by the transaction."""
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                raise UnknownTransactionError(f"no open write buffer for transaction {uuid!r}", txid=uuid)
            return set(buffer.writes)

    def buffered_bytes(self, uuid: str) -> int:
        with self._lock:
            buffer = self._buffers.get(uuid)
            return buffer.buffered_bytes if buffer is not None else 0

    def open_transactions(self) -> list[str]:
        with self._lock:
            return list(self._buffers)

    # ------------------------------------------------------------------ #
    # Spilling
    # ------------------------------------------------------------------ #
    def spill(self, uuid: str, provisional_id: TransactionId) -> list[str]:
        """Sync facade: drive :meth:`spill_async` to completion."""
        return runtime.drive(self.spill_async(uuid, provisional_id), self._storage)

    async def spill_async(self, uuid: str, provisional_id: TransactionId) -> list[str]:
        """Proactively persist the transaction's buffered values.

        Values are written under the storage keys derived from
        ``provisional_id``; the commit protocol later references these exact
        keys in the commit record, so spilled data need not be rewritten.
        Returns the storage keys written.
        """
        if self._storage is None:
            raise RuntimeError("AtomicWriteBuffer was constructed without a storage engine; cannot spill")
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                raise UnknownTransactionError(f"no open write buffer for transaction {uuid!r}", txid=uuid)
            to_spill = {
                key: write for key, write in buffer.writes.items() if write.spilled_to is None
            }
        items = {data_key(key, provisional_id): write.value for key, write in to_spill.items()}
        if self.use_plans and items:
            await self._storage.execute_plan_async(IOPlan.writes(items, name="spill"))
        else:
            # The sequential (pre-pipeline) spill: one point write per key.
            for storage_key, value in items.items():
                await self._storage.put_async(storage_key, value)
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is not None:
                for key, write in to_spill.items():
                    # Only mark as spilled if the value was not overwritten
                    # while we were persisting it (the overwrite is simply
                    # spilled again later).
                    if buffer.writes.get(key) is write:
                        write.spilled_to = data_key(key, provisional_id)
                        buffer.spilled_keys.append(write.spilled_to)
        if items:
            self.spills += 1
        return list(items)

    def spilled_keys(self, uuid: str) -> dict[str, str]:
        """Mapping of user key -> storage key for already-spilled values."""
        with self._lock:
            buffer = self._buffers.get(uuid)
            if buffer is None:
                return {}
            return {
                key: write.spilled_to
                for key, write in buffer.writes.items()
                if write.spilled_to is not None
            }
