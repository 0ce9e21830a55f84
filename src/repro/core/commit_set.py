"""The Transaction Commit Set.

The Commit Set is AFT's durable source of truth about which transactions have
committed (paper Sections 3.1 and 3.3).  Every commit record stores the
transaction's id, its write set, and — because AFT never overwrites data in
place — the exact storage key under which each written version was persisted.
A transaction is *committed* if and only if its commit record is durable; the
write-ordering protocol persists all data keys first and the commit record
last, so a record always points at durable data.

:class:`CommitSetStore` wraps any :class:`~repro.storage.base.StorageEngine`
and provides record read/write/scan/delete on top of it.  It can share the
engine with transaction data (the common deployment) or use a separate one.

Where records live is a strategy — a
:class:`~repro.core.metadata_plane.keyspace.CommitKeyspace`.  The default
:class:`~repro.core.metadata_plane.keyspace.FlatCommitKeyspace` is the
seed's single ``aft.commit`` prefix; a
:class:`~repro.core.metadata_plane.keyspace.PartitionedCommitKeyspace`
range-partitions records into one prefix per fault-manager shard so a
shard's sweep is a prefix listing (``list_transaction_ids(partition=...)``)
instead of a client-side partition of a full scan.  Records written before
partitioning was enabled stay readable through a migration shim: reads and
listings fall back to the legacy flat prefix until the store observes that
prefix empty, after which the fallback costs nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro import runtime
from repro.core.metadata_plane.keyspace import CommitKeyspace, FlatCommitKeyspace
from repro.ids import (
    COMMIT_PREFIX,
    TransactionId,
    commit_record_key,
    is_commit_record_key,
    parse_commit_record_key,
)
from repro.storage.base import StorageEngine


@dataclass(frozen=True)
class CommitRecord:
    """Durable metadata of one committed transaction.

    Attributes
    ----------
    txid:
        The committing transaction's ``(timestamp, uuid)`` id.
    write_set:
        Mapping from each user key written by the transaction to the storage
        key holding that version's payload.  The *cowritten set* of every
        version written by this transaction is exactly ``set(write_set)``
        (Section 3.2).
    committed_at:
        Wall/simulated time at which the record was persisted; used only for
        reporting, never for protocol decisions.
    node_id:
        Identifier of the AFT node that committed the transaction (useful for
        debugging multi-node runs; not used by the protocols).
    epoch:
        The membership epoch of the committing node's fencing token
        (:class:`~repro.core.metadata_plane.fencing.FenceToken`) at commit
        time.  ``0`` means fencing is disabled (the seed behaviour) and the
        field is omitted from the serialised record, so unfenced deployments
        keep byte-identical records.
    """

    txid: TransactionId
    write_set: Mapping[str, str] = field(default_factory=dict)
    committed_at: float = 0.0
    node_id: str = ""
    epoch: int = 0

    @cached_property
    def cowritten(self) -> frozenset[str]:
        """User keys co-written by this transaction.

        Computed once and cached on the record: Algorithm 1 consults the
        cowritten set of every candidate it considers, so rebuilding the
        frozenset per lookup would dominate the read hot path.  The metadata
        cache additionally *interns* these sets when a record is added, so
        transactions with identical write sets share one frozenset object.
        """
        return frozenset(self.write_set)

    def intern_cowritten(self, interned: frozenset[str]) -> None:
        """Replace the cached cowritten set with a shared (interned) instance."""
        self.__dict__["cowritten"] = interned

    def storage_key_for(self, user_key: str) -> str:
        """Storage key of this transaction's version of ``user_key``."""
        return self.write_set[user_key]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        payload = {
            "timestamp": self.txid.timestamp,
            "uuid": self.txid.uuid,
            "write_set": dict(self.write_set),
            "committed_at": self.committed_at,
            "node_id": self.node_id,
        }
        if self.epoch:
            payload["epoch"] = self.epoch
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "CommitRecord":
        payload = json.loads(data.decode("utf-8"))
        return cls(
            txid=TransactionId(timestamp=payload["timestamp"], uuid=payload["uuid"]),
            write_set=dict(payload["write_set"]),
            committed_at=payload.get("committed_at", 0.0),
            node_id=payload.get("node_id", ""),
            epoch=payload.get("epoch", 0),
        )


@dataclass
class CommitStoreStats:
    """Listing/shim counters (how a partitioned store proves its access shape)."""

    #: Prefix-scoped listings of one partition (the partitioned fast path).
    partition_listings: int = 0
    #: Listings that had to walk the whole keyspace (every partition).
    full_listings: int = 0
    #: Reads served by the legacy flat prefix after a partitioned miss.
    legacy_fallback_reads: int = 0
    #: Legacy-prefix listings issued by the migration shim.
    legacy_listings: int = 0


class CommitSetStore:
    """Durable storage for commit records, backed by a storage engine."""

    def __init__(self, engine: StorageEngine, keyspace: CommitKeyspace | None = None) -> None:
        self._engine = engine
        self.keyspace = keyspace if keyspace is not None else FlatCommitKeyspace()
        self.stats = CommitStoreStats()
        #: Optional :class:`~repro.core.metadata_plane.fencing.EpochFence`.
        #: When set (the cluster wires it in under
        #: ``MetadataPlaneConfig.fencing``), every commit-record write is
        #: validated against the writer's epoch stamp before it is issued —
        #: the storage key path is the one place a late writer cannot bypass.
        self.fence = None
        #: Migration shim: whether the legacy flat prefix may still hold
        #: records.  Irrelevant for a flat keyspace (the flat prefix *is* the
        #: keyspace); a partitioned store probes the prefix once up front —
        #: a born-partitioned deployment latches the shim off immediately
        #: instead of paying doubled point-ops until the first sweep — and
        #: latches False permanently once a legacy listing comes back empty,
        #: since new writes all land in partition prefixes.
        self._legacy_may_exist = not isinstance(self.keyspace, FlatCommitKeyspace)
        if self._legacy_may_exist:
            self.stats.legacy_listings += 1
            self._legacy_may_exist = bool(self._engine.list_keys(prefix=COMMIT_PREFIX))

    @property
    def engine(self) -> StorageEngine:
        return self._engine

    # ------------------------------------------------------------------ #
    # Key placement
    # ------------------------------------------------------------------ #
    def record_storage_key(self, txid: TransactionId) -> str:
        """Where ``txid``'s commit record lives under this store's keyspace.

        The commit protocol (and the group committer) build their two-stage
        plans with this, so partitioning the keyspace re-routes the write
        path with no protocol change.
        """
        return self.keyspace.record_key(txid)

    def record_delete_keys(self, txid: TransactionId) -> list[str]:
        """Every storage key a delete of ``txid``'s record must cover.

        Under a partitioned keyspace a record written before the migration
        lives at the legacy flat key, so the delete targets both positions
        until the legacy prefix is known empty (deleting a missing key is a
        no-op on every engine).
        """
        keys = [self.keyspace.record_key(txid)]
        legacy = commit_record_key(txid)
        if self._legacy_may_exist and legacy != keys[0]:
            keys.append(legacy)
        return keys

    def partitions(self) -> list[str]:
        return self.keyspace.partitions()

    # ------------------------------------------------------------------ #
    # Point operations
    # ------------------------------------------------------------------ #
    def check_record_fence(self, record: CommitRecord) -> None:
        """Reject ``record`` if its writer's fencing token is stale.

        Raises :class:`~repro.errors.FencedNodeError` when a fence is
        configured and the record's ``(node_id, epoch)`` stamp no longer
        names the currently granted token — i.e. the writer was declared
        failed (or retired) after preparing the commit.  A no-op when
        fencing is disabled.
        """
        if self.fence is not None:
            self.fence.check(record.node_id, record.epoch)

    def write_record(self, record: CommitRecord) -> None:
        """Persist ``record``.  Acknowledgement implies durability."""
        self.check_record_fence(record)
        self._engine.put(self.record_storage_key(record.txid), record.to_bytes())

    def read_record(self, txid: TransactionId) -> CommitRecord | None:
        """Sync facade: drive :meth:`read_record_async` to completion."""
        return runtime.drive(self.read_record_async(txid), self._engine)

    async def read_record_async(self, txid: TransactionId) -> CommitRecord | None:
        """Return the commit record for ``txid`` or ``None`` if absent."""
        data = await self._engine.get_async(self.record_storage_key(txid))
        if data is None and self._legacy_may_exist:
            data = await self._engine.get_async(commit_record_key(txid))
            if data is not None:
                self.stats.legacy_fallback_reads += 1
        if data is None:
            return None
        return CommitRecord.from_bytes(data)

    def read_records_batch(self, txids: Sequence[TransactionId]) -> dict[TransactionId, CommitRecord | None]:
        """Fetch several commit records in one parallel IO-plan stage.

        The fault manager's liveness sweeps batch their candidate fetches
        through this instead of one :meth:`read_record` round trip per id;
        the engine maps the stage onto its native batching.  Missing records
        map to ``None`` (the caller decides whether that is a GC race or a
        torn write to retry).  Under the migration shim, partitioned misses
        are retried once against the legacy flat prefix in a second stage.
        """
        if not txids:
            return {}
        from repro.core.io_plan import IOPlan

        keys = {txid: self.record_storage_key(txid) for txid in txids}
        values = self._engine.execute_plan(IOPlan.reads(keys.values(), name="commit-record-fetch")).values
        out: dict[TransactionId, CommitRecord | None] = {}
        misses: dict[TransactionId, str] = {}
        for txid, key in keys.items():
            data = values.get(key)
            if data is None and self._legacy_may_exist:
                legacy = commit_record_key(txid)
                if legacy != key:
                    misses[txid] = legacy
                    continue
            out[txid] = CommitRecord.from_bytes(data) if data is not None else None
        if misses:
            legacy_values = self._engine.execute_plan(
                IOPlan.reads(misses.values(), name="commit-record-legacy-fetch")
            ).values
            for txid, key in misses.items():
                data = legacy_values.get(key)
                if data is not None:
                    self.stats.legacy_fallback_reads += 1
                out[txid] = CommitRecord.from_bytes(data) if data is not None else None
        return out

    def delete_record(self, txid: TransactionId) -> None:
        """Remove the commit record (used only by the global garbage collector)."""
        for key in self.record_delete_keys(txid):
            self._engine.delete(key)

    # ------------------------------------------------------------------ #
    # Listings
    # ------------------------------------------------------------------ #
    async def _legacy_transaction_ids(self) -> list[TransactionId]:
        """Ids still parked under the legacy flat prefix (migration shim).

        Latches :attr:`_legacy_may_exist` off the first time the prefix
        lists empty, so a fully migrated (or born-partitioned) store pays
        nothing here.
        """
        if not self._legacy_may_exist:
            return []
        self.stats.legacy_listings += 1
        keys = await self._engine.list_keys_async(prefix=COMMIT_PREFIX)
        ids = [parse_commit_record_key(key) for key in keys if is_commit_record_key(key)]
        if not ids:
            self._legacy_may_exist = False
        return ids

    def list_transaction_ids(self, partition: str | None = None) -> list[TransactionId]:
        """Sync facade: drive :meth:`list_transaction_ids_async` to completion."""
        return runtime.drive(self.list_transaction_ids_async(partition), self._engine)

    async def list_transaction_ids_async(self, partition: str | None = None) -> list[TransactionId]:
        """Ids of commit records currently in storage, oldest first.

        ``partition`` restricts the listing to one keyspace partition — a
        single prefix-scoped storage listing (plus the legacy-prefix shim
        while unmigrated flat records remain), which is what lets each
        fault-manager shard sweep its slice without touching the others'.
        """
        if partition is None:
            self.stats.full_listings += 1
            ids: list[TransactionId] = []
            for part in self.keyspace.partitions():
                keys = await self._engine.list_keys_async(prefix=self.keyspace.prefix_for(part))
                ids.extend(
                    txid
                    for txid in (self.keyspace.parse(key) for key in keys)
                    if txid is not None
                )
            ids.extend(await self._legacy_transaction_ids())
        else:
            self.stats.partition_listings += 1
            keys = await self._engine.list_keys_async(prefix=self.keyspace.prefix_for(partition))
            ids = [
                txid for txid in (self.keyspace.parse(key) for key in keys) if txid is not None
            ]
            ids.extend(
                txid
                for txid in await self._legacy_transaction_ids()
                if self.keyspace.partition_for(txid) == partition
            )
        ids.sort()
        return ids

    def list_transaction_ids_by_partition(self) -> dict[str, list[TransactionId]]:
        """Sync facade: drive :meth:`list_transaction_ids_by_partition_async`."""
        return runtime.drive(self.list_transaction_ids_by_partition_async(), self._engine)

    async def list_transaction_ids_by_partition_async(self) -> dict[str, list[TransactionId]]:
        """Every partition's sorted ids, with the legacy prefix listed once.

        The sweep entry point: calling :meth:`list_transaction_ids` per
        partition would re-list the whole legacy flat prefix once *per
        partition* while unmigrated records remain; here the shim pays one
        legacy listing per sweep and buckets its ids by owning partition.
        """
        out: dict[str, list[TransactionId]] = {}
        for partition in self.keyspace.partitions():
            self.stats.partition_listings += 1
            keys = await self._engine.list_keys_async(prefix=self.keyspace.prefix_for(partition))
            out[partition] = [
                txid for txid in (self.keyspace.parse(key) for key in keys) if txid is not None
            ]
        for txid in await self._legacy_transaction_ids():
            out[self.keyspace.partition_for(txid)].append(txid)
        for ids in out.values():
            ids.sort()
        return out

    def scan(self, limit: int | None = None, newest_first: bool = True) -> list[CommitRecord]:
        """Sync facade: drive :meth:`scan_async` to completion."""
        return runtime.drive(self.scan_async(limit, newest_first), self._engine)

    async def scan_async(self, limit: int | None = None, newest_first: bool = True) -> list[CommitRecord]:
        """Read commit records from storage.

        ``limit`` bounds the number of records read (newest first by default),
        which is how a recovering node warms its metadata cache without
        reading the entire history (Section 3.1).
        """
        ids = await self.list_transaction_ids_async()
        if newest_first:
            ids = list(reversed(ids))
        if limit is not None:
            ids = ids[:limit]
        records = []
        for txid in ids:
            record = await self.read_record_async(txid)
            if record is not None:
                records.append(record)
        return records

    def contains(self, txid: TransactionId) -> bool:
        """Return True if a commit record exists for ``txid``."""
        key = self.record_storage_key(txid)
        if self._engine.contains(key):
            return True
        legacy = commit_record_key(txid)
        return self._legacy_may_exist and legacy != key and self._engine.contains(legacy)

    def count(self) -> int:
        """Number of commit records currently durable."""
        return len(self.list_transaction_ids())


def records_by_id(records: Iterable[CommitRecord]) -> dict[TransactionId, CommitRecord]:
    """Index an iterable of records by transaction id (helper for callers)."""
    return {record.txid: record for record in records}
