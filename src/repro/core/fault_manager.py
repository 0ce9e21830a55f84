"""The sharded fault-manager service.

Distributed AFT deployments run a fault manager off the transaction critical
path (paper Sections 4.2, 4.3 and 5.2).  It has three jobs:

1. **Liveness of committed data.**  The manager receives every node's commit
   broadcasts *without* pruning.  It periodically scans the Transaction
   Commit Set in storage for commit records it has never heard about — these
   belong to transactions whose node acknowledged the commit but failed before
   broadcasting — and pushes them to all live nodes so the data becomes
   visible.
2. **Failure detection and replacement.**  It notices nodes that have stopped
   responding, replays everything the failed node knew, and asks the cluster
   to configure a replacement (standby nodes make this fast; the paper's
   Figure 10 measures the end-to-end timeline).
3. **Global garbage collection.**  It hosts :class:`~repro.core.garbage_collector.GlobalDataGC`,
   reusing the commit broadcasts it already receives.

The seed ran this as a singleton whose ``_seen`` set grew with total history
and whose liveness pass re-read every commit record — the exact scalability
concern Section 5.2 raises.  This implementation shards the service:

* **Shards partition the transaction-id space** on the same consistent-hash
  ring (:class:`~repro.core.load_balancer.HashRing`) the key-affinity load
  balancer uses, so adding shards never reshuffles more than the adjacent
  ring segments.
* **Bounded memory.**  Each shard tracks seen commits with a
  :class:`SeenDigest` — a *low watermark* (every id at or below it is known
  seen) plus a recent window set above it.  The watermark advances after a
  complete verified sweep cycle, trailing ``watermark_lag`` seconds behind
  the newest verified id (the bounded-clock-skew allowance), and the window
  is pruned both by watermark advances and as the global GC deletes
  transactions — memory tracks the *recent window*, not total history.
* **Incremental scans.**  A liveness sweep walks each shard's slice of the
  Commit Set from a resumable :class:`~repro.core.sweep.SweepCursor`,
  skips everything below the watermark or in the window, and fetches the
  remaining candidate records in batched IO plans instead of one
  ``read_record`` round trip per id.  A record read that returns ``None``
  mid-scan (a torn or GC-raced write) is remembered in the shard's
  ``pending_reads`` and retried on every subsequent sweep until it resolves;
  the watermark never advances past an unresolved id, so a torn write can
  never be forgotten.
* **Sharded failover.**  Node-failure recovery replays the failed node's
  unbroadcast commits shard by shard, reclaims the orphaned spilled keys of
  its Atomic Write Buffer, and leaves standby promotion to the cluster's
  existing autoscaler path.  Shards replay one after another; their
  per-shard costs are reported so a deployment model can charge them as
  concurrent.

The seed singleton is preserved verbatim in
:mod:`repro.core.fault_manager_reference`; the property tests assert both
implementations recover identical commit sets and make identical global-GC
decisions across random crash/broadcast interleavings.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.config import FaultManagerConfig
from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.garbage_collector import GlobalDataGC
from repro.core.io_plan import IOPlan
from repro.core.load_balancer import HashRing
from repro.core.metadata_plane.keyspace import FlatCommitKeyspace, fault_manager_partition_ids
from repro.core.metadata_plane.membership import MembershipService, PollingMembership
from repro.core.multicast import MulticastService
from repro.core.node import AftNode
from repro.core.sweep import SweepCursor
from repro.observability import trace as tr
from repro.ids import TransactionId
from repro.storage.base import StorageEngine


class SeenDigest:
    """Bounded-memory membership of "commits this shard has seen".

    ``watermark`` is a low-water mark: every transaction id at or below it is
    known seen (verified by a completed sweep cycle).  ``window`` holds the
    seen ids above the watermark.  Memory is proportional to the window —
    the ids younger than the watermark lag — never to total history.
    """

    __slots__ = ("watermark", "_window")

    def __init__(self) -> None:
        self.watermark: TransactionId | None = None
        self._window: set[TransactionId] = set()

    def add(self, txid: TransactionId) -> bool:
        """Mark ``txid`` seen; returns True if it was new."""
        if self.watermark is not None and txid <= self.watermark:
            return False
        if txid in self._window:
            return False
        self._window.add(txid)
        return True

    def __contains__(self, txid: TransactionId) -> bool:
        if self.watermark is not None and txid <= self.watermark:
            return True
        return txid in self._window

    def discard(self, txid: TransactionId) -> None:
        """Forget a window entry (its transaction was globally deleted)."""
        self._window.discard(txid)

    def advance_watermark(self, txid: TransactionId) -> int:
        """Raise the watermark to ``txid`` and prune the window below it.

        No-op when ``txid`` is not newer than the current watermark.
        Returns the number of window entries pruned.
        """
        if self.watermark is not None and txid <= self.watermark:
            return 0
        self.watermark = txid
        before = len(self._window)
        self._window = {t for t in self._window if t > txid}
        return before - len(self._window)

    @property
    def window_size(self) -> int:
        return len(self._window)


@dataclass
class ShardScanReport:
    """What one shard did during one liveness sweep (drives latency charging)."""

    shard_id: str
    examined: int = 0
    fetched: int = 0
    recovered: int = 0
    unresolved: int = 0
    watermark_pruned: int = 0
    completed_cycle: bool = False


@dataclass
class ScanReport:
    """Per-shard breakdown of one ``scan_commit_set`` call."""

    shard_reports: list[ShardScanReport] = field(default_factory=list)

    def shard_costs(self) -> list[tuple[int, int, int]]:
        """``(ids_examined, records_fetched, records_recovered)`` per shard.

        The cost model charges each shard's sweep from these and takes the
        max across shards (they sweep in parallel).
        """
        return [(report.examined, report.fetched, report.recovered) for report in self.shard_reports]

    @property
    def records_fetched(self) -> int:
        return sum(report.fetched for report in self.shard_reports)

    @property
    def records_recovered(self) -> int:
        return sum(report.recovered for report in self.shard_reports)


@dataclass
class RecoveryReport:
    """Outcome of one node-failure recovery (one replay per shard)."""

    node_id: str
    recovered: list[CommitRecord] = field(default_factory=list)
    per_shard_recovered: list[int] = field(default_factory=list)
    orphan_spills_reclaimed: int = 0
    wall_seconds: float = 0.0

    def shard_costs(self) -> list[int]:
        return list(self.per_shard_recovered)


class FaultManagerShard:
    """One shard of the fault manager: a slice of the transaction-id space.

    Owns the slice's :class:`SeenDigest`, its resumable sweep cursor, its
    unresolved (torn) record reads, and custody of the retired-node GC sets
    whose ids fall in the slice.  All state is guarded by a per-shard lock,
    so a sweep and broadcast ingestion from other threads never race.
    """

    def __init__(self, shard_id: str, commit_store: CommitSetStore, config: FaultManagerConfig) -> None:
        self.shard_id = shard_id
        self.commit_store = commit_store
        self.config = config
        self.digest = SeenDigest()
        self.cursor = SweepCursor()
        #: Ids whose record read returned ``None`` mid-scan: the explicit
        #: torn-write retry set.  Re-read every sweep; dropped only once the
        #: id is no longer listed in the Commit Set (the global GC deleted
        #: it).  The watermark never advances past the oldest entry.
        self.pending_reads: dict[TransactionId, int] = {}
        #: node id -> this shard's slice of the retired node's locally-deleted set.
        self.retired_deletions: dict[str, set[TransactionId]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def receive_commits(self, records: list[CommitRecord]) -> None:
        with self._lock:
            for record in records:
                self.digest.add(record.txid)

    def has_seen(self, txid: TransactionId) -> bool:
        with self._lock:
            return txid in self.digest

    def forget_deleted(self, txid: TransactionId) -> None:
        """Prune a globally-deleted transaction from the window and retry set."""
        with self._lock:
            self.digest.discard(txid)
            self.pending_reads.pop(txid, None)

    # ------------------------------------------------------------------ #
    def scan(
        self, owned_ids: list[TransactionId], budget: int | None = None
    ) -> tuple[list[CommitRecord], ShardScanReport]:
        """One incremental liveness sweep over this shard's slice.

        ``owned_ids`` is the sorted (oldest-first) list of this shard's
        currently durable ids.  The sweep resumes from the cursor, examines
        at most ``budget`` ids (``None`` = the whole slice), skips everything
        the digest already knows, and batch-fetches the rest through IO
        plans.  A *cycle* runs from the oldest id to the end of the slice
        and may span several budget-bounded calls; the call that reaches the
        end completes it — every id the cycle's calls walked has been
        verified — wraps the cursor, and advances the watermark to
        ``watermark_lag`` seconds behind the newest verified id.  (Ids that
        surface *behind* the cursor mid-cycle are either broadcast-seen or
        caught by the next cycle; the lag keeps them above the watermark
        meanwhile.)
        """
        report = ShardScanReport(shard_id=self.shard_id)
        with self._lock:
            # Pending ids no longer listed were deleted by the global GC
            # between sweeps; nothing durable remains to recover.
            if self.pending_reads:
                listed = set(owned_ids)
                for txid in [t for t in self.pending_reads if t not in listed]:
                    del self.pending_reads[txid]

            # Resume after the cursor; the cycle ends at the slice's end.
            start = self.cursor.position
            tail = owned_ids if start is None else owned_ids[bisect_right(owned_ids, start) :]

            to_read: list[TransactionId] = []
            completed_cycle = True
            for txid in tail:
                if budget is not None and report.examined >= budget:
                    completed_cycle = False
                    break
                report.examined += 1
                self.cursor.advance(txid)
                if txid in self.digest:
                    continue
                to_read.append(txid)
            # Unresolved reads from earlier sweeps are always retried, even
            # when the cursor (or the watermark) has moved past them.
            reading = set(to_read)
            to_read.extend(t for t in self.pending_reads if t not in reading)

        recovered: list[CommitRecord] = []
        unresolved: list[TransactionId] = []
        batch = self.config.scan_read_batch
        for index in range(0, len(to_read), batch):
            chunk = to_read[index : index + batch]
            for txid, record in self.commit_store.read_records_batch(chunk).items():
                if record is None:
                    unresolved.append(txid)
                else:
                    recovered.append(record)

        with self._lock:
            for record in recovered:
                self.digest.add(record.txid)
                self.pending_reads.pop(record.txid, None)
            for txid in unresolved:
                self.pending_reads[txid] = self.pending_reads.get(txid, 0) + 1
            report.fetched = len(to_read)
            report.recovered = len(recovered)
            report.unresolved = len(unresolved)
            report.completed_cycle = completed_cycle
            if completed_cycle:
                self.cursor.wrap()
                if owned_ids:
                    report.watermark_pruned = self._advance_watermark_locked(owned_ids)
        return recovered, report

    def _advance_watermark_locked(self, owned_ids: list[TransactionId]) -> int:
        """Advance the watermark after a completed, fully verified cycle.

        The new watermark trails ``watermark_lag`` seconds behind the newest
        durable id of the slice (the bounded-clock-skew allowance) and stays
        strictly below every unresolved read, so neither a skewed-clock
        commit nor a torn write can land at-or-below it unseen.
        """
        cutoff = owned_ids[-1].timestamp - self.config.watermark_lag
        if self.pending_reads:
            cutoff = min(cutoff, min(self.pending_reads).timestamp)
        # uuid "" sorts before every real uuid at the same timestamp, so ids
        # *at* the cutoff timestamp stay above the watermark.
        return self.digest.advance_watermark(TransactionId(timestamp=cutoff, uuid=""))

    # ------------------------------------------------------------------ #
    def memory_entries(self) -> int:
        with self._lock:
            return (
                self.digest.window_size
                + len(self.pending_reads)
                + sum(len(ids) for ids in self.retired_deletions.values())
            )


@dataclass
class FaultManagerStats:
    commit_scans: int = 0
    unbroadcast_commits_recovered: int = 0
    failures_detected: int = 0
    replacements_requested: int = 0
    gc_rounds: int = 0
    nodes_retired: int = 0
    retired_deletions_absorbed: int = 0
    #: Commit records fetched from storage by liveness sweeps (batched).
    scan_records_fetched: int = 0
    #: Record reads that returned ``None`` mid-scan and entered the retry set.
    torn_reads_deferred: int = 0
    #: Digest entries pruned by watermark advances.
    watermark_prunes: int = 0
    #: Node-failure recoveries performed.
    node_recoveries: int = 0
    #: Orphaned write-buffer spill keys reclaimed during recovery.
    orphan_spills_reclaimed: int = 0


class FaultManager:
    """Sharded cluster-level manager for liveness, failure recovery, and global GC."""

    def __init__(
        self,
        data_storage: StorageEngine,
        commit_store: CommitSetStore,
        multicast: MulticastService,
        gc_max_deletes_per_round: int | None = None,
        config: FaultManagerConfig | None = None,
        membership: MembershipService | None = None,
    ) -> None:
        self.data_storage = data_storage
        self.commit_store = commit_store
        self.multicast = multicast
        self.config = config if config is not None else FaultManagerConfig()
        #: The failure detector.  The default polling service reproduces the
        #: seed's ``is_running`` check; a lease service makes detection an
        #: observed (and charged) delay instead of ground truth.
        self.membership = membership if membership is not None else PollingMembership()
        self.global_gc = GlobalDataGC(
            data_storage=data_storage,
            commit_store=commit_store,
            max_deletes_per_round=gc_max_deletes_per_round,
        )
        shard_ids = fault_manager_partition_ids(self.config.num_shards)
        self._ring = HashRing.of(shard_ids, replicas=self.config.hash_ring_replicas)
        self._shards: dict[str, FaultManagerShard] = {
            shard_id: FaultManagerShard(shard_id, commit_store, self.config) for shard_id in shard_ids
        }
        self._single_shard = self._shards[shard_ids[0]] if len(shard_ids) == 1 else None
        #: Whether the commit keyspace is partitioned on exactly this
        #: manager's shard ids: each shard's sweep can then list only its
        #: own storage prefix, and id->shard routing delegates to the
        #: keyspace so both sides always agree on ownership.
        keyspace = commit_store.keyspace
        self._keyspace_aligned = not isinstance(keyspace, FlatCommitKeyspace) and set(
            keyspace.partitions()
        ) == set(shard_ids)
        self.stats = FaultManagerStats()
        self.last_scan_report: ScanReport | None = None
        self.last_recovery_report: RecoveryReport | None = None
        multicast.register_fault_manager(self)

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> list[FaultManagerShard]:
        return list(self._shards.values())

    def _owner_id(self, txid: TransactionId) -> str:
        """The shard id owning ``txid``.

        With an aligned partitioned keyspace the keyspace's mapping is the
        single source of truth (so a record always lands in the prefix its
        sweeping shard lists); otherwise the manager's own ring decides.
        """
        if self._keyspace_aligned:
            return self.commit_store.keyspace.partition_for(txid)
        return self._ring.owner(txid.uuid)

    def shard_for(self, txid: TransactionId) -> FaultManagerShard:
        """The shard owning ``txid`` on the consistent-hash ring."""
        if self._single_shard is not None:
            return self._single_shard
        return self._shards[self._owner_id(txid)]

    def _partition(self, ids: list[TransactionId]) -> dict[str, list[TransactionId]]:
        """Split a sorted id list into per-shard sorted slices."""
        owned: dict[str, list[TransactionId]] = {shard_id: [] for shard_id in self._shards}
        if self._single_shard is not None:
            owned[self._single_shard.shard_id] = list(ids)
            return owned
        for txid in ids:
            owned[self._owner_id(txid)].append(txid)
        return owned

    def _owned_ids(self) -> dict[str, list[TransactionId]]:
        """Each shard's sorted slice of durable ids a sweep could need.

        With an aligned partitioned keyspace, each slice is one
        prefix-scoped storage listing truncated below that shard's own
        watermark — no full-keyspace scan, no client-side partitioning.
        The flat fallback lists the whole keyspace once, skips the prefix
        below every shard's watermark, and partitions client-side (the
        seed's shape).  Per-shard pending reads always sit above their
        shard's watermark, so truncation can never hide one.
        """
        if not self._keyspace_aligned:
            return self._partition(self._scan_candidates())
        owned = self.commit_store.list_transaction_ids_by_partition()
        for shard_id, shard in self._shards.items():
            watermark = shard.digest.watermark
            if watermark is not None:
                owned[shard_id] = owned[shard_id][bisect_right(owned[shard_id], watermark) :]
        return owned

    def _scan_candidates(self) -> list[TransactionId]:
        """Durable ids a sweep could possibly need to look at.

        Ids at or below every shard's watermark are seen by definition —
        whichever shard owns one has it covered — so the prefix is skipped
        *before* partitioning, keeping the per-sweep work (including the
        ring hashing) proportional to the recent window rather than total
        history.  Per-shard pending reads always sit above their shard's
        watermark, so truncation can never hide one.
        """
        ids = self.commit_store.list_transaction_ids()
        if not ids:
            return ids
        floors = [shard.digest.watermark for shard in self._shards.values()]
        if any(floor is None for floor in floors):
            return ids
        return ids[bisect_right(ids, min(floors)) :]

    def memory_footprint(self) -> dict[str, int]:
        """Bounded-memory accounting: digest windows + retry + retirement sets."""
        windows = [shard.digest.window_size for shard in self._shards.values()]
        return {
            "window_entries": sum(windows),
            "largest_shard_window": max(windows, default=0),
            "pending_reads": sum(len(shard.pending_reads) for shard in self._shards.values()),
            "retired_entries": sum(
                len(ids)
                for shard in self._shards.values()
                for ids in shard.retired_deletions.values()
            ),
        }

    # ------------------------------------------------------------------ #
    # Broadcast sink (unpruned)
    # ------------------------------------------------------------------ #
    def receive_commits(self, records: list[CommitRecord]) -> None:
        """Ingest a node's unpruned commit set (called by the multicast service)."""
        if self._single_shard is not None:
            self._single_shard.receive_commits(records)
        else:
            per_shard: dict[str, list[CommitRecord]] = {}
            for record in records:
                per_shard.setdefault(self._owner_id(record.txid), []).append(record)
            for shard_id, shard_records in per_shard.items():
                self._shards[shard_id].receive_commits(shard_records)
        self.global_gc.receive_commits(records)

    def has_seen(self, txid: TransactionId) -> bool:
        return self.shard_for(txid).has_seen(txid)

    # ------------------------------------------------------------------ #
    # Liveness scan (Section 4.2)
    # ------------------------------------------------------------------ #
    def scan_commit_set(self) -> list[CommitRecord]:
        """Find durable commit records never received via broadcast.

        Any such record belongs to a transaction whose node failed between
        acknowledging the commit and broadcasting it.  The Commit Set is
        listed once, partitioned across the shards, and each shard sweeps
        its slice incrementally (cursor + watermark + batched fetches).
        Recovered records are pushed to every live node and the global GC.
        """
        self.stats.commit_scans += 1
        owned = self._owned_ids()
        recovered: list[CommitRecord] = []
        reports: list[ShardScanReport] = []
        with tr.span("fm.scan", n_shards=len(self._shards)) as scan_span:
            for shard_id, shard in self._shards.items():
                shard_recovered, report = shard.scan(
                    owned[shard_id], budget=self.config.max_records_per_scan
                )
                recovered.extend(shard_recovered)
                reports.append(report)
            scan_span.set(n_recovered=len(recovered))
        recovered.sort(key=lambda record: record.txid)
        self.last_scan_report = ScanReport(shard_reports=reports)
        self.stats.scan_records_fetched += self.last_scan_report.records_fetched
        self.stats.torn_reads_deferred += sum(report.unresolved for report in reports)
        self.stats.watermark_prunes += sum(report.watermark_pruned for report in reports)
        if recovered:
            self.stats.unbroadcast_commits_recovered += len(recovered)
            self.multicast.broadcast_records(recovered)
            self.global_gc.receive_commits(recovered)
        return recovered

    # ------------------------------------------------------------------ #
    # Failure detection and recovery (Sections 4.3, 6.7)
    # ------------------------------------------------------------------ #
    def detect_failures(self, nodes: list[AftNode]) -> list[AftNode]:
        """Return the nodes the membership service declares failed.

        The default polling service reproduces the seed: a node is failed
        iff it stopped running and was not gracefully retired (a retired
        node's state was handed over before it left — treating it as failed
        would double-replace it when retirement races failure detection).
        A lease service instead waits for the node's lease to lapse, which
        is how real deployments observe failures — delayed, via silence.
        """
        failed = self.membership.detect_failures(nodes)
        if failed:
            self.stats.failures_detected += len(failed)
        return failed

    def request_replacement(self) -> None:
        """Record that a replacement node was requested (cluster performs it)."""
        self.stats.replacements_requested += 1

    def recover_node_failure(self, node: AftNode) -> RecoveryReport:
        """Replay everything a crashed node knew that the cluster might not.

        Every shard, one after another, sweeps its full slice of the Commit
        Set: the unseen records found are exactly the failed node's
        commit-acknowledged-but-unbroadcast transactions, which are replayed
        to the surviving nodes and the global GC.  The node's orphaned
        write-buffer spills (persisted but referenced by no commit record)
        are reclaimed in one delete plan.
        Standby promotion is the cluster's job — the same autoscaler path
        that serves elastic scale-up.
        """
        started = time.perf_counter()
        owned = self._owned_ids()

        with tr.span("fm.recover", node=node.node_id) as recover_span:
            outcomes = [
                shard.scan(owned[shard.shard_id], budget=None)
                for shard in self._shards.values()
            ]

            recovered = sorted(
                (record for shard_recovered, _ in outcomes for record in shard_recovered),
                key=lambda record: record.txid,
            )
            if recovered:
                self.stats.unbroadcast_commits_recovered += len(recovered)
                self.multicast.broadcast_records(recovered, exclude=node)
                self.global_gc.receive_commits(recovered)

            reclaimed = self.reclaim_orphan_spills(node)
            recover_span.set(n_recovered=len(recovered), spills_reclaimed=reclaimed)

        report = RecoveryReport(
            node_id=node.node_id,
            recovered=recovered,
            per_shard_recovered=[scan_report.recovered for _, scan_report in outcomes],
            orphan_spills_reclaimed=reclaimed,
            wall_seconds=time.perf_counter() - started,
        )
        self.stats.node_recoveries += 1
        self.last_recovery_report = report
        return report

    def reclaim_orphan_spills(self, node: AftNode) -> int:
        """Delete a dead node's orphaned write-buffer spills in one plan.

        The spills are durable storage keys no commit record references —
        garbage the moment the node stopped.  Called both by node-failure
        recovery and by graceful retirement (which may be finishing off a
        node that crashed mid-drain).  Returns the number reclaimed.
        """
        orphans: list[str] = []
        reclaim = getattr(node, "reclaim_spilled_orphans", None)
        if reclaim is not None:
            orphans = reclaim()
        if orphans:
            plan = IOPlan()
            stage = plan.stage("orphan-spill-reclaim")
            for storage_key in orphans:
                stage.add_delete(storage_key)
            self.data_storage.execute_plan(plan)
            self.stats.orphan_spills_reclaimed += len(orphans)
        return len(orphans)

    # ------------------------------------------------------------------ #
    # Graceful retirement (elastic scale-down)
    # ------------------------------------------------------------------ #
    def absorb_retired_node(self, node_id: str, locally_deleted: set[TransactionId]) -> None:
        """Take custody of a retiring node's locally-deleted GC set.

        The global GC's deletion rule is "every *live* node has released the
        transaction" (Section 5.2); a gracefully retired node simply leaves
        that quorum — its in-flight transactions finished before retirement,
        so nothing can still read through its cache.  Its final answer is
        partitioned across the shards that own the ids, so the handover is
        auditable per slice, and pruned as the global GC deletes those
        transactions.  The cluster also flushes the node's unbroadcast
        commit records through :meth:`receive_commits` first, so nothing the
        node knew is lost when it disappears.
        """
        self.stats.nodes_retired += 1
        self.stats.retired_deletions_absorbed += len(locally_deleted)
        per_shard: dict[str, set[TransactionId]] = {}
        for txid in locally_deleted:
            per_shard.setdefault(self.shard_for(txid).shard_id, set()).add(txid)
        for shard_id, ids in per_shard.items():
            shard = self._shards[shard_id]
            with shard._lock:
                shard.retired_deletions[node_id] = ids

    def retired_node_deletions(self, node_id: str) -> set[TransactionId]:
        """The locally-deleted set a retired node handed over (empty if unknown)."""
        out: set[TransactionId] = set()
        for shard in self._shards.values():
            with shard._lock:
                out |= shard.retired_deletions.get(node_id, set())
        return out

    # ------------------------------------------------------------------ #
    # Global GC (Section 5.2)
    # ------------------------------------------------------------------ #
    def run_global_gc(self, nodes: list[AftNode]) -> list[TransactionId]:
        """Run one round of global data garbage collection.

        Deleted ids are pruned from the shard digests and retirement custody
        sets — the "pruned as global GC advances" half of the bounded-memory
        guarantee (watermark advances are the other half).
        """
        self.stats.gc_rounds += 1
        with tr.span("fm.gc", n_nodes=len(nodes)) as gc_span:
            deleted = self.global_gc.run_once(nodes)
            gc_span.set(n_deleted=len(deleted))
        if deleted:
            deleted_set = set(deleted)
            for txid in deleted:
                self.shard_for(txid).forget_deleted(txid)
            for shard in self._shards.values():
                with shard._lock:
                    if not shard.retired_deletions:
                        continue
                    for node_id in list(shard.retired_deletions):
                        shard.retired_deletions[node_id] -= deleted_set
                        if not shard.retired_deletions[node_id]:
                            del shard.retired_deletions[node_id]
        return deleted
