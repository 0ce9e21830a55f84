"""A single AFT node.

An AFT node exposes the five-call transactional key-value API of Table 1
(``StartTransaction``, ``Get``, ``Put``, ``CommitTransaction``,
``AbortTransaction``) and is composed of the three components of Figure 1:

* the **Atomic Write Buffer** (:mod:`repro.core.write_buffer`), which
  sequesters a transaction's updates until commit,
* the **transaction manager** (this module), which tracks each transaction's
  read set and enforces read atomicity via Algorithm 1, and
* the **local metadata cache** (:mod:`repro.core.metadata_cache`) of recently
  committed transactions plus a data cache of hot key versions.

The commit path implements the write-ordering protocol of Section 3.3: all of
a transaction's data is persisted first (batched when the backend allows it),
the commit record is persisted second, and only then does the node make the
transaction visible and acknowledge the client.  Every key version is written
to its own storage key, so concurrent nodes never overwrite each other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import runtime
from repro.clock import Clock, SystemClock
from repro.config import AftConfig, DEFAULT_CONFIG
from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.data_cache import DataCache
from repro.core.group_commit import (
    GroupCommitter,
    PendingCommit,
    execute_commit_plan_async,
)
from repro.core.io_plan import IOPlan
from repro.core.metadata_cache import CommitSetCache
from repro.core.read_protocol import ReadDecision, atomic_read
from repro.core.transaction import Transaction, TransactionStatus
from repro.core.write_buffer import AtomicWriteBuffer
from repro.errors import (
    AtomicReadError,
    NodeDrainingError,
    NodeStoppedError,
    TransactionAbortedError,
    TransactionAlreadyCommittedError,
    UnknownTransactionError,
)
from repro.ids import (
    TransactionId,
    TransactionIdGenerator,
    data_key,
    new_uuid,
    validate_user_key,
)
from repro.observability import trace as tr
from repro.storage.base import StorageEngine


@dataclass
class NodeStats:
    """Operation counters exposed by every node (used by tests and reports).

    The named counters are only ever mutated while the owning node holds its
    lock; ad-hoc counters in ``extra`` must go through :meth:`bump_extra`,
    which takes the stats object's own lock — a bare ``stats.extra[k] += 1``
    is a read-modify-write race under concurrent commits.
    """

    transactions_started: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0
    reads: int = 0
    writes: int = 0
    null_reads: int = 0
    missing_version_reads: int = 0
    read_your_write_hits: int = 0
    data_cache_hits: int = 0
    storage_value_reads: int = 0
    commit_records_written: int = 0
    remote_commits_applied: int = 0
    remote_commits_ignored: int = 0
    group_commits: int = 0
    group_commit_batched_txns: int = 0
    #: Versioned reads whose chosen version was committed by this node — its
    #: metadata (and usually its data) were already local, no multicast round
    #: trip was needed.  Key-affinity routing drives this ratio up.
    local_version_reads: int = 0
    remote_version_reads: int = 0
    drains_started: int = 0
    extra: dict[str, int] = field(default_factory=dict)
    _extra_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump_extra(self, name: str, amount: int = 1) -> None:
        """Thread-safe increment of an ad-hoc ``extra`` counter."""
        with self._extra_lock:
            self.extra[name] = self.extra.get(name, 0) + amount


@dataclass
class _ReadBatch:
    """Intermediate state of one ``get_many`` between planning and fetching.

    Everything Algorithm 1 decided under the node lock, captured so the
    storage fetch — the only part that touches the network — is the only
    part that awaits.
    """

    transaction: Transaction
    results: dict[str, bytes | None] = field(default_factory=dict)
    decisions: dict[str, ReadDecision] = field(default_factory=dict)
    storage_keys: dict[str, str] = field(default_factory=dict)
    cowritten_sets: dict[str, frozenset[str]] = field(default_factory=dict)
    cached: dict[str, bytes] = field(default_factory=dict)
    #: User key -> storage key still needing a storage fetch.
    to_fetch: dict[str, str] = field(default_factory=dict)


@dataclass
class _PreparedCommit:
    """Everything the commit protocol derives before touching storage."""

    txid: str
    transaction: Transaction
    commit_id: TransactionId
    #: User key -> value for every buffered write (spilled or not).
    pending_values: dict[str, bytes] = field(default_factory=dict)
    #: Storage key -> value for writes that still need persisting.
    to_persist: dict[str, bytes] = field(default_factory=dict)
    record: CommitRecord | None = None
    #: Set when the transaction had already committed (idempotent re-commit).
    already_committed: TransactionId | None = None


class AftNode:
    """One AFT shim replica."""

    def __init__(
        self,
        storage: StorageEngine,
        commit_store: CommitSetStore | None = None,
        config: AftConfig | None = None,
        clock: Clock | None = None,
        node_id: str | None = None,
    ) -> None:
        self.storage = storage
        self.commit_store = commit_store if commit_store is not None else CommitSetStore(storage)
        self.config = config if config is not None else DEFAULT_CONFIG
        self.clock = clock if clock is not None else SystemClock()
        self.node_id = node_id if node_id is not None else f"aft-{new_uuid()[:8]}"
        tr.apply_config(self.config.observability)
        #: :class:`~repro.core.metadata_plane.fencing.FenceToken` granted by
        #: the membership authority (cluster or router) when fencing is on.
        #: Its epoch is stamped into every commit record this node prepares;
        #: ``None`` leaves records unstamped (``epoch=0``, the seed format).
        self.fence_token = None

        self.metadata_cache = CommitSetCache()
        self.data_cache = DataCache(
            capacity_bytes=self.config.data_cache_capacity_bytes if self.config.enable_data_cache else 0
        )
        self.write_buffer = AtomicWriteBuffer(
            storage=storage,
            spill_threshold_bytes=self.config.write_buffer_spill_bytes,
            use_plans=self.config.enable_io_pipeline,
        )
        self.stats = NodeStats()
        # The node's configured per-stage request-group concurrency applies to
        # its engines (a shared engine keeps the last writer's bound — nodes
        # in one cluster share one config, so this is moot in practice).
        self.storage.io_concurrency = self.config.io_concurrency
        if self.commit_store.engine is not storage:
            self.commit_store.engine.io_concurrency = self.config.io_concurrency
        # The committer exists unconditionally (the explicit
        # ``commit_transactions`` batch API always routes through it); a
        # positive ``group_commit_window`` routes single commits through it too.
        self.group_committer = GroupCommitter(
            storage=storage,
            commit_store=self.commit_store,
            window=self.config.group_commit_window,
            max_txns=self.config.group_commit_max_txns,
            on_flush=self._record_group_flush,
        )

        self._id_generator = TransactionIdGenerator(self.clock)
        self._transactions: dict[str, Transaction] = {}
        self._recent_commits: list[CommitRecord] = []
        self._running = False
        self._draining = False
        #: Set by :meth:`retire` — distinguishes graceful scale-down from a
        #: crash, so failure detection never double-replaces a retired node.
        self._retired = False
        #: Storage keys of spilled-but-uncommitted writes left behind by
        #: :meth:`stop`/:meth:`fail`; no commit record references them, so
        #: the fault manager reclaims them during recovery.
        self._orphaned_spills: list[str] = []
        #: Clock time at which :meth:`begin_drain` was called (None = never).
        self.drain_started_at: float | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, bootstrap: bool = True) -> None:
        """Bring the node online, warming the metadata cache from storage.

        A node recovering from failure bootstraps itself by reading the most
        recent commit records from the Transaction Commit Set (Section 3.1).
        """
        if bootstrap:
            self.bootstrap()
        with self._lock:
            self._draining = False
            self._retired = False
            self.drain_started_at = None
            self._running = True

    def stop(self) -> None:
        """Take the node offline.  In-flight transactions are lost (Section 3.3.1).

        Spilled-but-uncommitted storage keys are remembered in
        :attr:`_orphaned_spills` (no commit record references them); the
        fault manager reclaims them via :meth:`reclaim_spilled_orphans`.
        """
        self._running = False
        with self._lock:
            self._transactions.clear()
        orphans: list[str] = []
        for uuid in list(self.write_buffer.open_transactions()):
            orphans.extend(self.write_buffer.discard(uuid))
        if orphans:
            with self._lock:
                self._orphaned_spills.extend(orphans)

    def fail(self) -> None:
        """Simulate a crash: identical to :meth:`stop` but kept separate for clarity."""
        self.stop()

    def retire(self) -> None:
        """Leave the cluster gracefully (scale-down): flagged so failure
        detection never mistakes the retirement for a crash."""
        with self._lock:
            self._retired = True
        self.stop()

    @property
    def was_retired(self) -> bool:
        return self._retired

    def reclaim_spilled_orphans(self) -> list[str]:
        """Return (and clear) the orphaned spill keys left by stop/fail.

        Called by the fault manager during recovery — the write-buffer
        custody handover: the keys are durable garbage no commit record
        points at, so the surviving quorum deletes them instead of waiting
        for them to age out.
        """
        with self._lock:
            orphans = self._orphaned_spills
            self._orphaned_spills = []
            return orphans

    def begin_drain(self) -> None:
        """Enter the graceful scale-down path.

        From this moment the node rejects *new* transactions (so the load
        balancer stops pinning work to it) while every in-flight transaction
        runs to completion.  The flag is flipped under the node lock — the
        same lock :meth:`start_transaction` registers new transactions under —
        so a transaction is either pinned before the drain began (and will be
        waited for) or rejected; there is no window in which a transaction
        lands on a node that is already draining.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self.drain_started_at = self.clock.now()
            self.stats.drains_started += 1

    @property
    def is_running(self) -> bool:
        return self._running

    @property
    def is_draining(self) -> bool:
        return self._draining

    @property
    def is_accepting(self) -> bool:
        """Whether the node may be pinned new transactions."""
        return self._running and not self._draining

    def is_drained(self) -> bool:
        """True once a draining node has no in-flight transactions left."""
        with self._lock:
            return self._draining and not any(
                t.is_running for t in self._transactions.values()
            )

    def bootstrap(self) -> int:
        """Sync facade: drive :meth:`bootstrap_async` to completion."""
        return runtime.drive(self.bootstrap_async(), self.commit_store.engine)

    async def bootstrap_async(self) -> int:
        """Warm the metadata cache from the Transaction Commit Set.

        Returns the number of commit records loaded.
        """
        records = await self.commit_store.scan_async(limit=self.config.metadata_bootstrap_limit)
        return self.metadata_cache.add_many(records)

    def _require_running(self) -> None:
        if not self._running:
            raise NodeStoppedError(f"node {self.node_id} is not running")

    # ------------------------------------------------------------------ #
    # Transaction lifecycle (Table 1 API)
    # ------------------------------------------------------------------ #
    def start_transaction(self, txid: str | None = None) -> str:
        """Begin a transaction and return its id (a uuid string).

        Passing an existing ``txid`` joins that transaction if it is already
        open on this node (the multi-function case, where every function of a
        request sends its operations to the same node under one id) or
        re-opens it after a retried function, preserving idempotence.
        """
        self._require_running()
        now = self.clock.now()
        # Span only when nothing encloses us: standalone (in-process) use
        # roots the transaction trace here, while under the socket runtime
        # the node server's ``node.start`` span already covers this call
        # exactly and binds the txn anchor itself.
        ambient = tr.current_context() is not None
        with tr.span("aft.start") if not ambient else tr.null_span() as span:
            with self._lock:
                if txid is not None:
                    existing = self._transactions.get(txid)
                    if existing is not None:
                        if existing.status is TransactionStatus.COMMITTED:
                            raise TransactionAlreadyCommittedError(
                                f"transaction {txid} already committed", txid=txid
                            )
                        existing.touch(now)
                        span.bind_txn(txid)
                        return txid
                    uuid = txid
                else:
                    uuid = new_uuid()
                # Joining an existing transaction (above) is always allowed —
                # the multi-function case must finish on its pinned node — but
                # a draining node refuses to open *new* transactions.
                if self._draining:
                    raise NodeDrainingError(
                        f"node {self.node_id} is draining; retry on another node"
                    )
                transaction = Transaction(uuid=uuid, start_time=now)
                self._transactions[uuid] = transaction
                self.write_buffer.open(uuid)
                self.stats.transactions_started += 1
            span.bind_txn(uuid)
            return uuid

    def _get_running(self, txid: str) -> Transaction:
        transaction = self._transactions.get(txid)
        if transaction is None:
            raise UnknownTransactionError(f"unknown transaction {txid!r}", txid=txid)
        if transaction.status is TransactionStatus.COMMITTED:
            raise TransactionAlreadyCommittedError(f"transaction {txid} already committed", txid=txid)
        if transaction.status is TransactionStatus.ABORTED:
            raise TransactionAbortedError(f"transaction {txid} was aborted", txid=txid)
        return transaction

    def _drive(self, coro):
        """Run one of this node's coroutines to completion for a sync caller.

        A windowed group commit parks its members on a timer, so it needs an
        event loop even over a metered engine; everything else follows the
        engine (see :func:`repro.runtime.drive`).
        """
        return runtime.drive(coro, self.storage, needs_loop=self.config.group_commit_window > 0)

    def put(self, txid: str, key: str, value: bytes | str) -> None:
        """Sync facade: drive :meth:`put_async` to completion."""
        return self._drive(self.put_async(txid, key, value))

    async def put_async(self, txid: str, key: str, value: bytes | str) -> None:
        """Buffer an update for transaction ``txid`` (Table 1 ``Put``).

        Pure buffering unless the write pushes the transaction over the
        spill threshold, in which case the spill's IO plan is awaited.
        """
        self._require_running()
        validate_user_key(key)
        if isinstance(value, str):
            value = value.encode("utf-8")
        with self._lock:
            transaction = self._get_running(txid)
            transaction.touch(self.clock.now())
            transaction.record_write(key)
            self.stats.writes += 1
        provisional = TransactionId(timestamp=transaction.start_time, uuid=transaction.uuid)
        await self.write_buffer.put_async(txid, key, value, provisional_id=provisional)

    def get(self, txid: str, key: str) -> bytes | None:
        """Sync facade: drive :meth:`get_async` to completion."""
        return self._drive(self.get_async(txid, key))

    async def get_async(self, txid: str, key: str) -> bytes | None:
        """Read ``key`` within transaction ``txid`` (Table 1 ``Get``).

        Returns the payload of the chosen key version, or ``None`` when no
        version is compatible with the transaction's read set (the NULL read
        of Section 3.6) — unless ``strict_reads`` is configured, in which case
        :class:`~repro.errors.AtomicReadError` is raised.
        """
        return (await self.get_many_async(txid, [key]))[key]

    def get_many(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        """Sync facade: drive :meth:`get_many_async` to completion."""
        return self._drive(self.get_many_async(txid, keys))

    async def get_many_async(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        """Read several keys within ``txid`` in one shim request.

        Algorithm 1 runs per key, in order, against a read set that grows
        with each decision — exactly the versions a sequence of single
        ``get`` calls would have chosen — but the chosen versions' payloads
        are fetched from storage in **one parallel plan stage** instead of
        one round trip per key (the batched half of the paper's Table 1 API;
        the pipeline of Section 3.3 applied to reads).  Duplicate keys
        resolve to a single decision.  The fetch runs through
        :meth:`~repro.storage.base.StorageEngine.execute_plan_async`, so
        wall-clock backends overlap the fetches of concurrent client
        coroutines instead of serialising them.
        """
        # Prepare is pure CPU (microseconds): it stays un-spanned so the hot
        # path pays one span per storage round trip; its duration is the
        # enclosing span's time minus the fetch span.
        batch = self._prepare_read_batch(txid, keys)
        if batch.to_fetch:
            with tr.span(
                "aft.read.fetch", txid=txid, n_keys=len(batch.to_fetch), n_requested=len(keys)
            ):
                fetched = await self._fetch_payloads_async(batch)
        else:
            fetched = {}
        return self._finish_read_batch(txid, batch, fetched)

    def _prepare_read_batch(self, txid: str, keys: list[str]) -> _ReadBatch:
        """Run Algorithm 1 for the batch; everything up to the storage fetch."""
        self._require_running()
        for key in keys:
            validate_user_key(key)
        with self._lock:
            transaction = self._get_running(txid)
            transaction.touch(self.clock.now())
            self.stats.reads += len(keys)

        results: dict[str, bytes | None] = {}
        remaining: list[str] = []
        read_your_write_hits = 0
        for key in keys:
            if key in results or key in remaining:
                continue
            # Read-your-writes: pending updates short-circuit Algorithm 1 (§3.5).
            if self.write_buffer.has_write(txid, key):
                results[key] = self.write_buffer.get(txid, key)
                read_your_write_hits += 1
            else:
                remaining.append(key)
        if read_your_write_hits:
            # One locked stats update for the whole batch, not one per hit.
            with self._lock:
                self.stats.read_your_write_hits += read_your_write_hits

        decisions: dict[str, ReadDecision] = {}
        storage_keys: dict[str, str] = {}
        cowritten_sets: dict[str, frozenset[str]] = {}
        # One immutable metadata snapshot serves every decision in the batch:
        # consistent (record and index views were published together) and
        # lock-free (commits/GC publish newer epochs without blocking us).
        snap = self.metadata_cache.snapshot()
        with self._lock:
            # The tentative read set: an overlay over the transaction's read
            # set, so decisions already made in this batch constrain later
            # ones — mirroring a sequence of single gets — without copying
            # the read set or its conflict digest.  A batch with at most one
            # undecided key needs no overlay at all: there is no later
            # decision for its outcome to constrain.
            if len(remaining) > 1:
                tentative = transaction.read_set.overlay()
            else:
                tentative = transaction.read_set
            for key in remaining:
                decision = atomic_read(key, tentative, snap)
                decisions[key] = decision
                if decision.target is None:
                    transaction.record_null_read(key)
                    self.stats.null_reads += 1
                else:
                    record = snap.get(decision.target)
                    cowritten = record.cowritten if record is not None else frozenset()
                    cowritten_sets[key] = cowritten
                    if tentative is not transaction.read_set:
                        tentative.observe(key, decision.target, cowritten)
                    if record is not None:
                        if record.node_id == self.node_id:
                            self.stats.local_version_reads += 1
                        else:
                            self.stats.remote_version_reads += 1
                    storage_keys[key] = (
                        record.storage_key_for(key)
                        if record is not None
                        else data_key(key, decision.target)
                    )

        null_keys = [key for key in remaining if decisions[key].target is None]
        if null_keys and self.config.strict_reads:
            raise AtomicReadError(
                f"no version of {null_keys[0]!r} is compatible with the transaction's read set",
                txid=txid,
            )
        for key in null_keys:
            results[key] = None

        # Serve what we can from the data cache, then fetch the rest from
        # storage in a single parallel stage.
        to_fetch: dict[str, str] = {}
        cached: dict[str, bytes] = {}
        for key, storage_key in storage_keys.items():
            value = self.data_cache.get(key, decisions[key].target)
            if value is not None:
                cached[key] = value
            else:
                to_fetch[key] = storage_key
        if cached:
            with self._lock:
                self.stats.data_cache_hits += len(cached)

        return _ReadBatch(
            transaction=transaction,
            results=results,
            decisions=decisions,
            storage_keys=storage_keys,
            cowritten_sets=cowritten_sets,
            cached=cached,
            to_fetch=to_fetch,
        )

    async def _fetch_payloads_async(self, batch: _ReadBatch) -> dict[str, bytes | None]:
        """Fetch the batch's undecided payloads from storage."""
        if self.config.enable_io_pipeline:
            if len(batch.to_fetch) > 1:
                self.stats.bump_extra("batched_payload_fetches")
            plan_values = (
                await self.storage.execute_plan_async(
                    IOPlan.reads(batch.to_fetch.values(), name="payload-fetch")
                )
            ).values
        else:
            # The sequential (pre-pipeline) path: one point read per key.
            plan_values = {
                storage_key: await self.storage.get_async(storage_key)
                for storage_key in batch.to_fetch.values()
            }
        fetched = {
            key: plan_values.get(storage_key) for key, storage_key in batch.to_fetch.items()
        }
        with self._lock:
            self.stats.storage_value_reads += len(batch.to_fetch)
        return fetched

    def _finish_read_batch(
        self, txid: str, batch: _ReadBatch, fetched: dict[str, bytes | None]
    ) -> dict[str, bytes | None]:
        """Apply fetch results: caching, missing-version handling, read records."""
        transaction = batch.transaction
        results = batch.results
        decisions = batch.decisions
        storage_keys = batch.storage_keys
        cached = batch.cached
        to_fetch = batch.to_fetch
        cowritten_sets = batch.cowritten_sets
        missing: list[str] = []
        for key in storage_keys:
            value = cached.get(key)
            if value is None:
                value = fetched.get(key)
            if value is None:
                # The version's data is gone (e.g. deleted by an over-eager
                # global GC).  Treat it as a NULL read; the caller retries.
                missing.append(key)
                results[key] = None
                continue
            if key in to_fetch and self.config.enable_data_cache:
                self.data_cache.put(key, decisions[key].target, value)
            results[key] = value

        with self._lock:
            if missing:
                self.stats.missing_version_reads += len(missing)
            for key in missing:
                transaction.record_null_read(key)
            for key in storage_keys:
                if key not in missing:
                    transaction.record_read(key, decisions[key].target, cowritten_sets[key])
        if missing and self.config.strict_reads:
            raise AtomicReadError(
                f"data for {missing[0]!r} version {decisions[missing[0]].target} "
                "is missing from storage",
                txid=txid,
            )
        return results

    def commit_transaction(self, txid: str) -> TransactionId:
        """Sync facade: drive :meth:`commit_transaction_async` to completion."""
        return self._drive(self.commit_transaction_async(txid))

    async def commit_transaction_async(self, txid: str) -> TransactionId:
        """Commit ``txid``: persist its updates, then its commit record (§3.3).

        The call only returns after both the data and the commit record are
        durable in storage; the transaction's updates become visible to other
        transactions at that point and never earlier.  Committing an
        already-committed transaction returns its original id (idempotence).

        With ``enable_io_pipeline`` the two steps run as one two-stage
        :class:`~repro.core.io_plan.IOPlan` (data fanned out in parallel,
        then the record); with a positive ``group_commit_window`` concurrent
        callers are additionally coalesced into a shared batch by the
        :class:`~repro.core.group_commit.GroupCommitter`.  If the caller is
        cancelled (a client timeout) mid-persist, the transaction is either
        not committed — its spilled/partial data is unreferenced garbage for
        the GC — or, once a remote engine (the socket runtime) has shipped
        the whole plan in one request, committed without this node
        finalizing it: the record still lands only after the data, and the
        router fans it out to the other nodes.  Never a fractured read
        either way.
        """
        self._require_running()
        # Prepare is in-memory bookkeeping; only the persist round trip gets
        # a span (prepare time = enclosing span minus persist).
        prepared = self._prepare_commit(txid)
        if prepared.already_committed is not None:
            return prepared.already_committed

        if prepared.record is not None:
            grouped = self.config.group_commit_window > 0
            with tr.span("aft.commit.persist", txid=txid, n_keys=len(prepared.to_persist), group=grouped):
                if grouped:
                    await self.group_committer.commit(
                        PendingCommit(txid=txid, record=prepared.record, data=prepared.to_persist)
                    )
                else:
                    await self._persist_commit_async(prepared.to_persist, prepared.record)

        self._finalize_commit(prepared)
        return prepared.commit_id

    def commit_transactions(self, txids: list[str]) -> dict[str, TransactionId]:
        """Sync facade: drive :meth:`commit_transactions_async` to completion."""
        return self._drive(self.commit_transactions_async(txids))

    async def commit_transactions_async(self, txids: list[str]) -> dict[str, TransactionId]:
        """Commit several open transactions as one group-commit batch.

        The deterministic group-commit entry point: all transactions' data is
        persisted in one parallel plan stage, all commit records in a second —
        so ``n`` transactions cost two storage round trips (per
        ``group_commit_max_txns`` chunk) instead of ``2n``.  The
        write-ordering invariant holds for the whole batch: no commit record
        becomes durable before every transaction's data is.
        """
        self._require_running()
        results: dict[str, TransactionId] = {}
        batch: list[tuple[_PreparedCommit, PendingCommit]] = []
        prepare_error: BaseException | None = None
        # A txid listed twice must not be prepared twice — the second prepare
        # would mint a second commit id (and record) for the same transaction.
        for txid in dict.fromkeys(txids):
            try:
                prepared = self._prepare_commit(txid)
            except (UnknownTransactionError, TransactionAbortedError) as exc:
                # One member's bad state (aborted by a drain straggler sweep,
                # unknown txid) must not poison the batch: the rest still
                # commit, and the first prepare error is raised afterwards
                # with partial_commit_results naming the survivors.
                if prepare_error is None:
                    prepare_error = exc
                continue
            if prepared.already_committed is not None:
                results[txid] = prepared.already_committed
                continue
            if prepared.record is None:
                # Read-only transaction: nothing to persist, commit locally.
                self._finalize_commit(prepared)
                results[txid] = prepared.commit_id
                continue
            batch.append(
                (prepared, PendingCommit(txid=txid, record=prepared.record, data=prepared.to_persist))
            )

        error: BaseException | None = None
        try:
            await self.group_committer.commit_batch([pending for _, pending in batch])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            error = exc
        finally:
            # A large batch is flushed in chunks; if one chunk's flush fails,
            # the other chunks' records are already durable — those
            # transactions ARE committed and must become visible locally even
            # while the error for the failed chunk propagates.
            for prepared, pending in batch:
                if pending.done.is_set() and pending.error is None:
                    self._finalize_commit(prepared)
                    results[prepared.txid] = prepared.commit_id
        if error is None:
            error = prepare_error
        if error is not None:
            # Callers that drove several transactions through one batch need
            # to know which of them ARE durably committed despite the error
            # (their requests succeeded; only the failed members' did not).
            error.partial_commit_results = dict(results)  # type: ignore[attr-defined]
            raise error
        return results

    async def _persist_commit_async(
        self, to_persist: dict[str, bytes], record: CommitRecord
    ) -> None:
        """Persist one transaction's data, then its commit record (§3.3).

        Step 1 pushes the data (batched/parallel when the engine allows);
        only after it completes does step 2 write the commit record — a crash
        between the two leaves no visible state, just unreferenced keys for
        the garbage collector.  ``batch_commit_writes=False`` forces the
        legacy one-request-at-a-time data push even when the pipeline is on,
        so the Section 6.1.1 batching ablation still isolates that effect.
        """
        # Fencing gate: a node declared failed after preparing this commit
        # carries a stale epoch stamp and must not make the record durable.
        self.commit_store.check_record_fence(record)
        record_key = self.commit_store.record_storage_key(record.txid)
        if self.config.enable_io_pipeline and self.config.batch_commit_writes:
            await execute_commit_plan_async(
                self.storage, self.commit_store, to_persist, {record_key: record.to_bytes()}
            )
        else:
            # Sequential: the record write is only issued after every data
            # write returned.
            if to_persist:
                await self._persist_updates_async(to_persist)
            await self.commit_store.engine.put_async(record_key, record.to_bytes())

    def _prepare_commit(self, txid: str) -> "_PreparedCommit":
        """Assign a commit id and split the write set into spilled/unspilled."""
        with self._lock:
            transaction = self._transactions.get(txid)
            if transaction is None:
                raise UnknownTransactionError(f"unknown transaction {txid!r}", txid=txid)
            if transaction.status is TransactionStatus.COMMITTED and transaction.commit_id is not None:
                return _PreparedCommit(
                    txid=txid,
                    transaction=transaction,
                    commit_id=transaction.commit_id,
                    already_committed=transaction.commit_id,
                )
            if transaction.status is TransactionStatus.ABORTED:
                raise TransactionAbortedError(f"transaction {txid} was aborted", txid=txid)
            commit_id = TransactionId(timestamp=self._id_generator.next_id().timestamp, uuid=transaction.uuid)

        pending = self.write_buffer.pending_writes(txid)
        spilled = self.write_buffer.spilled_keys(txid)

        write_set: dict[str, str] = {}
        to_persist: dict[str, bytes] = {}
        for key, value in pending.items():
            storage_key = spilled.get(key)
            if storage_key is None:
                storage_key = data_key(key, commit_id)
                to_persist[storage_key] = value
            write_set[key] = storage_key

        record: CommitRecord | None = None
        if write_set:
            record = CommitRecord(
                txid=commit_id,
                write_set=write_set,
                committed_at=self.clock.now(),
                node_id=self.node_id,
                epoch=self.fence_token.epoch if self.fence_token is not None else 0,
            )
        return _PreparedCommit(
            txid=txid,
            transaction=transaction,
            commit_id=commit_id,
            pending_values=pending,
            to_persist=to_persist,
            record=record,
        )

    def _finalize_commit(self, prepared: "_PreparedCommit") -> None:
        """Make a durably-committed transaction visible locally (step 3)."""
        with self._lock:
            if prepared.record is not None:
                self.metadata_cache.add(prepared.record)
                self._recent_commits.append(prepared.record)
                self.stats.commit_records_written += 1
                if self.config.enable_data_cache:
                    for key, value in prepared.pending_values.items():
                        self.data_cache.put(key, prepared.commit_id, value)
            prepared.transaction.status = TransactionStatus.COMMITTED
            prepared.transaction.commit_id = prepared.commit_id
            self.stats.transactions_committed += 1
        self.write_buffer.discard(prepared.txid)
        tr.end_txn(prepared.txid)

    def _record_group_flush(self, batch_size: int) -> None:
        """GroupCommitter flush callback: maintain stats under the node lock."""
        with self._lock:
            self.stats.group_commits += 1
            self.stats.group_commit_batched_txns += batch_size

    async def _persist_updates_async(self, updates: dict[str, bytes]) -> None:
        """Write key versions to storage sequentially (the pre-pipeline path)."""
        if self.config.batch_commit_writes and self.storage.supports_batch_writes:
            batch_limit = self.storage.max_batch_size or len(updates)
            items = list(updates.items())
            for start in range(0, len(items), batch_limit):
                await self.storage.multi_put_async(dict(items[start : start + batch_limit]))
        else:
            for storage_key, value in updates.items():
                await self.storage.put_async(storage_key, value)

    def abort_transaction(self, txid: str) -> None:
        """Abort ``txid`` and discard its buffered updates (Table 1)."""
        self._require_running()
        with self._lock:
            transaction = self._transactions.get(txid)
            if transaction is None:
                raise UnknownTransactionError(f"unknown transaction {txid!r}", txid=txid)
            if transaction.status is TransactionStatus.COMMITTED:
                raise TransactionAlreadyCommittedError(
                    f"transaction {txid} already committed; cannot abort", txid=txid
                )
            transaction.status = TransactionStatus.ABORTED
            self.stats.transactions_aborted += 1
        orphaned = self.write_buffer.discard(txid)
        tr.end_txn(txid)
        # Spilled-but-uncommitted data is unreachable (no commit record points
        # at it); delete it eagerly rather than waiting for the GC.
        if orphaned:
            self.storage.multi_delete(orphaned)

    # ------------------------------------------------------------------ #
    # Transaction housekeeping
    # ------------------------------------------------------------------ #
    def transaction_status(self, txid: str) -> TransactionStatus | None:
        with self._lock:
            transaction = self._transactions.get(txid)
            return transaction.status if transaction is not None else None

    def active_transactions(self) -> list[Transaction]:
        """Currently running transactions (snapshot)."""
        with self._lock:
            return [t for t in self._transactions.values() if t.is_running]

    def active_read_dependencies(self) -> list[set[TransactionId]]:
        """Read dependencies of running transactions, consulted by the local GC."""
        with self._lock:
            return [set(t.read_dependencies) for t in self._transactions.values() if t.is_running]

    def expire_idle_transactions(self, now: float | None = None) -> list[str]:
        """Abort transactions idle longer than ``transaction_timeout`` (§3.3.1)."""
        now = self.clock.now() if now is None else now
        expired: list[str] = []
        with self._lock:
            candidates = [
                t.uuid
                for t in self._transactions.values()
                if t.is_running and t.idle_for(now) > self.config.transaction_timeout
            ]
        for uuid in candidates:
            try:
                self.abort_transaction(uuid)
                expired.append(uuid)
            except (TransactionAlreadyCommittedError, UnknownTransactionError):
                continue
        return expired

    def abort_active_transactions(self) -> list[str]:
        """Abort every in-flight transaction (the forced end of a drain grace period)."""
        with self._lock:
            active = [t.uuid for t in self._transactions.values() if t.is_running]
        aborted: list[str] = []
        for uuid in active:
            try:
                self.abort_transaction(uuid)
                aborted.append(uuid)
            except (TransactionAlreadyCommittedError, UnknownTransactionError):
                continue
        return aborted

    def forget_finished_transactions(self) -> int:
        """Drop bookkeeping for committed/aborted transactions (memory hygiene)."""
        with self._lock:
            finished = [uuid for uuid, t in self._transactions.items() if not t.is_running]
            for uuid in finished:
                del self._transactions[uuid]
            return len(finished)

    # ------------------------------------------------------------------ #
    # Cluster hooks (multicast, fault manager, GC)
    # ------------------------------------------------------------------ #
    def drain_recent_commits(self) -> list[CommitRecord]:
        """Return and clear the commits made since the last multicast round."""
        with self._lock:
            recent = self._recent_commits
            self._recent_commits = []
            return recent

    def peek_recent_commits(self) -> list[CommitRecord]:
        """Recent commits without clearing (used by tests)."""
        with self._lock:
            return list(self._recent_commits)

    def receive_commits(self, records: list[CommitRecord]) -> int:
        """Merge commit records learned from peers or the fault manager.

        Records that are already superseded by locally known versions are
        ignored (Section 4.1).  Returns the number of records applied.
        """
        from repro.core.supersedence import is_superseded

        applied = 0
        with self._lock:
            for record in records:
                if record.txid in self.metadata_cache:
                    self.stats.remote_commits_ignored += 1
                    continue
                if self.config.prune_superseded_broadcasts and is_superseded(
                    record, self.metadata_cache.version_index
                ):
                    self.stats.remote_commits_ignored += 1
                    continue
                if self.metadata_cache.add(record):
                    applied += 1
                    self.stats.remote_commits_applied += 1
                else:
                    self.stats.remote_commits_ignored += 1
        return applied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AftNode id={self.node_id!r} running={self._running} cached_txns={len(self.metadata_cache)}>"
