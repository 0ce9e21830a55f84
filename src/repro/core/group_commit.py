"""Cross-transaction group commit.

The commit protocol of Section 3.3 persists a transaction's data first and
its commit record second.  When several transactions commit on the same node
at (nearly) the same time, those two steps can be shared: one combined
:class:`~repro.core.io_plan.IOPlan` persists *every* transaction's data in
stage one and *every* commit record in stage two.  The write-ordering
invariant is preserved — conservatively strengthened, even: no commit record
of the batch becomes durable before all data of the batch is durable, so a
crash mid-flush can never expose a fractured read.

The :class:`GroupCommitter` has two entry points, both coroutines:

* :meth:`~GroupCommitter.commit_batch` is the deterministic path: callers
  that already hold a set of commit-ready transactions (benchmarks, the
  simulator's group-commit gate, tests) flush them in ``max_txns`` chunks,
  awaited in order, with no timer and no shared batching state — so it can be
  stepped inline over a metered engine.
* :meth:`~GroupCommitter.commit` is the opportunistic path.  With a zero
  window a commit is a batch of one, flushed on the spot.  With a positive
  window the first commit opens a batch whose flush task waits on the event
  loop until the window elapses *or the batch fills*, and later commits join
  it; threads that commit through the node's sync facade rendezvous on the
  runtime's loop (:func:`repro.runtime.drive`).  The flush runs in its own
  task, so a member cancelled mid-commit (a client timeout) neither abandons
  the other members' durability nor cancels their wait.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro import runtime
from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.io_plan import IOPlan
from repro.observability import trace as tr
from repro.storage.base import StorageEngine


def execute_commit_plan(
    storage: StorageEngine,
    commit_store: CommitSetStore,
    data: Mapping[str, bytes],
    records: Mapping[str, bytes],
) -> None:
    """Sync facade: drive :func:`execute_commit_plan_async` to completion."""
    runtime.drive(execute_commit_plan_async(storage, commit_store, data, records), storage)


async def execute_commit_plan_async(
    storage: StorageEngine,
    commit_store: CommitSetStore,
    data: Mapping[str, bytes],
    records: Mapping[str, bytes],
) -> None:
    """Persist ``data`` then ``records`` with write ordering preserved (§3.3).

    The single place that encodes the invariant for the pipelined path —
    used by both the per-transaction commit and the group-commit flush.  When
    data and records share an engine, one two-stage plan carries the ordering
    in its stage barrier (no record op runs unless every data op of stage
    one succeeded); with a separate metadata engine the sequential
    awaits do.  Cancellation between the stages leaves data durable but no
    commit record — invisible garbage for the GC, never a fractured read.
    A remote engine ships the whole plan as one request
    (``RemoteStorage.execute_group_async``) and cannot recall it once it
    has sent it: the record then lands after its data regardless of the
    caller.
    """
    if commit_store.engine is storage:
        await storage.execute_plan_async(IOPlan.commit(data, records))
    else:
        if data:
            await storage.execute_plan_async(IOPlan.writes(data, name="data"))
        await commit_store.engine.execute_plan_async(IOPlan.writes(records, name="commit-records"))


@dataclass
class GroupCommitStats:
    """Counters maintained by the committer (all under its lock)."""

    flushes: int = 0
    transactions_flushed: int = 0
    largest_batch: int = 0


@dataclass
class PendingCommit:
    """One transaction's contribution to a group-commit batch.

    ``data`` maps storage keys to payloads still in need of persistence
    (already-spilled versions are excluded — their keys are referenced by the
    record but need no rewrite).  ``record`` is the commit record to persist
    after the whole batch's data is durable.
    """

    txid: str
    record: CommitRecord
    data: Mapping[str, bytes] = field(default_factory=dict)
    #: Signalled once the flush containing this commit completed (or failed).
    done: threading.Event = field(default_factory=threading.Event)
    error: BaseException | None = None
    #: Size of the flush batch this commit rode in (set by the flush).
    batch_size: int = 0
    #: Trace context captured at enqueue, so the flush span (which may run in
    #: its own task) can join a member's trace.
    trace: "tr.TraceContext | None" = None


class _OpenBatch:
    """One open windowed batch: its members and what its flush task signals."""

    __slots__ = ("members", "full", "flushed")

    def __init__(self) -> None:
        self.members: list[PendingCommit] = []
        #: Set when the batch reaches ``max_txns``: flush now, not at the timer.
        self.full = asyncio.Event()
        #: Resolved once the flush task persisted (or failed) every member.
        self.flushed: asyncio.Future[None] = asyncio.get_running_loop().create_future()


class GroupCommitter:
    """Coalesces concurrent commits on one node into shared storage batches.

    The open batch is only ever touched from the event loop its members run
    on, with no ``await`` between checking it and appending to it, so the
    batching itself needs no lock (all windowed commits of one node must
    arrive on one loop).  Stats take one: flushes run on whichever thread
    drives them.  Every member gets ``done`` / ``error`` / ``batch_size`` set
    on its :class:`PendingCommit` whichever path flushed it, so callers share
    their finalize logic.
    """

    def __init__(
        self,
        storage: StorageEngine,
        commit_store: CommitSetStore,
        window: float = 0.0,
        max_txns: int = 8,
        on_flush: Callable[[int], None] | None = None,
    ) -> None:
        if max_txns < 1:
            raise ValueError("group_commit_max_txns must be >= 1")
        self._storage = storage
        self._commit_store = commit_store
        self.window = float(window)
        self.max_txns = int(max_txns)
        #: Called after every flush with the batch size (used by the node to
        #: maintain its NodeStats counters under its own lock).
        self._on_flush = on_flush
        self._open: _OpenBatch | None = None
        #: Strong references to in-flight flush tasks (the event loop only
        #: keeps weak ones; an unreferenced task may be garbage collected).
        self._flush_tasks: set[asyncio.Task] = set()
        self._lock = threading.Lock()
        self.stats = GroupCommitStats()

    async def commit(self, pending: PendingCommit) -> PendingCommit:
        """Submit one commit; returns once its batch flushed (or raises)."""
        self._enqueue(pending)
        if self.window <= 0:
            await self._flush([pending])
        else:
            batch = self._open
            if batch is None:
                batch = self._open = _OpenBatch()
                task = asyncio.create_task(self._flush_when_due(batch))
                self._flush_tasks.add(task)
                task.add_done_callback(self._flush_tasks.discard)
            batch.members.append(pending)
            if len(batch.members) >= self.max_txns:
                # Sealed here, not by the flush task: the next arrival must
                # open a new batch even if it lands before that task runs.
                self._open = None
                batch.full.set()
            # Shielded: a cancelled member must not cancel the shared future.
            await asyncio.shield(batch.flushed)
        if pending.error is not None:
            raise pending.error
        return pending

    async def commit_batch(self, pendings: list[PendingCommit]) -> list[PendingCommit]:
        """Submit several commits at once, guaranteeing they share batches.

        Chunks flush in order; a failed chunk fails only its own members (the
        first error is raised after every chunk was attempted), so earlier
        and later chunks stay durably committed.
        """
        for pending in pendings:
            self._enqueue(pending)
        for start in range(0, len(pendings), self.max_txns):
            await self._flush(pendings[start : start + self.max_txns])
        for pending in pendings:
            if pending.error is not None:
                raise pending.error
        return pendings

    @staticmethod
    def _enqueue(pending: PendingCommit) -> None:
        if pending.trace is None:
            pending.trace = tr.current_context()
        tr.annotate("gc.enqueue", txid=pending.txid)

    async def _flush_when_due(self, batch: _OpenBatch) -> None:
        """Flush task of a windowed batch: wait for the window or a full batch."""
        try:
            await asyncio.wait_for(batch.full.wait(), timeout=self.window)
        except asyncio.TimeoutError:
            pass
        if self._open is batch:
            self._open = None
        try:
            await self._flush(batch.members)
        finally:
            batch.flushed.set_result(None)

    async def _flush(self, members: list[PendingCommit]) -> None:
        """Persist one batch with the combined two-stage commit plan.

        Errors are recorded on every member rather than raised; only
        cancellation (and other non-``Exception`` exits) propagates, so a
        cancelled ``commit_batch`` stops issuing further chunks.
        """
        try:
            data: dict[str, bytes] = {}
            records: dict[str, bytes] = {}
            for pending in members:
                # A fenced member poisons the whole batch: a combined plan
                # cannot be partially flushed, and a fenced node should not
                # be flushing at all — the error propagates to every member,
                # which retries on a live node.
                self._commit_store.check_record_fence(pending.record)
                data.update(pending.data)
                records[self._commit_store.record_storage_key(pending.record.txid)] = (
                    pending.record.to_bytes()
                )
            # A shared flush belongs to every member; the span joins the first
            # member's trace (the others keep causality via their enqueue).
            with tr.span(
                "gc.flush",
                txid=members[0].txid,
                parent=members[0].trace,
                n_txns=len(members),
                n_keys=len(data),
            ):
                await execute_commit_plan_async(self._storage, self._commit_store, data, records)
            with self._lock:
                self.stats.flushes += 1
                self.stats.transactions_flushed += len(members)
                self.stats.largest_batch = max(self.stats.largest_batch, len(members))
            if self._on_flush is not None:
                self._on_flush(len(members))
        except BaseException as exc:  # noqa: BLE001 - propagated per commit
            for pending in members:
                pending.error = exc
            if not isinstance(exc, Exception):
                raise
        finally:
            for pending in members:
                pending.batch_size = len(members)
                pending.done.set()
