"""Storage engine interface and latency metering.

The shim (``repro.core``) only talks to storage through the
:class:`StorageEngine` interface defined here.  The interface is deliberately
small — the paper's only requirement on the backend is that acknowledged
writes are durable — but rich enough to express the behaviours the evaluation
depends on: point reads/writes, optional batching, deletes for garbage
collection, and prefix listing for commit-set scans and node bootstrap.

Latency is *metered*, not slept: each operation samples a cost from the
engine's :class:`~repro.storage.latency.LatencyModel` and records it on the
currently attached :class:`CostLedger`.  The discrete-event simulator converts
accrued cost into simulated time; unit tests simply ignore it.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Iterable, Iterator, Mapping

from repro import runtime
from repro.clock import Clock, SystemClock
from repro.observability import trace as tr
from repro.storage.latency import LatencyModel, ZeroLatency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports storage)
    from repro.core.io_plan import IOPlan, IOStage, PlanResult

#: Process-wide unique ids for plan stages, so that entries merged from
#: different ledgers never collapse into one stage by accident.
_stage_ids = itertools.count(1)

#: One request group of a plan stage: a thunk returning the coroutine that
#: issues it (a thunk, so a group skipped after an earlier failure is never
#: created and left un-awaited).
_Group = Callable[[], Coroutine[Any, Any, "dict[str, bytes | None] | None"]]


@dataclass
class CostEntry:
    """One metered storage operation.

    ``stage`` groups entries that were issued concurrently as part of one
    :class:`~repro.core.io_plan.IOPlan` stage; ``None`` marks a plain
    sequential operation.
    """

    op: str
    n_items: int
    total_bytes: int
    latency: float
    stage: int | None = None


class CostLedger:
    """Accumulates the simulated latency of storage operations.

    A ledger is attached to an engine (via :meth:`StorageEngine.metered`)
    for the duration of one logical step — e.g. one AFT API call — and then
    inspected by the caller.  ``sequential_latency`` models a client that
    issues the operations one after another; ``parallel_latency`` models
    issuing them all concurrently and waiting for the slowest;
    ``pipelined_latency`` models the IO-plan pipeline: operations within one
    plan stage run concurrently, stages (and un-staged operations) run
    sequentially.
    """

    def __init__(self) -> None:
        self.entries: list[CostEntry] = []
        self._current_stage: int | None = None

    def add(self, op: str, n_items: int, total_bytes: int, latency: float) -> None:
        self.entries.append(
            CostEntry(
                op=op,
                n_items=n_items,
                total_bytes=total_bytes,
                latency=latency,
                stage=self._current_stage,
            )
        )

    @contextmanager
    def stage(self) -> Iterator[int]:
        """Tag every operation recorded inside the block as one parallel stage."""
        previous = self._current_stage
        stage_id = next(_stage_ids)
        self._current_stage = stage_id
        try:
            yield stage_id
        finally:
            self._current_stage = previous

    @property
    def sequential_latency(self) -> float:
        """Total latency assuming operations were issued back-to-back."""
        return sum(entry.latency for entry in self.entries)

    @property
    def parallel_latency(self) -> float:
        """Latency assuming all operations were issued concurrently."""
        return max((entry.latency for entry in self.entries), default=0.0)

    @property
    def pipelined_latency(self) -> float:
        """Latency under the IO pipeline: max within a stage, sum across stages.

        Entries without a stage tag (plain point operations) are charged
        sequentially, exactly as before the pipeline existed — so for a
        ledger with no staged entries this equals ``sequential_latency``.
        """
        total = 0.0
        stage_max: dict[int, float] = {}
        for entry in self.entries:
            if entry.stage is None:
                total += entry.latency
            else:
                stage_max[entry.stage] = max(stage_max.get(entry.stage, 0.0), entry.latency)
        return total + sum(stage_max.values())

    @property
    def plan_stage_count(self) -> int:
        """Number of distinct plan stages recorded on this ledger."""
        return len({entry.stage for entry in self.entries if entry.stage is not None})

    @property
    def operation_count(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    def merge(self, other: "CostLedger") -> None:
        """Append all entries from ``other`` (stage tags are preserved)."""
        self.entries.extend(other.entries)


@dataclass
class StorageStats:
    """Aggregate operation counters maintained by every engine."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    lists: int = 0
    batch_writes: int = 0
    batch_reads: int = 0
    items_written: int = 0
    items_read: int = 0
    items_deleted: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the counters."""
        data = {
            "reads": self.reads,
            "writes": self.writes,
            "deletes": self.deletes,
            "lists": self.lists,
            "batch_writes": self.batch_writes,
            "batch_reads": self.batch_reads,
            "items_written": self.items_written,
            "items_read": self.items_read,
            "items_deleted": self.items_deleted,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }
        data.update(self.extra)
        return data


@dataclass(frozen=True)
class StorageOp:
    """One storage operation in engine-neutral descriptor form.

    The unit of :meth:`StorageEngine.execute_group_async`: a request group
    (one batched or point request) described as data rather than as a bound
    thunk, so engines that talk to a *remote* storage service can ship a
    whole group of ops over the wire in one frame instead of one round trip
    per op.  ``op`` is one of ``get`` / ``multi_get`` / ``put`` /
    ``multi_put`` / ``delete`` / ``multi_delete`` / ``list``; ``items``
    carries the values for writes (keyed exactly by ``keys``); ``prefix`` is
    only meaningful for ``list``.

    ``after`` lists the indexes of earlier ops *in the same group* that must
    all succeed before this op is applied: an IO-plan stage barrier carried
    as data, so a group can hold several stages and the executor still
    applies them in order (and never applies an op whose prerequisite
    failed).
    """

    op: str
    keys: tuple[str, ...] = ()
    items: Mapping[str, bytes] | None = None
    prefix: str = ""
    after: tuple[int, ...] = ()


@dataclass
class StorageOpResult:
    """Outcome of one :class:`StorageOp` — values, a listing, or an error.

    Per-op errors travel as data so one failed op in a batch fails only its
    own waiter (e.g. a fenced commit-record write) instead of the whole
    group.
    """

    values: dict[str, bytes | None] | None = None
    keys: list[str] | None = None
    error: Exception | None = None


class StorageEngine(ABC):
    """Abstract durable key-value store.

    An engine implements each operation once, as a coroutine: the four
    abstract ``get_async`` / ``put_async`` / ``delete_async`` /
    ``list_keys_async``, plus the ``multi_*_async`` batches when it has
    native ones.  The sync names are facades that only drive those
    coroutines (:func:`repro.runtime.drive`).

    Values are opaque ``bytes``.  ``get`` returns ``None`` for missing keys
    (cloud object stores behave this way and the shim treats absence as an
    expected condition, e.g. when racing the garbage collector).
    """

    #: Human-readable engine name used in experiment reports.
    name: str = "abstract"
    #: Whether the engine can persist several keys in a single request.
    supports_batch_writes: bool = False
    #: Maximum number of items per batched request (None = unlimited).
    max_batch_size: int | None = None
    #: Whether the engine can fetch several keys in a single request.
    supports_batch_reads: bool = False
    #: Maximum number of items per batched read (None = unlimited).
    max_batch_get_size: int | None = None
    #: Whether the engine's operations wait for *real* wall-clock time
    #: (network sockets, injected sleeps).  The simulated engines meter their
    #: latency instead of waiting, so they leave this False: their coroutines
    #: never suspend, plan groups are awaited in order, and sync callers step
    #: them inline.  Wall-clock engines get the gathered fan-out of
    #: ``execute_plan_async`` and have their sync callers driven on an event
    #: loop (:func:`repro.runtime.drive`).
    wall_clock_io: bool = False
    #: Whether the engine executes a whole request *group* as one unit when
    #: handed a list of :class:`StorageOp` descriptors
    #: (:meth:`execute_group_async`).  Remote engines remap the group onto a
    #: single ``storage_batch`` wire frame; for everything else this flag
    #: stays False.
    supports_storage_batches: bool = False
    #: Per-engine bound on concurrently issued request groups within one plan
    #: stage.  ``None`` falls back to the shared runtime default; nodes set it
    #: from :attr:`repro.config.AftConfig.io_concurrency`.
    io_concurrency: int | None = None
    #: Event loop the engine's connections are bound to.  ``None`` (every
    #: engine without sockets of its own) lets :func:`repro.runtime.drive`
    #: run sync callers' coroutines on the runtime-owned loop.
    loop: asyncio.AbstractEventLoop | None = None

    def __init__(self, latency_model: LatencyModel | None = None, clock: Clock | None = None) -> None:
        self.latency_model = latency_model if latency_model is not None else ZeroLatency()
        self.clock = clock if clock is not None else SystemClock()
        self.stats = StorageStats()
        #: Ledger attachment is context-local (``contextvars``): concurrent
        #: committers each meter their own operations without cross-wiring
        #: each other's cost accounting.  A ContextVar rather than
        #: ``threading.local`` because the wall-clock plan path interleaves
        #: many request groups as coroutines *on one loop thread* — asyncio
        #: tasks copy the context at creation, so each group's ledger stays
        #: isolated; plain threads keep their per-thread contexts, preserving
        #: the old thread-local semantics exactly.
        self._ledger_slot: contextvars.ContextVar[CostLedger | None] = contextvars.ContextVar(
            f"repro-ledger-{id(self)}", default=None
        )
        self._lock = threading.RLock()

    @property
    def _ledger(self) -> CostLedger | None:
        return self._ledger_slot.get()

    @_ledger.setter
    def _ledger(self, ledger: CostLedger | None) -> None:
        self._ledger_slot.set(ledger)

    # ------------------------------------------------------------------ #
    # Latency metering
    # ------------------------------------------------------------------ #
    @contextmanager
    def metered(self, ledger: CostLedger) -> Iterator[CostLedger]:
        """Attach ``ledger`` to the calling context for the ``with`` block.

        Every op awaited inside the block charges ``ledger`` — also when a
        sync facade drives it on an event loop, since :func:`repro.runtime.drive`
        runs the coroutine in a copy of the caller's context.  Nested
        attachments are not supported; the innermost ledger wins and is
        restored on exit.  Operations issued by other threads or tasks are
        unaffected.
        """
        previous = self._ledger
        self._ledger = ledger
        try:
            yield ledger
        finally:
            self._ledger = previous

    def _charge(self, op: str, n_items: int = 1, total_bytes: int = 0) -> float:
        """Sample a latency for ``op`` and record it on the attached ledger."""
        latency = self.latency_model.sample(op, n_items=n_items, total_bytes=total_bytes)
        if self._ledger is not None:
            self._ledger.add(op, n_items, total_bytes, latency)
        return latency

    # ------------------------------------------------------------------ #
    # The op contract: every engine implements each op once, as a coroutine
    # ------------------------------------------------------------------ #
    @abstractmethod
    async def get_async(self, key: str) -> bytes | None:
        """Return the value stored under ``key`` or ``None`` if absent."""

    @abstractmethod
    async def put_async(self, key: str, value: bytes) -> None:
        """Durably store ``value`` under ``key`` (overwriting any prior value)."""

    @abstractmethod
    async def delete_async(self, key: str) -> None:
        """Remove ``key``; deleting a missing key is a no-op."""

    @abstractmethod
    async def list_keys_async(self, prefix: str = "") -> list[str]:
        """Return all keys starting with ``prefix`` in lexicographic order."""

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        """Fetch several keys.  The default implementation issues point reads."""
        return {key: await self.get_async(key) for key in keys}

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        """Store several keys.  The default implementation issues point writes."""
        for key, value in items.items():
            await self.put_async(key, value)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        """Delete several keys.  The default implementation issues point deletes."""
        for key in keys:
            await self.delete_async(key)

    # ------------------------------------------------------------------ #
    # Sync facades: each only drives its coroutine (repro.runtime.drive)
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> bytes | None:
        return runtime.drive(self.get_async(key), self)

    def put(self, key: str, value: bytes) -> None:
        runtime.drive(self.put_async(key, value), self)

    def delete(self, key: str) -> None:
        runtime.drive(self.delete_async(key), self)

    def list_keys(self, prefix: str = "") -> list[str]:
        return runtime.drive(self.list_keys_async(prefix), self)

    def multi_get(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        return runtime.drive(self.multi_get_async(keys), self)

    def multi_put(self, items: Mapping[str, bytes]) -> None:
        runtime.drive(self.multi_put_async(items), self)

    def multi_delete(self, keys: Iterable[str]) -> None:
        runtime.drive(self.multi_delete_async(keys), self)

    # ------------------------------------------------------------------ #
    # Storage-op groups (descriptor form of a plan stage)
    # ------------------------------------------------------------------ #
    async def execute_group_async(self, ops: list[StorageOp]) -> list[StorageOpResult]:
        """Execute a group of ops as one request, one result per op, in order.

        Only engines declaring ``supports_storage_batches`` implement this
        (everything else has its plan stages issued group by group, see
        :meth:`execute_plan_async`).  An op is applied only after every op
        its ``after`` names succeeded; one whose prerequisite failed is never
        applied and comes back with an error.  Exceptions are captured per
        op, never raised, so callers can fail exactly the waiter whose op
        failed.
        """
        raise NotImplementedError(f"{type(self).__name__} does not execute storage-op groups")

    def _stage_ops(self, stage: "IOStage", after: tuple[int, ...]) -> list[StorageOp]:
        """Descriptor form of :meth:`_stage_groups`: one ``StorageOp`` per group."""
        ops: list[StorageOp] = []
        for group in self._plan_put_groups(stage.puts):
            keys = tuple(group)
            ops.append(
                StorageOp(
                    op="multi_put" if len(keys) > 1 else "put",
                    keys=keys,
                    items=dict(group),
                    after=after,
                )
            )
        for key_group in self._plan_get_groups(stage.gets):
            ops.append(
                StorageOp(
                    op="multi_get" if len(key_group) > 1 else "get",
                    keys=tuple(key_group),
                    after=after,
                )
            )
        if stage.deletes:
            ops.append(StorageOp(op="multi_delete", keys=tuple(stage.deletes), after=after))
        return ops

    async def _execute_plan_as_group(
        self, plan: "IOPlan"
    ) -> list[list[tuple[dict[str, bytes | None] | None, CostLedger]]]:
        """Run a whole plan as one :meth:`execute_group_async` call.

        For a remote engine that is one wire frame for the whole plan.  The
        stage barriers travel with it: each op of stage ``k`` is ``after``
        every op of the last non-empty stage before it, so the executor
        applies the stages in order and never applies one whose predecessor
        failed.  Returns per-stage outcomes in :meth:`_collect_stage`'s shape.
        """
        ops: list[StorageOp] = []
        bounds: list[tuple[int, int]] = []
        after: tuple[int, ...] = ()
        for stage in plan.stages:
            start = len(ops)
            ops.extend(self._stage_ops(stage, after))
            bounds.append((start, len(ops)))
            if len(ops) > start:
                after = tuple(range(start, len(ops)))
        if not ops:
            return [[] for _ in bounds]
        ledger = CostLedger()
        with self.metered(ledger):
            results = await self.execute_group_async(ops)
        # The lowest-indexed failure is a root cause: an op failed for a
        # prerequisite names one with a lower index.
        for op_result in results:
            if op_result.error is not None:
                raise op_result.error
        # Every op succeeded, and the engine charged each one once, in op
        # order: hand each stage its own entries under its own stage tag.
        entries = iter(ledger.entries)
        outcomes: list[list[tuple[dict[str, bytes | None] | None, CostLedger]]] = []
        for start, end in bounds:
            stage_ledger = CostLedger()
            stage_id = next(_stage_ids)
            for entry in itertools.islice(entries, end - start):
                entry.stage = stage_id
                stage_ledger.entries.append(entry)
            values: dict[str, bytes | None] = {}
            for op_result in results[start:end]:
                if op_result.values:
                    values.update(op_result.values)
            outcomes.append([(values or None, stage_ledger)])
        return outcomes

    # ------------------------------------------------------------------ #
    # IO-plan execution (the batched parallel-IO pipeline)
    # ------------------------------------------------------------------ #
    @property
    def effective_io_concurrency(self) -> int:
        """Per-stage request-group concurrency bound actually in effect."""
        if self.io_concurrency is not None:
            return max(1, self.io_concurrency)
        return runtime.DEFAULT_IO_CONCURRENCY

    def execute_plan(self, plan: "IOPlan") -> "PlanResult":
        """Sync facade: drive :meth:`execute_plan_async` to completion."""
        return runtime.drive(self.execute_plan_async(plan), self)

    async def execute_plan_async(self, plan: "IOPlan") -> "PlanResult":
        """Execute an :class:`~repro.core.io_plan.IOPlan` against this engine.

        Each stage's operations are partitioned into *request groups* by the
        engine's capability hooks (:meth:`_plan_put_groups` /
        :meth:`_plan_get_groups`): a group is one storage request, i.e. one
        awaited ``*_async`` op.  How a stage's groups are *issued* follows
        from what the engine declares:

        * ``supports_storage_batches``: the whole plan ships as one op group
          (:meth:`execute_group_async`), each stage's ops ``after`` the
          previous stage's, so the engine (for a remote engine, the storage
          service the frame lands on) keeps the stages in order.
        * ``wall_clock_io``: the group coroutines are gathered on the event
          loop, at most :attr:`effective_io_concurrency` in flight at once.
        * otherwise (metered engines, the simulated backends): the group
          coroutines are awaited one after another.  They never suspend —
          latency is sampled from seeded models, not waited for — so
          concurrency would buy nothing and would scramble the deterministic
          sampling order the experiment medians depend on.  The *charged*
          concurrency is the same either way: every operation lands on the
          attached :class:`CostLedger` tagged with its stage, and
          ``ledger.pipelined_latency`` charges the max latency within a
          stage plus the sum across stages.

        Stages are barriers in every mode — no group of stage ``i+1`` is
        applied until every group of stage ``i`` succeeded — which is how
        the commit plan preserves the paper's data-before-commit-record write
        ordering (Section 3.3).  In the per-stage modes a later stage is only
        issued after the earlier one returned, so a caller cancelled
        mid-stage never gets a later stage issued on its behalf.  A grouped
        plan has left once it is submitted: cancelling the caller no longer
        recalls its later stages, which still land in order (a commit record
        still lands only after its data).
        """
        from repro.core.io_plan import PlanResult

        outer = self._ledger
        inner = CostLedger()
        result = PlanResult()
        try:
            # One span per plan (not per stage): stage names ride along as an
            # attribute so IO-plan structure stays visible in traces without
            # paying span cost per barrier on the hot path.
            with tr.span(
                "io.plan",
                stages=",".join(s.name for s in plan.stages),
                n_ops=plan.operation_count,
            ):
                if self.supports_storage_batches:
                    for outcomes in await self._execute_plan_as_group(plan):
                        self._collect_stage(outcomes, inner, result)
                else:
                    for stage in plan.stages:
                        stage_id = next(_stage_ids)
                        groups = self._stage_groups(stage)
                        outcomes = await self.fan_out(
                            [functools.partial(self._run_group, group, stage_id) for group in groups]
                        )
                        self._collect_stage(outcomes, inner, result)
        finally:
            # Surface the charges of completed groups even when cancelled
            # mid-plan, so callers can still account for the work that ran.
            if outer is not None:
                outer.merge(inner)
        self._record_plan_stats(plan)
        return result

    async def fan_out(self, requests: list[Callable[[], Coroutine[Any, Any, Any]]]) -> list[Any]:
        """Issue independent requests the way this engine runs them; results in order.

        Over a ``wall_clock_io`` engine they are gathered on the event loop,
        at most :attr:`effective_io_concurrency` in flight at once; otherwise
        each is awaited in turn (see :meth:`execute_plan_async` for why).
        """
        if not self.wall_clock_io:
            return [await request() for request in requests]
        limit = asyncio.Semaphore(self.effective_io_concurrency)

        async def bounded(request: Callable[[], Coroutine[Any, Any, Any]]) -> Any:
            async with limit:
                return await request()

        return list(await asyncio.gather(*(bounded(request) for request in requests)))

    async def _run_group(
        self, group: _Group, stage_id: int
    ) -> tuple[dict[str, bytes | None] | None, CostLedger]:
        """Issue one request group under its own stage-tagged ledger.

        The per-group ledger keeps the charge accounting order-agnostic: the
        plan executor merges the group ledgers back in group order, so the
        merged entry sequence is the same whether the groups ran one after
        another or interleaved.  ``asyncio.gather`` wraps each group in a
        task, and tasks copy the context at creation, so each group's
        ``metered`` attachment (a ContextVar) stays its own.
        """
        ledger = CostLedger()
        ledger._current_stage = stage_id
        with self.metered(ledger):
            values = await group()
        return values, ledger

    def _stage_groups(self, stage: "IOStage") -> list[_Group]:
        """Partition one stage into request groups (one storage request each)."""
        groups: list[_Group] = []
        for items in self._plan_put_groups(stage.puts):
            groups.append(lambda g=items: self._put_group(g))
        for keys in self._plan_get_groups(stage.gets):
            groups.append(lambda ks=keys: self._get_group(ks))
        deletes = stage.deletes
        if deletes:
            groups.append(lambda ks=deletes: self.multi_delete_async(ks))
        return groups

    async def _put_group(self, group: Mapping[str, bytes]) -> None:
        """Issue one put request (a native batch, or a point write)."""
        if len(group) > 1:
            await self.multi_put_async(group)
        else:
            for key, value in group.items():
                await self.put_async(key, value)

    async def _get_group(self, keys: list[str]) -> dict[str, bytes | None]:
        """Issue one get request (a native batch, or a point read)."""
        if len(keys) > 1:
            return await self.multi_get_async(keys)
        return {keys[0]: await self.get_async(keys[0])}

    def _collect_stage(
        self,
        outcomes: list[tuple[dict[str, bytes | None] | None, CostLedger]],
        inner: CostLedger,
        result: "PlanResult",
    ) -> None:
        """Merge one stage's group outcomes into the plan ledger and result."""
        stage_latency = 0.0
        stage_requests = 0
        for values, ledger in outcomes:
            if values:
                result.values.update(values)
            inner.merge(ledger)
            stage_requests += len(ledger.entries)
            stage_latency = max(
                stage_latency, max((entry.latency for entry in ledger.entries), default=0.0)
            )
        result.stage_latencies.append(stage_latency)
        result.requests_issued += stage_requests

    def _record_plan_stats(self, plan: "IOPlan") -> None:
        with self._lock:
            self.stats.extra["plans_executed"] = self.stats.extra.get("plans_executed", 0) + 1
            self.stats.extra["plan_stages"] = self.stats.extra.get("plan_stages", 0) + len(
                plan.stages
            )

    def _plan_put_groups(self, items: Mapping[str, bytes]) -> list[dict[str, bytes]]:
        """Partition a stage's puts into concurrent requests.

        Engines with native batching produce ``max_batch_size``-item chunks;
        everything else falls back to one request per key (the fan-out the
        paper describes for S3's per-object PUTs).
        """
        if not items:
            return []
        if self.supports_batch_writes:
            limit = self.max_batch_size or len(items)
            pairs = list(items.items())
            return [dict(pairs[start : start + limit]) for start in range(0, len(pairs), limit)]
        return [{key: value} for key, value in items.items()]

    def _plan_get_groups(self, keys: list[str]) -> list[list[str]]:
        """Partition a stage's gets into concurrent requests."""
        if not keys:
            return []
        if self.supports_batch_reads:
            limit = self.max_batch_get_size or len(keys)
            return [keys[start : start + limit] for start in range(0, len(keys), limit)]
        return [[key] for key in keys]

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        """Return True if ``key`` currently has a value."""
        return self.get(key) is not None

    def size(self) -> int:
        """Number of keys currently stored (for tests and GC accounting)."""
        return len(self.list_keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} keys={self.size()}>"
