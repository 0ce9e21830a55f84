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
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Coroutine, Iterable, Iterator, Mapping

from repro import runtime
from repro.clock import Clock, SystemClock
from repro.errors import StorageError
from repro.observability import trace as tr
from repro.storage.latency import LatencyModel, ZeroLatency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports storage)
    from repro.core.io_plan import IOPlan, IOStage, PlanResult

#: Process-wide unique ids for plan stages, so that entries merged from
#: different ledgers never collapse into one stage by accident.
_stage_ids = itertools.count(1)

#: One request handed to :meth:`StorageEngine.fan_out`: a thunk returning the
#: coroutine that issues it (a thunk, so a request that is never issued is
#: never created and left un-awaited).
_Request = Callable[[], Coroutine[Any, Any, Any]]


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

    The unit of an op group (:meth:`StorageEngine.execute_group_async`):
    one batched or point storage request, described as data, so an IO plan
    runs the same way in process and over the wire — a remote engine ships
    the whole group in one frame.  ``op`` is one of ``get`` / ``multi_get``
    / ``put`` / ``multi_put`` / ``delete`` / ``multi_delete`` / ``list``;
    ``items`` carries the values for writes (keyed exactly by ``keys``);
    ``prefix`` is only meaningful for ``list``.  :meth:`StorageEngine.apply_op`
    is the one dispatcher that applies it.

    ``after`` lists the indexes of earlier ops *in the same group* that must
    all succeed before this op is applied: an IO-plan stage barrier carried
    as data.  :func:`run_op_group` runs a group in dependency waves, so the
    stages apply in order and an op whose prerequisite failed never runs.
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


def dependency_waves(ops: list[StorageOp]) -> list[list[int]]:
    """Op indexes grouped by ``after`` depth: wave ``k`` depends only on
    waves before it.  A link must name an earlier op of the group; a group
    with any other link is refused whole."""
    depth: list[int] = []
    for index, op in enumerate(ops):
        if not all(0 <= dep < index for dep in op.after):
            raise StorageError(f"storage op {index} links to {list(op.after)}, not to earlier ops")
        depth.append(1 + max((depth[dep] for dep in op.after), default=-1))
    waves: list[list[int]] = [[] for _ in range(max(depth, default=-1) + 1)]
    for index, level in enumerate(depth):
        waves[level].append(index)
    return waves


async def run_op_group(
    ops: list[StorageOp],
    apply: Callable[[StorageOp], Awaitable[StorageOpResult]],
    fan_out: Callable[[list[_Request]], Awaitable[list[Any]]],
) -> list[StorageOpResult]:
    """Run an op group in dependency waves; one result per op, in order.

    The one wave executor, shared by every engine's
    :meth:`StorageEngine.execute_group_async` and the router's storage
    service.  Each wave (:func:`dependency_waves`) is issued through
    ``fan_out`` and finishes before the next starts.  ``apply`` must return
    errors as data, never raise.

    The failure rule: the ops of one wave are independent, so a failed op
    does not stop the other ops of its wave; an op whose prerequisite
    failed is never applied and gets an error result instead — so no op
    ``after`` a failed one ever runs.
    """
    results: list[StorageOpResult | None] = [None] * len(ops)
    for wave in dependency_waves(ops):
        ready = []
        for index in wave:
            if any(results[dep].error is not None for dep in ops[index].after):
                results[index] = StorageOpResult(
                    error=StorageError(f"storage op {index} skipped: a prerequisite failed")
                )
            else:
                ready.append(index)
        landed = await fan_out([functools.partial(apply, ops[index]) for index in ready])
        for index, result in zip(ready, landed):
            results[index] = result
    return results


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
    #: never suspend, the ops of a wave are awaited in order, and sync
    #: callers step them inline.  Wall-clock engines get the gathered
    #: :meth:`fan_out` and have their sync callers driven on an event loop
    #: (:func:`repro.runtime.drive`).
    wall_clock_io: bool = False
    #: Per-engine bound on concurrently issued requests within one wave of
    #: an op group.  ``None`` falls back to the shared runtime default;
    #: nodes set it from :attr:`repro.config.AftConfig.io_concurrency`.
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
        #: a wave's ops as coroutines *on one loop thread* — asyncio
        #: tasks copy the context at creation, so each op's ledger stays
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
    # Op groups: the one way storage work is executed
    # ------------------------------------------------------------------ #
    async def apply_op(self, op: StorageOp) -> StorageOpResult:
        """Apply one :class:`StorageOp` to this engine; never raises.

        The one ``StorageOp`` dispatcher: an in-process op group and every
        op of a router frame land here.  A failed op comes back as its
        result's ``error``, so a caller fails exactly the waiter whose op
        failed.
        """
        try:
            kind = op.op
            if kind == "get":
                key = op.keys[0]
                return StorageOpResult(values={key: await self.get_async(key)})
            if kind == "multi_get":
                return StorageOpResult(values=await self.multi_get_async(list(op.keys)))
            if kind == "put":
                for key, value in (op.items or {}).items():
                    await self.put_async(key, value)
            elif kind == "multi_put":
                await self.multi_put_async(op.items or {})
            elif kind == "delete":
                for key in op.keys:
                    await self.delete_async(key)
            elif kind == "multi_delete":
                await self.multi_delete_async(list(op.keys))
            elif kind == "list":
                return StorageOpResult(keys=await self.list_keys_async(prefix=op.prefix))
            else:
                raise StorageError(f"unknown storage op {kind!r}")
            return StorageOpResult()
        except Exception as exc:
            return StorageOpResult(error=exc)

    async def execute_group_async(self, ops: list[StorageOp]) -> list[StorageOpResult]:
        """Execute an op group in dependency waves; one result per op, in order.

        :func:`run_op_group` over :meth:`apply_op`, each wave issued through
        :meth:`fan_out`, inside the caller's task: a caller cancelled
        mid-wave never gets a later wave issued.  Errors come back per op,
        never raised (see :func:`run_op_group` for the failure rule).

        Each op runs under its own ledger, so the charge accounting does not
        depend on how the wave's ops interleave; each wave's ledgers merge
        into the attached ledger as one plan stage, in op order — also when
        the caller is cancelled, so the charges of ops that ran are kept.
        """
        outer = self._ledger
        if outer is None:
            return await run_op_group(ops, self.apply_op, self.fan_out)

        async def metered_wave(requests: list[_Request]) -> list[Any]:
            stage_id = next(_stage_ids)
            ledgers = [CostLedger() for _ in requests]
            for ledger in ledgers:
                ledger._current_stage = stage_id
            try:
                return await self.fan_out(
                    [
                        functools.partial(self._run_metered, request, ledger)
                        for request, ledger in zip(requests, ledgers)
                    ]
                )
            finally:
                for ledger in ledgers:
                    outer.merge(ledger)

        return await run_op_group(ops, self.apply_op, metered_wave)

    async def _run_metered(self, request: _Request, ledger: CostLedger) -> Any:
        # ``fan_out`` wraps each request in a task over a wall-clock engine,
        # and tasks copy the context, so each ``metered`` attachment (a
        # ContextVar) stays its own.
        with self.metered(ledger):
            return await request()

    def _stage_ops(self, stage: "IOStage", after: tuple[int, ...]) -> list[StorageOp]:
        """One stage as ops, one per storage request, each linked ``after``.

        The engine's capability hooks (:meth:`_plan_put_groups` /
        :meth:`_plan_get_groups`) partition the stage into requests: native
        batches where the engine has them, one point op per key otherwise.
        """
        ops: list[StorageOp] = []
        for items in self._plan_put_groups(stage.puts):
            kind = "multi_put" if len(items) > 1 else "put"
            ops.append(StorageOp(op=kind, keys=tuple(items), items=items, after=after))
        for keys in self._plan_get_groups(stage.gets):
            kind = "multi_get" if len(keys) > 1 else "get"
            ops.append(StorageOp(op=kind, keys=tuple(keys), after=after))
        if stage.deletes:
            ops.append(StorageOp(op="multi_delete", keys=tuple(stage.deletes), after=after))
        return ops

    # ------------------------------------------------------------------ #
    # IO-plan execution (the batched parallel-IO pipeline)
    # ------------------------------------------------------------------ #
    @property
    def effective_io_concurrency(self) -> int:
        """Per-wave request concurrency bound actually in effect."""
        if self.io_concurrency is not None:
            return max(1, self.io_concurrency)
        return runtime.DEFAULT_IO_CONCURRENCY

    def execute_plan(self, plan: "IOPlan") -> "PlanResult":
        """Sync facade: drive :meth:`execute_plan_async` to completion."""
        return runtime.drive(self.execute_plan_async(plan), self)

    async def execute_plan_async(self, plan: "IOPlan") -> "PlanResult":
        """Execute an :class:`~repro.core.io_plan.IOPlan` as one op group.

        Each stage becomes ops (:meth:`_stage_ops`), each op of stage ``k``
        ``after`` every op of the last non-empty stage before it, and the
        group runs through :meth:`execute_group_async`.  So the stages apply
        in order, and no op of a stage is applied unless the whole previous
        stage succeeded — which is how the commit plan keeps the paper's
        data-before-commit-record write order (Section 3.3).  Over a remote
        engine the group is one wire frame, and the storage service it
        lands on keeps that order.

        A metered engine charges each stage as one plan stage on the
        attached :class:`CostLedger` (``pipelined_latency`` charges the max
        within a stage plus the sum across stages), and its ops never
        suspend, so they run one after another in op order and the seeded
        latency sampling keeps its order.  On failure the lowest-indexed
        error is raised: an op skipped for a failed prerequisite names one
        with a lower index.
        """
        from repro.core.io_plan import PlanResult

        result = PlanResult()
        # One span per plan (not per stage): stage names ride along as an
        # attribute so IO-plan structure stays visible in traces without
        # paying span cost per barrier on the hot path.
        with tr.span(
            "io.plan",
            stages=",".join(s.name for s in plan.stages),
            n_ops=plan.operation_count,
        ):
            ops: list[StorageOp] = []
            after: tuple[int, ...] = ()
            for stage in plan.stages:
                start = len(ops)
                ops.extend(self._stage_ops(stage, after))
                if len(ops) > start:
                    after = tuple(range(start, len(ops)))
            op_results = await self.execute_group_async(ops) if ops else []
            for op_result in op_results:
                if op_result.error is not None:
                    raise op_result.error
                if op_result.values:
                    result.values.update(op_result.values)
        self._record_plan_stats(plan)
        return result

    async def fan_out(self, requests: list[_Request]) -> list[Any]:
        """Issue independent requests the way this engine runs them; results in order.

        Over a ``wall_clock_io`` engine they are gathered on the event loop,
        at most :attr:`effective_io_concurrency` in flight at once;
        otherwise each is awaited in turn: a metered engine's ops never
        suspend, so concurrency would buy nothing and would scramble the
        seeded sampling order the experiment medians depend on.
        """
        if not self.wall_clock_io:
            return [await request() for request in requests]
        limit = asyncio.Semaphore(self.effective_io_concurrency)

        async def bounded(request: _Request) -> Any:
            async with limit:
                return await request()

        return list(await asyncio.gather(*(bounded(request) for request in requests)))

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

    def __repr__(self) -> str:
        # No key count: counting lists every key, which is IO on a remote
        # engine (and raises on the loop a sync facade would block).
        return f"<{type(self).__name__} name={self.name!r}>"
