"""The shared IO runtime: one driver for sync callers, one bounded executor.

Every protocol in this repo — Algorithm 1's read, the data-before-record
commit, spill, group commit, IO-plan execution — is written once, as a
coroutine.  Sync callers (the simulator, the in-process cluster's threads,
most unit tests) reach those coroutines through :func:`drive`, which picks how
to run one from what it can observe:

* over a **metered** engine (``wall_clock_io`` False: latency is sampled and
  charged, never waited for) the coroutine never suspends, so it is stepped to
  completion inline on the calling thread.  No loop exists, no thread is
  hopped, the caller's ``contextvars`` (the ``metered`` ledger, the ambient
  trace span) are simply in scope, and seeded latency sampling keeps its
  issue order.
* over a **wall-clock** engine the coroutine really waits, so it runs on an
  event loop: the loop the engine's connection lives on when it has one
  (:class:`~repro.rpc.storage_client.RemoteStorage`), otherwise the one loop
  thread this module owns.  The caller's context is copied into the task and
  the calling thread blocks for the result.

No plan waits on executor slots: a wall-clock plan fans its request groups
out as coroutines on the loop.  So any thread — an executor worker included
— can block on the loop for a sync caller without starving it.

The process-wide bounded executor this module also owns is for blocking
callables that are not engine ops: the fault manager's parallel per-shard
recovery replay (:func:`run_blocking_group`) and the router's storage
service over a wall-clock engine.  Work submitted to it is marked with a
thread-local flag; :func:`run_blocking_group` called *from* a worker
(:func:`in_io_worker`) runs inline instead — the classic nested-pool
deadlock (all workers blocked waiting for queue slots that only workers can
free) cannot occur.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Coroutine, Sequence

#: Default bound on concurrently executing storage requests.  Mirrors the
#: default of :attr:`repro.config.AftConfig.io_concurrency`.
DEFAULT_IO_CONCURRENCY = 16

_lock = threading.Lock()
_executor: ThreadPoolExecutor | None = None
_executor_size = DEFAULT_IO_CONCURRENCY
_loop: asyncio.AbstractEventLoop | None = None

_worker_state = threading.local()


def event_loop() -> asyncio.AbstractEventLoop:
    """Return the runtime-owned event loop (its thread starts on first use)."""
    global _loop
    with _lock:
        if _loop is None:
            _loop = asyncio.new_event_loop()
            threading.Thread(target=_loop.run_forever, name="aft-loop", daemon=True).start()
        return _loop


def drive(coro: Coroutine[Any, Any, Any], engine: Any = None, needs_loop: bool = False) -> Any:
    """Run ``coro`` to completion for a sync caller and return its result.

    ``engine`` is the storage engine the coroutine does its IO against
    (``None``: it does none).  ``needs_loop`` marks a coroutine that waits on
    a timer even over a metered engine (a windowed group commit).  See the
    module docstring for how the mode is picked.
    """
    if not needs_loop and (engine is None or not engine.wall_clock_io):
        try:
            coro.send(None)
        except StopIteration as stop:
            return stop.value
        coro.close()
        raise RuntimeError(
            "a coroutine driven inline suspended: metered engines must not await real IO"
        )
    loop = getattr(engine, "loop", None) or event_loop()
    try:
        running = asyncio.get_running_loop()
    except RuntimeError:
        running = None
    if running is loop:
        coro.close()
        raise RuntimeError(
            "sync facade called on the event loop it would block; "
            "await the *_async coroutine instead (or call from another thread)"
        )
    context = contextvars.copy_context()

    async def in_caller_context() -> Any:
        # The task runs in (a copy of) the sync caller's context, so the
        # ``metered`` ledger and the ambient span follow it onto the loop.
        return await loop.create_task(coro, context=context)

    return asyncio.run_coroutine_threadsafe(in_caller_context(), loop).result()


def io_executor() -> ThreadPoolExecutor:
    """Return the process-wide bounded IO executor (created on first use)."""
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=_executor_size, thread_name_prefix="aft-io"
            )
        return _executor


def io_executor_size() -> int:
    """Current worker bound of the shared executor."""
    return _executor_size


def configure_io_executor(max_workers: int) -> None:
    """Resize the shared executor (benchmarks sizing it to their client swarm).

    Safe to call at quiet points only: a live executor is shut down without
    waiting, so callers must not have work in flight.
    """
    global _executor, _executor_size
    if max_workers < 1:
        raise ValueError("io executor needs max_workers >= 1")
    with _lock:
        if max_workers == _executor_size and _executor is not None:
            return
        if _executor is not None:
            _executor.shutdown(wait=False)
            _executor = None
        _executor_size = int(max_workers)


def in_io_worker() -> bool:
    """True when the calling thread is one of the shared executor's workers."""
    return getattr(_worker_state, "active", False)


def run_marked(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` with the worker flag set (so nested dispatch stays inline)."""
    _worker_state.active = True
    try:
        return fn()
    finally:
        _worker_state.active = False


def marked(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap ``fn`` for executor dispatch: worker flag + context snapshot.

    ``ThreadPoolExecutor`` (and hence ``loop.run_in_executor``) does *not*
    carry :mod:`contextvars` into the worker thread, unlike asyncio tasks.
    Capturing a context snapshot at the dispatch site keeps context-local
    state — the observability plane's trace context, the storage ledger
    attachment — flowing across the thread hop, so a span opened around a
    sync plan execution still parents the work its groups do on workers.
    """
    ctx = contextvars.copy_context()
    return lambda: ctx.run(run_marked, fn)


def submit_io(fn: Callable[[], Any]) -> Future:
    """Submit one blocking callable to the shared executor."""
    return io_executor().submit(marked(fn))


def run_blocking_group(
    fns: Sequence[Callable[[], Any]], concurrency: int | None = None
) -> list[Any]:
    """Run blocking callables concurrently on the shared executor.

    Results are returned in submission order.  At most ``concurrency``
    callables are in flight at once (default: the executor's own bound);
    the first exception is re-raised after the in-flight wave drains.  When
    called *from* an executor worker the callables run inline sequentially —
    see the module docstring on re-entrancy.
    """
    fns = list(fns)
    if len(fns) <= 1 or in_io_worker():
        return [fn() for fn in fns]
    limit = concurrency if concurrency is not None else _executor_size
    limit = max(1, int(limit))
    results: list[Any] = [None] * len(fns)
    for start in range(0, len(fns), limit):
        wave = {submit_io(fn): start + offset for offset, fn in enumerate(fns[start : start + limit])}
        for future, index in wave.items():
            results[index] = future.result()
    return results
