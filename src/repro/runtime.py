"""The shared IO runtime: one driver that runs a coroutine for a sync caller.

Every protocol in this repo — Algorithm 1's read, the data-before-record
commit, spill, group commit, IO-plan execution, the router's storage service,
recovery replay, node bootstrap — is written once, as a coroutine.  Sync
callers (the simulator, the in-process cluster's threads, most unit tests)
reach those coroutines through :func:`drive`, which picks how to run one from
what it can observe:

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

There is no thread pool.  Code that already runs on a loop awaits the
``*_async`` coroutines directly; a wall-clock plan fans its request groups out
as coroutines on that loop.  So any number of threads can block in
:func:`drive` at once without one waiting on a slot another holds.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from typing import Any, Coroutine

#: Default bound on concurrently executing storage requests.  Mirrors the
#: default of :attr:`repro.config.AftConfig.io_concurrency`.
DEFAULT_IO_CONCURRENCY = 16

_lock = threading.Lock()
_loop: asyncio.AbstractEventLoop | None = None


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
