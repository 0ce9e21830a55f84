"""Causal distributed tracing: spans, trace contexts, and the process tracer.

The model is deliberately small — three pieces:

* :class:`Span` — one timed operation (name, start, duration, attributes),
  linked to its parent by ``parent_id`` and to its transaction's trace by
  ``trace_id``.
* :class:`TraceContext` — the ``(trace_id, span_id)`` pair that travels: in
  process via a :mod:`contextvars` variable (so it flows through both sync
  call stacks and asyncio tasks, which copy the context at creation), and
  across the socket runtime as an optional ``trace`` field on the RPC
  messages (``"trace_id:span_id"``).
* :class:`Tracer` — the per-process sink: a bounded ring of finished spans
  plus the txid-keyed context registry that stitches a transaction's
  *separate* client calls (start / get / put / commit arrive as independent
  invocations with no shared call stack) into one trace.

Trace ids are keyed by transaction: the first span bound to a txid anchors
the trace, and every later span for that txid — on any layer, in any
process, via wire context or via the registry — joins it.

**The disabled path is the hot path.**  ``span()`` / ``annotate()`` /
``wire_context()`` first test one module-level boolean and return a shared
no-op handle (or empty dict) without allocating.  Instrumentation sites may
therefore run unconditionally; the cost when tracing is off is one function
call and one attribute test, measured by ``benchmarks/bench_observability.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict, deque
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports nothing of ours)
    from repro.config import ObservabilityConfig

#: Module-level fast switch.  Read (not imported) by the guard functions so
#: ``enable()`` / ``disable()`` take effect everywhere instantly.
_ENABLED = False

#: The in-process propagation channel.  Asyncio tasks copy the context at
#: creation and :func:`repro.runtime.drive` runs its coroutine in a copy of
#: the caller's, so a span opened around an ``await`` or a sync facade still
#: parents its children correctly.  The stored value is a plain
#: ``(trace_id, span_id)`` tuple — :class:`TraceContext` where type clarity
#: matters, but the hot path stores bare tuples (a NamedTuple construction
#: costs ~6x a tuple display and this runs per span).
_CURRENT: ContextVar["tuple[str, str] | None"] = ContextVar("repro-trace-ctx", default=None)

#: Span ids: a per-process random prefix plus a counter.  ``itertools.count``
#: is C-implemented and safe to share across threads without a lock.
_ID_PREFIX = os.urandom(4).hex() + "-"
_id_counter = itertools.count(1)


def _new_id() -> str:
    # str(int) concat, not an f-string format spec: ids only need to be
    # unique and printable, and this shaves ~40% off a hot-path allocation.
    return _ID_PREFIX + str(next(_id_counter))


class TraceContext(NamedTuple):
    """The propagated pair: which trace, and which span is the parent."""

    trace_id: str
    span_id: str

    def to_wire(self) -> str:
        """The optional RPC-message field form: ``"trace_id:span_id"``.

        A flat string, not an object: the field rides on *every* traced RPC
        message, and encoding one short string is measurably cheaper on both
        wire codecs than recursing into a two-key dict.
        """
        return f"{self.trace_id}:{self.span_id}"

    @classmethod
    def from_wire(cls, data: Any) -> "TraceContext | None":
        """Decode a wire ``trace`` field; tolerant of anything malformed.

        Accepts the string form and the earlier ``{"t": ..., "s": ...}``
        object form, so peers from either side of the format change still
        stitch one trace.
        """
        if isinstance(data, str):
            trace_id, sep, span_id = data.rpartition(":")
            if sep and trace_id and span_id:
                return cls(trace_id, span_id)
        elif isinstance(data, dict):
            trace_id, span_id = data.get("t"), data.get("s")
            if isinstance(trace_id, str) and isinstance(span_id, str):
                return cls(trace_id, span_id)
        return None


class Span:
    """One finished, timed operation in a trace.

    A plain ``__slots__`` class rather than a dataclass: span construction
    sits on the traced hot path (~20 per transaction), and skipping the
    dataclass machinery keeps the enabled-path overhead inside the
    benchmark's ceiling.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "duration", "process", "txid", "attrs")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,  # wall-clock seconds (time.time); cross-process comparable
        duration: float,  # seconds, from a monotonic clock
        process: str = "",
        txid: str = "",
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.process = process
        self.txid = txid
        self.attrs = attrs if attrs is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id!r}, span={self.span_id!r}, "
            f"parent={self.parent_id!r}, txid={self.txid!r})"
        )

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "process": self.process,
        }
        if self.txid:
            data["txid"] = self.txid
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=data["start"],
            duration=data["duration"],
            process=data.get("process", ""),
            txid=data.get("txid", ""),
            attrs=data.get("attrs", {}),
        )


class _NullHandle:
    """The shared no-op span handle returned whenever tracing is disabled.

    Supports the full handle surface so instrumentation sites never branch.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullHandle":
        return self

    def bind_txn(self, txid: str) -> "_NullHandle":
        return self

    @property
    def context(self) -> None:
        return None


_NULL = _NullHandle()


class _SpanHandle:
    """A live span: context manager that records on exit."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None
        self._t0 = 0.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(self._span.trace_id, self._span.span_id)

    def set(self, **attrs: Any) -> "_SpanHandle":
        self._span.attrs.update(attrs)
        return self

    def bind_txn(self, txid: str) -> "_SpanHandle":
        """Adopt ``txid`` as this span's transaction — and as its trace key.

        Used by the *start* path, where the txid is only known mid-span: the
        client's start span opens under a fresh ephemeral trace id (there is
        nothing else to key on yet), and every span in the chain — client,
        router, node — re-keys onto the txid-derived trace id once the txid
        exists.  Parent pointers are span ids, so the re-keyed spans stay a
        connected tree.  Only a trace *root* (no parent) registers as the
        transaction's anchor: a router's start span carrying the client's
        wire context must not displace the client's own anchor when both run
        in one process.
        """
        self._span.txid = txid
        self._span.trace_id = _txid_trace_id(txid)
        if self._span.parent_id is None:
            self._tracer.register_txn(txid, self.context)
        # Re-point the in-flight context at the re-keyed trace so nested
        # work started after the bind lands in the right trace.
        if self._token is not None:
            _CURRENT.set(self.context)
        return self

    def __enter__(self) -> "_SpanHandle":
        span = self._span
        self._token = _CURRENT.set((span.trace_id, span.span_id))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._span.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self._span.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._record(self._span)
        return False


def _txid_trace_id(txid: str) -> str:
    """The txid-keyed trace id: stable across processes without coordination."""
    return f"txn-{txid}"


class Tracer:
    """Per-process span sink + txid-keyed context registry (thread-safe)."""

    #: Bound on remembered txid → context anchors (drops oldest beyond this).
    TXN_REGISTRY_CAP = 4096

    def __init__(self, process: str = "", capacity: int = 65536) -> None:
        self.process = process or f"pid-{os.getpid()}"
        self._spans: deque[Span] = deque(maxlen=max(1, capacity))
        self._txns: OrderedDict[str, TraceContext] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        txid: str = "",
        parent: "TraceContext | dict | None" = None,
        **attrs: Any,
    ) -> _SpanHandle:
        """Open a span.  Parent precedence: explicit ``parent`` (usually a
        wire ``trace`` field) > the in-process current context > the
        txid-keyed registry anchor > none (a fresh trace root)."""
        if parent is None:  # the common in-process case: skip the wire decode
            ctx = _CURRENT.get()
        else:
            # A tuple parent is a context (TraceContext or the bare-tuple
            # form _CURRENT stores); a str is the wire form, split inline
            # (every cross-process span takes this path — skip the
            # NamedTuple construction from_wire would pay); anything else
            # (legacy dict, junk) goes through the tolerant decoder.
            if isinstance(parent, tuple):
                ctx = parent
            elif type(parent) is str:
                head, sep, tail = parent.rpartition(":")
                ctx = (head, tail) if (sep and head and tail) else None
            else:
                ctx = TraceContext.from_wire(parent)
            if ctx is None:
                ctx = _CURRENT.get()
        if ctx is None and txid:
            ctx = self.txn_context(txid)
        if ctx is not None:
            trace_id, parent_id = ctx
        elif txid:
            trace_id, parent_id = _txid_trace_id(txid), None
        else:
            trace_id, parent_id = _new_id(), None
        span = Span(trace_id, _new_id(), parent_id, name, time.time(), 0.0, self.process, txid, attrs)
        return _SpanHandle(self, span)

    def annotate(
        self,
        name: str,
        txid: str = "",
        parent: "TraceContext | dict | None" = None,
        **attrs: Any,
    ) -> None:
        """Record an instant (zero-duration) annotation span."""
        handle = self.span(name, txid=txid, parent=parent, **attrs)
        self._record(handle._span)

    # ------------------------------------------------------------------ #
    # The txid-keyed registry
    # ------------------------------------------------------------------ #
    def register_txn(self, txid: str, ctx: TraceContext | None = None) -> None:
        """Anchor ``txid``'s trace at ``ctx`` (default: the current context).

        First registration wins — later calls (e.g. the node re-anchoring a
        txn the client already anchored) are no-ops, preserving the original
        causal root.
        """
        if ctx is None:
            ctx = _CURRENT.get()
        if ctx is None:
            return
        with self._lock:
            if txid not in self._txns:
                self._txns[txid] = ctx
                while len(self._txns) > self.TXN_REGISTRY_CAP:
                    self._txns.popitem(last=False)

    def txn_context(self, txid: str) -> TraceContext | None:
        with self._lock:
            return self._txns.get(txid)

    def end_txn(self, txid: str) -> None:
        """Drop the txid anchor (commit/abort reached): bounds the registry."""
        with self._lock:
            self._txns.pop(txid, None)

    # ------------------------------------------------------------------ #
    # The span ring
    # ------------------------------------------------------------------ #
    def _record(self, span: Span) -> None:
        # A bounded deque append is atomic under the GIL; the lock is only
        # needed where multi-step reads (drain, clear) must see a snapshot.
        self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Return and clear all finished spans (the periodic-flush primitive)."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._txns.clear()


#: The process-wide tracer all module-level guards route to.
_TRACER = Tracer()


# ---------------------------------------------------------------------- #
# Module-level guards — the only API instrumentation sites should use.
# ---------------------------------------------------------------------- #
def enabled() -> bool:
    """Whether the observability plane is collecting spans."""
    return _ENABLED


def enable(process: str = "", capacity: int | None = None) -> Tracer:
    """Turn tracing on (idempotent); optionally (re)label the process."""
    global _ENABLED
    if process:
        _TRACER.process = process
    if capacity is not None:
        with _TRACER._lock:
            _TRACER._spans = deque(_TRACER._spans, maxlen=max(1, capacity))
    _ENABLED = True
    return _TRACER


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def apply_config(config: "ObservabilityConfig | None") -> None:
    """Apply a config block: enables the plane iff the block says so.

    The deliberate asymmetry — a disabled block does *not* force-disable a
    plane another component enabled — lets one process host several
    components (the in-process cluster, tests) without the last constructor
    winning.
    """
    if config is not None and config.enabled:
        enable(capacity=config.trace_capacity)


def tracer() -> Tracer:
    return _TRACER


def span(name: str, txid: str = "", parent: Any = None, **attrs: Any):
    """Open a span — or the shared no-op handle when tracing is disabled."""
    if not _ENABLED:
        return _NULL
    return _TRACER.span(name, txid, parent, **attrs)


def null_span() -> _NullHandle:
    """The shared no-op handle, for sites that span only conditionally
    (e.g. skip a nested span whose caller already times the same work)."""
    return _NULL


def annotate(name: str, txid: str = "", parent: Any = None, **attrs: Any) -> None:
    """Record an instant annotation (no-op when disabled)."""
    if not _ENABLED:
        return
    _TRACER.annotate(name, txid, parent, **attrs)


def wire_context() -> str:
    """The current context as an RPC ``trace`` field (``""`` when disabled)."""
    if not _ENABLED:
        return ""
    ctx = _CURRENT.get()
    return f"{ctx[0]}:{ctx[1]}" if ctx is not None else ""


def current_context() -> "tuple[str, str] | None":
    """The in-flight ``(trace_id, span_id)`` pair (None when disabled/absent).

    May be a bare tuple rather than a :class:`TraceContext`; both are valid
    ``parent=`` values for :func:`span`.
    """
    if not _ENABLED:
        return None
    return _CURRENT.get()


def register_txn(txid: str, ctx: TraceContext | None = None) -> None:
    if not _ENABLED:
        return
    _TRACER.register_txn(txid, ctx)


def end_txn(txid: str) -> None:
    if not _ENABLED:
        return
    _TRACER.end_txn(txid)


# ---------------------------------------------------------------------- #
# JSON-lines persistence (the exporter module adds the Chrome format)
# ---------------------------------------------------------------------- #
def append_spans_jsonl(path: str | os.PathLike, spans: Iterable[Span]) -> int:
    """Append spans to a JSON-lines file; returns the number written."""
    count = 0
    with open(path, "a", encoding="utf-8") as fh:
        for item in spans:
            fh.write(json.dumps(item.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count
