"""The benchmark's own span recorder, and the per-layer budget made from it.

The measured program is not changed: a traced run wraps the entry point of
each layer *from outside* (``instrumented``), in the load generator and — via
``traced_proc.py`` — in the router and node processes.  A span is
``(id, parent, name, layer, start, end, txid)`` on ``time.monotonic_ns``,
which on Linux is one clock for every process of the box, so spans of
different processes can be laid on one time line.

Joining (``layer_budget``): a span started inside another span of the same
task has that span as parent (a contextvar).  A span with no such parent — a
request handler, or the codec work of a connection's reader task — is adopted
by the innermost span of *any* process whose interval contains it and whose
txid, where both carry one, agrees.  With one session in flight that is the
call that was waiting for it.  Self time is a span's duration minus the part
its children cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from pathlib import Path

LAYERS = (
    "client",
    "codec",
    "transport",
    "router",
    "node",
    "read_protocol",
    "write_buffer",
    "commit_persist",
    "io_plan",
    "storage_client",
    "storage_service",
)
#: The load generator's own per-transaction span; time it does not pass on
#: to a layer is the budget's unattributed share.
ROOT_LAYER = "loadgen"

# (module, dotted attribute, layer, where the txid is).  ``txid`` is "arg1"
# (first argument after self), "msg" (the ``txid`` field of the message
# argument), "result", or "" for calls that carry none.
_CODEC = [
    ("repro.rpc.messages", name, "codec", "")
    for name in (
        "encode_body",
        "decode_body",
        "encode_storage_ops",
        "decode_storage_ops",
        "encode_storage_results",
        "decode_storage_results",
        "encode_records",
        "decode_records",
    )
] + [
    ("repro.rpc.framing", "frame_bytes", "codec", ""),
    ("repro.rpc.framing", "decode_frame", "codec", ""),
]
_TRANSPORT = [("repro.rpc.framing", "RpcConnection.request", "transport", "")]

CLIENT_TARGETS = [
    ("loadgen", "LoadGenerator.transaction", ROOT_LAYER, ""),
    ("repro.rpc.client", "AsyncRouterClient.start_transaction", "client", "result"),
    ("repro.rpc.client", "AsyncRouterClient.get_many", "client", "arg1"),
    ("repro.rpc.client", "AsyncRouterClient.put_many", "client", "arg1"),
    ("repro.rpc.client", "AsyncRouterClient.commit_transaction", "client", "arg1"),
    *_TRANSPORT,
    *_CODEC,
]
ROUTER_TARGETS = [
    ("repro.rpc.router", "RouterServer._handle", "router", "msg"),
    ("repro.rpc.router", "RouterServer._handle_storage", "storage_service", ""),
    ("repro.rpc.router", "RouterServer._handle_storage_batch", "storage_service", ""),
    *_TRANSPORT,
    *_CODEC,
]
NODE_TARGETS = [
    ("repro.rpc.node_server", "NodeServer._handle", "node", "msg"),
    ("repro.core.node", "AftNode.start_transaction", "node", "result"),
    ("repro.core.node", "AftNode.get_many_async", "node", "arg1"),
    ("repro.core.node", "AftNode.put_async", "node", "arg1"),
    ("repro.core.node", "AftNode.commit_transaction_async", "node", "arg1"),
    ("repro.core.node", "AftNode.drain_recent_commits", "node", ""),
    ("repro.core.node", "AftNode.receive_commits", "node", ""),
    # node.py binds these two by name at import, so that binding is patched.
    ("repro.core.node", "atomic_read", "read_protocol", ""),
    ("repro.core.node", "execute_commit_plan_async", "commit_persist", ""),
    ("repro.core.write_buffer", "AtomicWriteBuffer.put_async", "write_buffer", "arg1"),
    ("repro.core.write_buffer", "AtomicWriteBuffer.pending_writes", "write_buffer", "arg1"),
    ("repro.core.write_buffer", "AtomicWriteBuffer.spilled_keys", "write_buffer", "arg1"),
    ("repro.core.write_buffer", "AtomicWriteBuffer.discard", "write_buffer", "arg1"),
    ("repro.storage.base", "StorageEngine.execute_plan_async", "io_plan", ""),
    ("repro.rpc.storage_client", "RemoteStorage.execute_group_async", "storage_client", ""),
    *_TRANSPORT,
    *_CODEC,
]


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #
class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_span", default=0)

    def wrap(self, func, name: str, layer: str, txid_from: str):
        ids, current, spans, now = self._ids, self._current, self.spans, time.monotonic_ns

        def txid_of(args, result) -> str:
            if txid_from == "arg1":
                return args[1] if len(args) > 1 else ""
            if txid_from == "msg":
                return getattr(args[-1], "txid", "")
            if txid_from == "result":
                return result if isinstance(result, str) else ""
            return ""

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced(*args, **kwargs):
                span_id, parent = next(ids), current.get()
                token = current.set(span_id)
                result = None
                start = now()
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    end = now()
                    current.reset(token)
                    spans.append((span_id, parent, name, layer, start, end, txid_of(args, result)))

        else:

            @functools.wraps(func)
            def traced(*args, **kwargs):
                span_id, parent = next(ids), current.get()
                token = current.set(span_id)
                result = None
                start = now()
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    end = now()
                    current.reset(token)
                    spans.append((span_id, parent, name, layer, start, end, txid_of(args, result)))

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as out:
            for span_id, parent, name, layer, start, end, txid in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "layer": layer,
                         "start_ns": start, "end_ns": end, "txid": txid}
                    )
                    + "\n"
                )


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def instrument(recorder: Recorder, targets: list[tuple]) -> list[tuple]:
    """Wrap every target in place; returns what :func:`restore` needs.

    A missing target raises: a renamed entry point must fail the traced run
    rather than silently drop a layer from the budget.
    """
    originals = []
    for module_name, dotted, layer, txid_from in targets:
        owner, attr = _resolve(module_name, dotted)
        original = getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(original, dotted, layer, txid_from))
        originals.append((owner, attr, original))
    return originals


def restore(originals: list[tuple]) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrumented(recorder: Recorder, targets: list[tuple]):
    originals = instrument(recorder, targets)
    try:
        yield recorder
    finally:
        restore(originals)


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
class _Span:
    __slots__ = ("proc", "id", "parent_id", "layer", "start", "end", "txid", "parent", "children")

    def __init__(self, proc: str, row: dict) -> None:
        self.proc = proc
        self.id = row["id"]
        self.parent_id = row["parent"]
        self.layer = row["layer"]
        self.start = row["start_ns"]
        self.end = row["end_ns"]
        self.txid = row["txid"]
        self.parent: _Span | None = None
        self.children: list[_Span] = []


def _load(dumps: list[Path]) -> list[_Span]:
    spans: list[_Span] = []
    for path in dumps:
        proc = path.stem.rsplit("-", 1)[1]
        with open(path) as lines:
            spans.extend(_Span(proc, json.loads(line)) for line in lines)
    return spans


def _link(spans: list[_Span]) -> None:
    """Set ``parent``/``children``: contextvar parents first, then adoption."""
    by_id = {(span.proc, span.id): span for span in spans}
    for span in spans:
        if span.parent_id:
            span.parent = by_id.get((span.proc, span.parent_id))
    # Sweep the shared time line; ``open_spans`` holds every span that has
    # started and not yet ended, so the containers of an orphan are among them.
    open_spans: list[_Span] = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        open_spans = [candidate for candidate in open_spans if candidate.end >= span.start]
        if span.parent is None and span.layer != ROOT_LAYER:
            best = None
            for candidate in open_spans:
                if candidate.end < span.end:
                    continue
                if span.txid and candidate.txid and span.txid != candidate.txid:
                    continue
                if best is None or candidate.end - candidate.start <= best.end - best.start:
                    best = candidate
            span.parent = best
        open_spans.append(span)
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)


def _self_ns(span: _Span) -> int:
    covered, reach = 0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return (span.end - span.start) - covered


def layer_budget(dumps: list[Path], txns: int) -> dict[str, float]:
    """``<layer>.self_us_per_txn`` / ``.calls_per_txn`` and the trace checks."""
    spans = _load(dumps)
    roots = [span for span in spans if span.layer == ROOT_LAYER]
    if len(roots) != txns:
        raise ValueError(f"trace holds {len(roots)} transaction roots, the phase committed {txns}")
    # The server processes record from their first instruction; the budget
    # is about the traced phase, so set-up spans are dropped here.
    window_start = min(root.start for root in roots)
    window_end = max(root.end for root in roots)
    spans = [span for span in spans if span.start >= window_start and span.end <= window_end]
    _link(spans)
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    # Transport is the widest layer, so it is also split by which process
    # was waiting: client -> router, router -> node, node -> router storage.
    transport_from = dict.fromkeys(("client", "router", "node"), 0)
    root_total = root_self = 0
    for root in roots:
        root_total += root.end - root.start
        root_self += _self_ns(root)
        stack = list(root.children)
        while stack:
            span = stack.pop()
            own = _self_ns(span)
            self_ns[span.layer] += own
            calls[span.layer] += 1
            if span.layer == "transport":
                transport_from[span.proc if span.proc in transport_from else "node"] += own
            stack.extend(span.children)
    budget: dict[str, float] = {}
    for layer in LAYERS:
        budget[f"{layer}.self_us_per_txn"] = self_ns[layer] / 1e3 / txns
        budget[f"{layer}.calls_per_txn"] = calls[layer] / txns
    for proc, total in transport_from.items():
        budget[f"transport.from_{proc}_us_per_txn"] = total / 1e3 / txns
    budget["trace.unattributed_share"] = root_self / root_total
    return budget
