"""The observability plane: causal tracing, metrics, and exporters.

Every layer of the runtime — the client facades, the router, the node
servers, the read/commit protocol phases inside :class:`~repro.core.node.AftNode`,
IO-plan stages, the remote-storage coalescer, group commit, the fault
manager, and the nemesis harness — is instrumented against this package.
Two design rules keep it honest with the paper's "minimal overhead" claim:

* **Zero-cost when disabled.**  Tracing is off by default; every
  instrumentation site goes through a module-level guard
  (:func:`repro.observability.trace.span` and friends) that returns a
  shared no-op handle without allocating when the plane is disabled.  The
  overhead of the disabled guard is measured and CI-gated by
  ``benchmarks/bench_observability.py``.
* **No dependencies.**  Spans, metrics, and exporters are plain stdlib
  Python; dumps are JSON-lines and Chrome trace-event JSON, readable by
  ``scripts/trace_report.py`` and by ``chrome://tracing`` / Perfetto.

Causality crosses process boundaries as optional ``trace`` fields on the
RPC messages (:mod:`repro.rpc.messages`); an empty ``trace`` (the field's
default) starts a fresh trace and leaves the transaction unaffected.
"""

from repro.observability.export import (
    load_spans,
    spans_to_chrome,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry, registry
from repro.observability.trace import (
    Span,
    TraceContext,
    Tracer,
    annotate,
    apply_config,
    current_context,
    disable,
    enable,
    enabled,
    end_txn,
    register_txn,
    span,
    tracer,
    wire_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "annotate",
    "apply_config",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "end_txn",
    "load_spans",
    "register_txn",
    "registry",
    "span",
    "spans_to_chrome",
    "tracer",
    "wire_context",
    "write_chrome_trace",
    "write_spans_jsonl",
]
