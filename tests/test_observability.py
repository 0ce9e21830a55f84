"""The observability plane: tracing, metrics, exporters, wire propagation.

The acceptance bar:

* metrics are dependency-free and cheap (counters, gauges, log-bucketed
  histograms with sane quantiles);
* the tracer is a process-global switch — disabled means a shared no-op
  handle and zero recorded spans; enabled means spans nest through a
  context variable and transactions anchor through a txid registry;
* the trace context survives the wire as a compact string that old peers
  simply drop (mixed-version interop both directions);
* one transaction driven through each runtime — in-process sync,
  in-process async, and the real socket cluster (router + 2 node
  servers over localhost TCP) — yields ONE connected span tree touching
  every layer: client, router, node, storage IO, group commit.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.clock import LogicalClock
from repro.config import AftConfig, ClusterConfig, ObservabilityConfig
from repro.core.cluster import AftCluster
from repro.core.node import AftNode
from repro.observability import metrics as om
from repro.observability import trace as tr
from repro.observability.export import (
    load_spans,
    spans_to_chrome,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.sink import ObservabilitySink
from repro.observability.trace import Span, TraceContext
from repro.rpc import messages as m
from repro.rpc.client import AsyncRouterClient
from repro.rpc.node_server import NodeServer
from repro.rpc.router import RouterServer
from repro.storage.memory import InMemoryStorage


@pytest.fixture(autouse=True)
def _tracer_reset():
    """Every test starts and ends with the process tracer off and empty."""
    tr.disable()
    tr.tracer().clear()
    yield
    tr.disable()
    tr.tracer().clear()


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_and_gauge(self):
        reg = om.MetricsRegistry("t")
        reg.counter("commits").inc()
        reg.counter("commits").inc(2.5)
        reg.gauge("depth").set(7)
        reg.gauge("depth").add(-2)
        snap = reg.snapshot()
        assert snap["registry"] == "t"
        assert snap["counters"] == {"commits": 3.5}
        assert snap["gauges"] == {"depth": 5.0}

    def test_histogram_buckets_are_powers_of_two(self):
        h = om.Histogram(base=1.0)
        # Bucket i covers (2**(i-1), 2**i]: exact powers land on their own
        # boundary, one-past lands in the next bucket.
        for value, bucket in [(0.5, 0), (1.0, 0), (1.1, 1), (2.0, 1), (2.1, 2), (8.0, 3)]:
            assert h._bucket_index(value) == bucket, value

    def test_histogram_stats_and_percentiles(self):
        h = om.Histogram(base=1e-6)
        for ms in [1, 1, 2, 3, 100]:
            h.record(ms / 1e3)
        d = h.as_dict()
        assert d["count"] == 5
        assert d["min"] == pytest.approx(1e-3)
        assert d["max"] == pytest.approx(0.1)
        assert d["mean"] == pytest.approx(0.0214)
        # p50 is the upper bound of the bucket holding rank 3 (~2 ms);
        # p99 is clamped to the observed max.
        assert 2e-3 <= d["p50"] <= 4.1e-3
        assert d["p99"] == pytest.approx(0.1)

    def test_empty_histogram(self):
        h = om.Histogram()
        assert h.percentile(0.99) == 0.0
        assert h.mean == 0.0
        assert h.as_dict()["min"] == 0.0

    def test_registry_get_or_create_and_reset(self):
        reg = om.MetricsRegistry("t")
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_global_registry_discoverable(self):
        reg = om.registry("test-observability-global")
        assert reg is om.registry("test-observability-global")
        assert reg in om.all_registries()

    def test_snapshots_jsonl(self, tmp_path):
        reg = om.MetricsRegistry("solo")
        reg.counter("n").inc(4)
        reg.histogram("lat").record(0.01)
        path = tmp_path / "metrics.jsonl"
        assert om.append_snapshots_jsonl(path, [reg]) == 1
        line = json.loads(path.read_text().strip())
        assert line["counters"] == {"n": 4.0}
        assert line["histograms"]["lat"]["count"] == 1


# --------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_is_a_shared_noop(self):
        assert not tr.enabled()
        handle = tr.span("anything", txid="t1", attr=1)
        assert handle is tr.span("other")  # the one shared null handle
        with handle as h:
            h.set(more=2).bind_txn("t1")
            assert h.context is None
        tr.annotate("nothing")
        assert tr.wire_context() == ""
        assert tr.tracer().spans() == []

    def test_spans_nest_through_the_context_var(self):
        tr.enable(process="test")
        with tr.span("outer") as outer:
            with tr.span("inner"):
                pass
        spans = {s.name: s for s in tr.tracer().spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].duration >= spans["inner"].duration >= 0.0
        assert outer.context.trace_id == spans["outer"].trace_id

    def test_explicit_parent_wins_over_ambient(self):
        tr.enable(process="test")
        remote = TraceContext("txn-abc", "span-42")
        with tr.span("ambient"):
            with tr.span("child", parent=remote):
                pass
        child = next(s for s in tr.tracer().spans() if s.name == "child")
        assert child.trace_id == "txn-abc"
        assert child.parent_id == "span-42"

    def test_bind_txn_anchors_only_roots(self):
        tr.enable(process="test")
        with tr.span("root") as root:
            root.bind_txn("tx1")
        # A root bound to a txn renames its trace and registers the anchor...
        root_span = tr.tracer().spans()[0]
        assert root_span.trace_id == "txn-tx1"
        assert root_span.txid == "tx1"
        assert tr.tracer().txn_context("tx1").trace_id == "txn-tx1"
        # ...so a later parentless span for the same txn joins that trace.
        with tr.span("aft.start", parent=tr.tracer().txn_context("tx1")):
            pass
        joined = tr.tracer().spans()[-1]
        assert joined.trace_id == "txn-tx1"
        assert joined.parent_id == root_span.span_id
        # A *nested* span binding the txn re-keys onto the txn trace too —
        # the start chain (client → router → node) re-keys every layer once
        # the txid exists, so the tree stays connected — but only a root
        # registers the anchor.
        with tr.span("outer2"):
            with tr.span("inner2") as inner:
                inner.bind_txn("tx2")
        inner_span = next(s for s in tr.tracer().spans() if s.name == "inner2")
        outer_span = next(s for s in tr.tracer().spans() if s.name == "outer2")
        assert inner_span.trace_id == "txn-tx2"
        assert inner_span.parent_id == outer_span.span_id
        assert tr.tracer().txn_context("tx2") is None
        tr.end_txn("tx1")
        assert tr.tracer().txn_context("tx1") is None

    def test_exceptions_propagate_and_still_record(self):
        tr.enable(process="test")
        with pytest.raises(ValueError):
            with tr.span("doomed"):
                raise ValueError("boom")
        (span,) = tr.tracer().spans()
        assert span.name == "doomed"
        assert span.attrs.get("error") == "ValueError"

    def test_ring_capacity_drops_oldest(self):
        tr.enable(process="test", capacity=4)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        names = [s.name for s in tr.tracer().spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_drain_empties_the_ring(self):
        tr.enable(process="test")
        with tr.span("once"):
            pass
        assert [s.name for s in tr.tracer().drain()] == ["once"]
        assert tr.tracer().spans() == []

    def test_annotate_is_an_instant(self):
        tr.enable(process="test")
        with tr.span("op"):
            tr.annotate("mark", detail=3)
        mark = next(s for s in tr.tracer().spans() if s.name == "mark")
        op = next(s for s in tr.tracer().spans() if s.name == "op")
        assert mark.duration == 0.0
        assert mark.parent_id == op.span_id
        assert mark.attrs == {"detail": 3}

    def test_apply_config_enables(self):
        tr.apply_config(ObservabilityConfig(enabled=True, trace_capacity=8))
        assert tr.enabled()
        # Disabled configs don't turn an enabled tracer back off (enable-only
        # semantics: several components share the process switch).
        tr.apply_config(ObservabilityConfig(enabled=False))
        assert tr.enabled()

    def test_span_roundtrip_dict(self):
        span = Span("txn-1", "s2", "s1", "node.get", 12.5, 0.25, "node:n0", "1", {"k": 1})
        assert Span.from_dict(span.as_dict()).as_dict() == span.as_dict()


# --------------------------------------------------------------------- #
# Wire form of the trace context (mixed-version interop)
# --------------------------------------------------------------------- #
class TestWireContext:
    def test_to_wire_is_a_compact_string(self):
        assert TraceContext("txn-9", "span-3").to_wire() == "txn-9:span-3"

    def test_from_wire_accepts_string_and_legacy_dict(self):
        assert TraceContext.from_wire("txn-9:span-3") == TraceContext("txn-9", "span-3")
        # Trace ids may themselves contain colons — split on the last one.
        assert TraceContext.from_wire("a:b:c") == TraceContext("a:b", "c")
        assert TraceContext.from_wire({"t": "txn-9", "s": "span-3"}) == TraceContext(
            "txn-9", "span-3"
        )

    @pytest.mark.parametrize("junk", ["", "no-separator", ":", "x:", ":y", 42, None, [], {}])
    def test_from_wire_rejects_junk(self, junk):
        assert TraceContext.from_wire(junk) is None

    def test_wire_context_follows_the_active_span(self):
        assert tr.wire_context() == ""
        tr.enable(process="test")
        assert tr.wire_context() == ""  # enabled but no active span
        with tr.span("op") as handle:
            assert tr.wire_context() == handle.context.to_wire()

    def test_old_peer_drops_the_trace_field(self):
        # A new peer sends a traced message; an old peer's schema has no
        # ``trace`` dataclass field, which from_body's unknown-field filter
        # models exactly: simulate by dropping the key, then reconstructing.
        msg = m.ClientGet(txid="t1", keys=["k"], trace="txn-t1:span-7")
        body = msg.to_body()
        del body["trace"]
        old_view = m.ClientGet.from_body(body)
        assert old_view.trace == ""  # the field default: untraced
        assert TraceContext.from_wire(old_view.trace) is None

    def test_new_peer_reads_an_old_peers_untraced_message(self):
        # Old peers never set ``trace``; spans started from such messages
        # root a fresh trace instead of crashing or mis-parenting.
        old_msg = m.ClientGet.from_body({"txid": "t1", "keys": ["k"]})
        tr.enable(process="test")
        with tr.span("router.get", parent=old_msg.trace):
            pass
        (span,) = tr.tracer().spans()
        assert span.parent_id is None

    def test_legacy_dict_trace_still_parents(self):
        # A peer one schema back shipped {"t", "s"} dicts; spans parent
        # under them identically.
        tr.enable(process="test")
        with tr.span("router.get", parent={"t": "txn-old", "s": "span-old"}):
            pass
        (span,) = tr.tracer().spans()
        assert span.trace_id == "txn-old"
        assert span.parent_id == "span-old"


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
class TestExporters:
    def _spans(self):
        return [
            Span("txn-1", "a", None, "client.commit", 1.0, 0.5, "client", "1"),
            Span("txn-1", "b", "a", "router.commit", 1.1, 0.3, "router", "1"),
            Span("txn-1", "c", None, "router.node_failed", 1.2, 0.0, "router"),
        ]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_spans_jsonl(path, self._spans()) == 3
        merged = load_spans([path])
        assert [s.span_id for s in merged] == ["a", "b", "c"]

    def test_load_spans_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(path, self._spans()[:1])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n\n{\"also\": \"missing fields\"}\n")
        assert len(load_spans([path])) == 1

    def test_chrome_trace_shapes(self, tmp_path):
        doc = spans_to_chrome(self._spans())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["client.commit"]["ph"] == "X"
        assert by_name["client.commit"]["dur"] == pytest.approx(0.5e6)
        assert by_name["router.node_failed"]["ph"] == "i"  # instant
        # Distinct processes get distinct pid rows, named by metadata events.
        assert by_name["client.commit"]["pid"] != by_name["router.commit"]["pid"]
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {"client", "router"}
        out = write_chrome_trace(tmp_path / "chrome.json", self._spans())
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"


# --------------------------------------------------------------------- #
# Connected traces across every runtime
# --------------------------------------------------------------------- #
def _assert_connected(spans: list[Span], txid: str) -> list[Span]:
    """One root, every parent resolvable inside the transaction's trace."""
    members = [s for s in spans if s.trace_id == f"txn-{txid}"]
    assert members, f"no spans for txn {txid}"
    ids = {s.span_id for s in members}
    roots = [s for s in members if s.parent_id is None]
    orphans = [s for s in members if s.parent_id is not None and s.parent_id not in ids]
    assert len(roots) == 1, [s.name for s in roots]
    assert not orphans, [(s.name, s.parent_id) for s in orphans]
    return members


class TestInprocessPropagation:
    def _observed_cluster(self, **node_overrides) -> AftCluster:
        return AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(
                num_nodes=2, node_config=AftConfig(observability={"enabled": True}, **node_overrides)
            ),
        )

    def test_mapping_observability_block_is_coerced(self):
        cluster = self._observed_cluster()
        assert isinstance(cluster.node_config.observability, ObservabilityConfig)
        assert cluster.node_config.observability.enabled
        cluster.shutdown()

    def test_sync_txn_is_one_connected_tree(self):
        cluster = self._observed_cluster()
        client = cluster.client()
        try:
            tr.tracer().clear()
            txid = client.start_transaction()
            client.put(txid, "k", b"v")
            client.get(txid, "k")
            client.commit_transaction(txid)
        finally:
            cluster.shutdown()
        members = _assert_connected(tr.tracer().spans(), txid)
        names = {s.name for s in members}
        assert "aft.start" in names
        assert "aft.commit.persist" in names
        assert "io.plan" in names

    def test_group_commit_flush_joins_the_txn_trace(self):
        cluster = self._observed_cluster(group_commit_window=0.001)
        client = cluster.client()
        try:
            tr.tracer().clear()
            txid = client.start_transaction()
            client.put(txid, "k", b"v")
            client.commit_transaction(txid)
        finally:
            cluster.shutdown()
        members = _assert_connected(tr.tracer().spans(), txid)
        names = {s.name for s in members}
        assert "gc.enqueue" in names
        assert "gc.flush" in names

    def test_async_txn_is_one_connected_tree(self):
        node = AftNode(
            InMemoryStorage(),
            config=AftConfig(),
            clock=LogicalClock(start=1000.0, auto_step=0.001),
            node_id="async-node",
        )
        node.start()
        tr.enable(process="test")
        tr.tracer().clear()

        async def scenario() -> str:
            txid = node.start_transaction()
            await node.put_async(txid, "k", b"v")
            await node.get_many_async(txid, ["k"])
            await node.commit_transaction_async(txid)
            return txid

        try:
            txid = asyncio.run(scenario())
        finally:
            node.stop()
        members = _assert_connected(tr.tracer().spans(), txid)
        assert {"aft.start", "aft.commit.persist", "io.plan"} <= {s.name for s in members}


class TestSocketClusterTrace:
    """THE acceptance test: one txn through a real localhost TCP cluster
    (router + 2 node servers) yields one connected causal chain spanning
    client → router → node → storage IO → group commit."""

    def test_single_txn_connected_across_processes(self):
        tr.enable(process="test")

        async def scenario() -> str:
            router = RouterServer(port=0, lease_duration=5.0, heartbeat_interval=1.0)
            await router.start()
            nodes = []
            try:
                for i in range(2):
                    node = NodeServer(
                        f"n{i}",
                        router_port=router.port,
                        config=AftConfig(group_commit_window=0.001),
                    )
                    await node.start()
                    nodes.append(node)
                client = await AsyncRouterClient.connect("127.0.0.1", router.port)
                try:
                    await client.wait_ready(2)
                    tr.tracer().clear()
                    txid = await client.start_transaction()
                    await client.put(txid, "traced", b"payload")
                    await client.get(txid, "traced")
                    await client.commit_transaction(txid)
                finally:
                    await client.close()
                return txid
            finally:
                for node in nodes:
                    await node.stop()
                await router.stop()

        txid = scenario_txid = asyncio.run(scenario())
        members = _assert_connected(tr.tracer().spans(), scenario_txid)
        layers = {name.split(".", 1)[0] for name in (s.name for s in members)}
        # Every layer of the stack appears in the one transaction trace.
        assert {"client", "router", "node", "aft", "io", "gc"} <= layers, sorted(
            s.name for s in members
        )
        # And causality is real: the client's root span opened first.
        root = next(s for s in members if s.parent_id is None)
        assert root.name == "client.start"
        assert root.txid == txid
        assert all(s.start >= root.start for s in members)


# --------------------------------------------------------------------- #
# The on-disk sink
# --------------------------------------------------------------------- #
class TestSink:
    def test_sink_writes_spans_and_metrics(self, tmp_path):
        tr.enable(process="sink-test")
        config = ObservabilityConfig(
            enabled=True, trace_dir=str(tmp_path), metrics_interval=0.01
        )
        om.registry("sink-test").counter("ticks").inc()

        async def scenario() -> None:
            sink = ObservabilitySink("router", config)
            sink.start()
            assert sink.active
            with tr.span("op"):
                pass
            await asyncio.sleep(0.05)
            await sink.stop()

        asyncio.run(scenario())
        spans = load_spans([tmp_path / "trace-router.jsonl"])
        assert [s.name for s in spans] == ["op"]
        metrics_lines = (tmp_path / "metrics-router.jsonl").read_text().splitlines()
        assert any(json.loads(line)["registry"] == "sink-test" for line in metrics_lines)

    def test_sink_inactive_without_trace_dir(self):
        sink = ObservabilitySink("node", ObservabilityConfig(enabled=True))
        assert not sink.active
        sink.start()  # no-op, no crash, nothing scheduled
        assert sink._task is None
