"""Tests for the async IO runtime.

Three properties anchor the runtime:

* **one path** — every sync entry point only drives its coroutine: over a
  metered engine it completes inline in the calling thread with no event
  loop, charging the caller's ledger exactly as awaiting the coroutine does;
* **ordering** — §3.3 survives the fan-out: a stage is a barrier, so no
  commit record is ever issued before the whole data stage finished, even
  with requests overlapping inside a stage;
* **cancellation** — a client timeout mid-plan kills the transaction, not
  the invariant: the commit-record stage simply never starts, so storage
  holds at most invisible (unreferenced) data.
"""

from __future__ import annotations

import asyncio
import re
import threading
import time
from pathlib import Path

import pytest

from repro import runtime
from repro.clock import LogicalClock
from repro.config import AftConfig
from repro.core.commit_set import CommitSetStore
from repro.core.group_commit import execute_commit_plan
from repro.core.io_plan import IOPlan
from repro.core.node import AftNode
from repro.core.transaction import TransactionStatus
from repro.ids import is_commit_record_key
from repro.rpc.storage_client import RemoteStorage
from repro.storage.base import CostLedger
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.latency import ConstantLatency, ZeroLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage
from repro.storage.s3 import SimulatedS3


FACADE_CONFIGS = {
    "default": {},
    "spill": {"write_buffer_spill_bytes": 10},
    "pipeline-off": {"enable_io_pipeline": False},
    "batching-off": {"batch_commit_writes": False},
}


class TestSyncFacadeMatrix:
    """Sync put -> commit -> get_many is the coroutine, stepped inline."""

    KEYS = [f"key-{i}" for i in range(6)]

    def build(self, overrides) -> tuple[AftNode, SimulatedDynamoDB]:
        # DynamoDB: native batches (so batching-off differs from batching-on)
        # and a seeded latency model (so issue order would show).
        clock = LogicalClock(start=10.0, auto_step=0.001)
        engine = SimulatedDynamoDB(latency_model=ConstantLatency(0.004), clock=clock, seed=3)
        config = AftConfig(enable_data_cache=False, **overrides)
        node = AftNode(engine, config=config, clock=clock, node_id="facade-node")
        node.start()
        return node, engine

    @staticmethod
    def entries(ledger: CostLedger) -> list[tuple[str, int, int]]:
        return [(e.op, e.n_items, e.total_bytes) for e in ledger.entries]

    @pytest.mark.parametrize("name", list(FACADE_CONFIGS))
    def test_inline_in_the_calling_thread_with_the_callers_ledger(self, name, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("a sync facade over a metered engine created an event loop")

        node, engine = self.build(FACADE_CONFIGS[name])
        charge_threads = set()
        charge = engine._charge

        def recording_charge(*args, **kwargs):
            charge_threads.add(threading.get_ident())
            return charge(*args, **kwargs)

        monkeypatch.setattr(engine, "_charge", recording_charge)
        monkeypatch.setattr(asyncio, "new_event_loop", no_loop)
        monkeypatch.setattr(runtime, "event_loop", no_loop)

        sync_ledger = CostLedger()
        with engine.metered(sync_ledger):
            writer = node.start_transaction("writer")
            for key in self.KEYS:
                node.put(writer, key, f"value-of-{key}".encode())
            node.commit_transaction(writer)
            reader = node.start_transaction("reader")
            sync_values = node.get_many(reader, self.KEYS)
        monkeypatch.undo()

        assert sync_values == {key: f"value-of-{key}".encode() for key in self.KEYS}
        assert charge_threads == {threading.get_ident()}

        async_node, async_engine = self.build(FACADE_CONFIGS[name])
        async_ledger = CostLedger()

        async def awaited():
            with async_engine.metered(async_ledger):
                writer = async_node.start_transaction("writer")
                for key in self.KEYS:
                    await async_node.put_async(writer, key, f"value-of-{key}".encode())
                await async_node.commit_transaction_async(writer)
                reader = async_node.start_transaction("reader")
                return await async_node.get_many_async(reader, self.KEYS)

        assert asyncio.run(awaited()) == sync_values
        assert self.entries(sync_ledger)
        assert self.entries(sync_ledger) == self.entries(async_ledger)
        assert async_engine.stats.snapshot() == engine.stats.snapshot()
        assert async_node.stats.storage_value_reads == node.stats.storage_value_reads

    def test_the_configs_really_take_different_paths(self):
        shapes = {}
        for name, overrides in FACADE_CONFIGS.items():
            node, engine = self.build(overrides)
            ledger = CostLedger()
            with engine.metered(ledger):
                txid = node.start_transaction("writer")
                for key in self.KEYS:
                    node.put(txid, key, f"value-of-{key}".encode())
                node.commit_transaction(txid)
            shapes[name] = self.entries(ledger)
        assert shapes["spill"] != shapes["default"]
        assert shapes["batching-off"] != shapes["default"]

    def test_execute_commit_plan_facade_keeps_the_stage_order(self):
        engine = SimulatedS3(latency_model=ConstantLatency(0.004), seed=3)
        ledger = CostLedger()
        with engine.metered(ledger):
            execute_commit_plan(
                engine, CommitSetStore(engine), {"d/1": b"x", "d/2": b"y"}, {"c/r": b"rec"}
            )
        stages = [entry.stage for entry in ledger.entries]
        assert len(stages) == 3 and stages[0] == stages[1] < stages[2]
        assert engine.get("c/r") == b"rec"


class TestSyncOnLoop:
    """A sync facade on the loop it would block is an error, not a deadlock."""

    def test_facade_called_on_the_runtime_loop_raises(self):
        engine = LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(0.0))

        async def sync_call_from_a_coroutine():
            # Driven on the runtime-owned loop (wall-clock engine); the nested
            # sync facade would have to block that very loop.
            engine.execute_plan(IOPlan.writes({"k": b"v"}))

        with pytest.raises(RuntimeError, match="event loop it would block"):
            runtime.drive(sync_call_from_a_coroutine(), engine)
        # From any other thread (or loop) the same facade simply works.
        engine.execute_plan(IOPlan.writes({"k": b"v"}))
        assert engine.get("k") == b"v"

    def test_remote_storage_needs_its_loop_and_rejects_sync_calls_on_it(self):
        with pytest.raises(TypeError):
            RemoteStorage(None)

        async def on_the_connection_loop():
            storage = RemoteStorage(None, loop=asyncio.get_running_loop())
            with pytest.raises(RuntimeError, match="event loop it would block"):
                storage.get("k")
            with pytest.raises(RuntimeError, match="event loop it would block"):
                storage.execute_plan(IOPlan.reads(["k"]))

        asyncio.run(on_the_connection_loop())


class TestWallClockOverlap:
    """Wall-clock engines really overlap requests — awaited or driven."""

    def overlap_engine(self, sleep_s: float = 0.02) -> LatencyInjectedStorage:
        # SimulatedS3 has no batch APIs, so an 8-key stage fans out as 8
        # request groups; the injected sleeps are real.
        inner = SimulatedS3(latency_model=ZeroLatency(), clock=LogicalClock(auto_step=1e-6))
        return LatencyInjectedStorage(inner, injected=ConstantLatency(sleep_s))

    def test_sync_facade_overlaps_groups(self):
        engine = self.overlap_engine()
        items = {f"k{i}": b"v" for i in range(8)}
        start = time.monotonic()
        engine.execute_plan(IOPlan.writes(items, name="overlap"))
        elapsed = time.monotonic() - start
        # Serial would sleep 8 x 20 ms = 160 ms; overlapped is ~20-40 ms.
        assert elapsed < 0.120
        assert engine.stats.writes == 8

    def test_async_core_overlaps_groups(self):
        engine = self.overlap_engine()
        items = {f"k{i}": b"v" for i in range(8)}

        async def run():
            start = time.monotonic()
            await engine.execute_plan_async(IOPlan.writes(items, name="overlap"))
            return time.monotonic() - start

        assert asyncio.run(run()) < 0.120

    def test_io_concurrency_bounds_the_fanout(self):
        engine = self.overlap_engine(sleep_s=0.02)
        engine.io_concurrency = 1
        items = {f"k{i}": b"v" for i in range(4)}
        start = time.monotonic()
        engine.execute_plan(IOPlan.writes(items, name="bounded"))
        elapsed = time.monotonic() - start
        # A concurrency bound of one degenerates to the serial sum.
        assert elapsed >= 0.065


class RecordingStorage(LatencyInjectedStorage):
    """Timestamps the completion of every put for ordering assertions."""

    def __init__(self, sleep_s: float = 0.01) -> None:
        inner = SimulatedS3(latency_model=ZeroLatency(), clock=LogicalClock(auto_step=1e-6))
        super().__init__(inner, injected=ConstantLatency(sleep_s))
        self.completions: list[tuple[str, float]] = []
        self._completions_lock = threading.Lock()

    async def put_async(self, key, value):
        await super().put_async(key, value)
        with self._completions_lock:
            self.completions.append((key, time.monotonic()))


class TestWriteOrderingUnderFanout:
    def test_commit_record_lands_after_all_data(self):
        engine = RecordingStorage()
        data = {f"data/k{i}": b"v" for i in range(6)}
        records = {"commit/r": b"record"}

        asyncio.run(engine.execute_plan_async(IOPlan.commit(data, records)))

        data_times = [t for key, t in engine.completions if key in data]
        record_times = [t for key, t in engine.completions if key in records]
        assert len(data_times) == 6 and len(record_times) == 1
        # The stage barrier: every data write completed before the record
        # write even started (completion-before-completion is implied).
        assert max(data_times) <= min(record_times)


class TestCancellation:
    def make_slow_node(self, sleep_s: float = 0.05) -> tuple[AftNode, RecordingStorage]:
        engine = RecordingStorage(sleep_s=sleep_s)
        node = AftNode(
            engine,
            config=AftConfig(enable_data_cache=False),
            node_id="cancel-node",
        )
        node.start()
        return node, engine

    def test_client_timeout_mid_commit_leaves_no_record(self):
        node, engine = self.make_slow_node()

        async def run():
            txid = node.start_transaction("doomed")
            for i in range(4):
                node.put(txid, f"key-{i}", b"value")
            with pytest.raises(asyncio.TimeoutError):
                # The data stage alone sleeps ~50 ms; cancel long before.
                await asyncio.wait_for(node.commit_transaction_async(txid), timeout=0.01)
            return txid

        txid = asyncio.run(run())
        # Let any already-dispatched data writes drain, then check: the
        # record stage never ran, so the transaction is invisible.
        time.sleep(0.3)
        assert not any(is_commit_record_key(key) for key, _ in engine.completions)
        transaction = node._transactions[txid]
        assert transaction.status is not TransactionStatus.COMMITTED


class TestAsyncGroupCommit:
    def make_group_node(self) -> AftNode:
        node = AftNode(
            InMemoryStorage(),
            config=AftConfig(
                group_commit_window=0.005,
                group_commit_max_txns=8,
            ),
            node_id="async-gc-node",
        )
        node.start()
        return node

    def test_concurrent_commits_share_flushes(self):
        node = self.make_group_node()

        async def one(i: int):
            txid = node.start_transaction(f"t{i}")
            await node.put_async(txid, f"key-{i}", b"v")
            return await node.commit_transaction_async(txid)

        async def run():
            return await asyncio.gather(*[one(i) for i in range(8)])

        commit_ids = asyncio.run(run())
        assert len(commit_ids) == 8
        assert node.stats.group_commit_batched_txns == 8
        # Coalescing happened: strictly fewer flushes than transactions.
        assert 0 < node.stats.group_commits < 8
        # All committed data is durably visible afterwards.
        txid = node.start_transaction("check")
        values = node.get_many(txid, [f"key-{i}" for i in range(8)])
        assert all(value == b"v" for value in values.values())

    def test_commit_transactions_async_batches(self):
        node = self.make_group_node()

        async def run():
            txids = []
            for i in range(5):
                txid = node.start_transaction(f"b{i}")
                await node.put_async(txid, f"bk-{i}", b"w")
                txids.append(txid)
            return await node.commit_transactions_async(txids)

        results = asyncio.run(run())
        assert len(results) == 5
        assert node.stats.group_commit_batched_txns == 5


class TestLatencyInjectedStorage:
    def make(self, sleep_s: float = 0.0) -> LatencyInjectedStorage:
        return LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(sleep_s))

    def test_full_engine_surface_delegates(self):
        engine = self.make()
        assert engine.wall_clock_io
        # Batch capabilities mirror the inner engine.
        assert engine.supports_batch_writes and engine.supports_batch_reads

        engine.put("a/1", b"x")
        engine.multi_put({"a/2": b"y", "b/1": b"z"})
        assert engine.get("a/1") == b"x"
        fetched = engine.multi_get(["a/2", "b/1", "missing"])
        assert fetched["a/2"] == b"y" and fetched["b/1"] == b"z"
        assert fetched.get("missing") is None
        assert sorted(engine.list_keys("a/")) == ["a/1", "a/2"]
        assert engine.size() == 3
        engine.delete("a/1")
        engine.multi_delete(["a/2", "b/1"])
        assert engine.size() == 0
        assert engine.stats.writes == 1 and engine.stats.batch_writes == 1
        assert engine.stats.reads == 1 and engine.stats.batch_reads == 1
        # One point delete + one multi_delete request (3 items total).
        assert engine.stats.deletes == 2 and engine.stats.items_deleted == 3
        assert engine.stats.lists == 1

    def test_injected_latency_really_sleeps(self):
        engine = self.make(sleep_s=0.02)
        start = time.monotonic()
        engine.put("k", b"v")
        assert time.monotonic() - start >= 0.015
        # Charged latency stays zero: the cost ledger sees nothing.
        assert engine.latency_model.sample("write", 1, 1) == 0.0


class TestRuntimeHelpers:
    def test_sync_plans_from_plain_threads_never_deadlock(self):
        # Several threads each drive a sync execute_plan on one wall-clock
        # engine at once: every plan's groups run as coroutines on the one
        # runtime loop, so no caller waits on a slot another caller holds.
        engine = LatencyInjectedStorage(
            SimulatedS3(latency_model=ZeroLatency()), injected=ConstantLatency(0.001)
        )

        def one(i: int) -> None:
            engine.execute_plan(IOPlan.writes({f"w{i}/{j}": b"v" for j in range(3)}))

        threads = [threading.Thread(target=one, args=(i,), daemon=True) for i in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads), "sync plans deadlocked"
        assert engine.stats.writes == 12

    def test_package_has_no_thread_hops(self):
        # Storage IO runs as coroutines on the loop that owns it; no module
        # may reach it through a worker thread again.
        pattern = re.compile(r"concurrent\.futures|to_thread|run_in_executor|ThreadPoolExecutor")
        root = Path(runtime.__file__).parent
        offenders = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert not offenders, offenders

    def test_config_validates_io_concurrency(self):
        with pytest.raises(ValueError):
            AftConfig(io_concurrency=0)
        config = AftConfig(io_concurrency=4)
        assert config.as_dict()["io_concurrency"] == 4

    def test_node_applies_io_concurrency_to_engines(self):
        engine = InMemoryStorage()
        node = AftNode(engine, config=AftConfig(io_concurrency=3), node_id="knob-node")
        assert engine.io_concurrency == 3
        assert engine.effective_io_concurrency == 3
        assert node.config.io_concurrency == 3
