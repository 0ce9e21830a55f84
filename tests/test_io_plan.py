"""Tests for the IO-plan pipeline: plan building, execution, cost accounting."""

from __future__ import annotations

import asyncio

import pytest

from repro.clock import LogicalClock
from repro.config import AftConfig
from repro.core.io_plan import IOOp, IOPlan
from repro.core.node import AftNode
from repro.errors import StorageError
from repro.storage.base import CostLedger, StorageOp
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.latency import ConstantLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage
from repro.storage.rediscluster import SimulatedRedisCluster
from repro.storage.s3 import SimulatedS3


class TestPlanBuilding:
    def test_op_validation(self):
        with pytest.raises(ValueError):
            IOOp(kind="munge", key="k")
        with pytest.raises(ValueError):
            IOOp(kind="put", key="k")  # puts need a value

    def test_compact_drops_empty_stages(self):
        plan = IOPlan.commit({}, {"aft.commit/x": b"r"})
        assert [stage.name for stage in plan.stages] == ["commit-records"]

    def test_commit_plan_orders_data_before_records(self):
        plan = IOPlan.commit({"d": b"1"}, {"r": b"2"})
        assert [stage.name for stage in plan.stages] == ["data", "commit-records"]

    def test_reads_and_writes_shapes(self):
        assert IOPlan.reads(["a", "b"]).operation_count == 2
        assert IOPlan.writes({"a": b"1"}).operation_count == 1
        assert not IOPlan.reads([])


class TestLedgerStageAccounting:
    def test_pipelined_equals_sequential_without_stages(self):
        ledger = CostLedger()
        ledger.add("read", 1, 0, 0.01)
        ledger.add("write", 1, 0, 0.02)
        assert ledger.pipelined_latency == pytest.approx(ledger.sequential_latency)
        assert ledger.plan_stage_count == 0

    def test_staged_entries_charge_max_within_stage(self):
        ledger = CostLedger()
        with ledger.stage():
            ledger.add("write", 1, 0, 0.03)
            ledger.add("write", 1, 0, 0.01)
        ledger.add("write", 1, 0, 0.005)
        assert ledger.sequential_latency == pytest.approx(0.045)
        assert ledger.pipelined_latency == pytest.approx(0.035)
        assert ledger.plan_stage_count == 1

    def test_stages_are_sequential_with_each_other(self):
        ledger = CostLedger()
        with ledger.stage():
            ledger.add("write", 1, 0, 0.03)
            ledger.add("write", 1, 0, 0.02)
        with ledger.stage():
            ledger.add("write", 1, 0, 0.01)
        assert ledger.pipelined_latency == pytest.approx(0.04)
        assert ledger.plan_stage_count == 2

    def test_merge_preserves_stage_tags(self):
        inner = CostLedger()
        with inner.stage():
            inner.add("write", 1, 0, 0.03)
            inner.add("write", 1, 0, 0.02)
        outer = CostLedger()
        outer.merge(inner)
        assert outer.pipelined_latency == pytest.approx(0.03)


class TestThreadLocalMetering:
    def test_concurrent_ledgers_do_not_cross_wire(self):
        """Each thread's metered block charges only that thread's operations."""
        import threading

        engine = InMemoryStorage(latency_model=ConstantLatency(0.01))
        barrier = threading.Barrier(2)
        ledgers = {}

        def worker(name: str, ops: int) -> None:
            ledger = CostLedger()
            ledgers[name] = ledger
            with engine.metered(ledger):
                barrier.wait(timeout=5.0)  # both threads attached at once
                for i in range(ops):
                    engine.put(f"{name}-{i}", b"v")

        threads = [
            threading.Thread(target=worker, args=("a", 3)),
            threading.Thread(target=worker, args=("b", 5)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert ledgers["a"].operation_count == 3
        assert ledgers["b"].operation_count == 5


def _put(key: str, after: tuple[int, ...] = ()) -> StorageOp:
    return StorageOp(op="put", keys=(key,), items={key: b"v"}, after=after)


def _refusing(engine, refused: str):
    """``engine`` with every write of ``refused`` failing."""
    put_async = engine.put_async

    async def refuse(key, value):
        if key == refused:
            raise StorageError(f"refused {key!r}")
        await put_async(key, value)

    engine.put_async = refuse
    return engine


class TestInProcessOpGroups:
    @pytest.mark.parametrize(
        "make_engine",
        [
            InMemoryStorage,
            lambda: LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(0.001)),
            SimulatedS3,
        ],
        ids=["memory", "latency-injected", "s3"],
    )
    def test_a_record_after_failed_data_is_never_written(self, make_engine):
        engine = _refusing(make_engine(), refused="data")

        async def scenario():
            results = await engine.execute_group_async([_put("data"), _put("record", after=(0,))])
            return results, await engine.get_async("record")

        results, record = asyncio.run(scenario())
        assert all(result.error is not None for result in results)
        assert record is None

    def test_a_failed_op_does_not_stop_its_wave(self):
        engine = _refusing(InMemoryStorage(), refused="a")
        group = [_put("a"), _put("b"), _put("record", after=(0, 1))]
        results = asyncio.run(engine.execute_group_async(group))
        assert [result.error is None for result in results] == [False, True, False]
        assert engine.get("b") == b"v" and engine.get("record") is None

    def test_each_wave_is_charged_as_one_stage(self):
        engine = InMemoryStorage(latency_model=ConstantLatency(0.01))
        chained, independent = CostLedger(), CostLedger()
        with engine.metered(chained):
            asyncio.run(engine.execute_group_async([_put("a"), _put("b", (0,)), _put("c", (1,))]))
        with engine.metered(independent):
            asyncio.run(engine.execute_group_async([_put("a"), _put("b")]))
        assert chained.plan_stage_count == 3
        assert chained.pipelined_latency == pytest.approx(0.03)
        assert independent.plan_stage_count == 1
        assert independent.pipelined_latency == pytest.approx(0.01)


class TestPlanExecution:
    def test_execute_plan_reads_and_writes(self):
        engine = InMemoryStorage()
        engine.put("a", b"old")
        plan = IOPlan()
        stage = plan.stage("mixed")
        stage.add_put("b", b"new").add_get("a")
        result = engine.execute_plan(plan)
        assert result.values == {"a": b"old"}
        assert engine.get("b") == b"new"

    def test_stage_barriers_execute_in_order(self):
        engine = InMemoryStorage()
        plan = IOPlan()
        plan.stage("first").add_put("k", b"v1")
        plan.stage("second").add_put("k", b"v2")
        engine.execute_plan(plan)
        assert engine.get("k") == b"v2"

    def test_stage_deletes(self):
        engine = InMemoryStorage()
        engine.multi_put({"a": b"1", "b": b"2"})
        plan = IOPlan()
        plan.stage("gc").add_delete("a")
        engine.execute_plan(plan)
        assert engine.get("a") is None
        assert engine.get("b") == b"2"

    def test_parallel_stage_charges_max_not_sum(self):
        engine = SimulatedS3(latency_model=ConstantLatency(0.01), clock=LogicalClock())
        ledger = CostLedger()
        with engine.metered(ledger):
            engine.execute_plan(IOPlan.writes({f"k{i}": b"v" for i in range(5)}))
        # S3 has no batch API: five concurrent PUT requests, one stage.
        assert ledger.operation_count == 5
        assert ledger.sequential_latency == pytest.approx(0.05)
        assert ledger.pipelined_latency == pytest.approx(0.01)

    def test_dynamodb_chunks_by_batch_limit(self):
        engine = SimulatedDynamoDB(clock=LogicalClock())
        items = {f"k{i}": b"v" for i in range(60)}
        engine.execute_plan(IOPlan.writes(items))
        # 60 items / 25-item BatchWriteItem limit = 3 concurrent requests.
        assert engine.stats.batch_writes == 3
        assert engine.stats.items_written == 60

    def test_dynamodb_batches_reads(self):
        engine = SimulatedDynamoDB(clock=LogicalClock())
        engine.multi_put({f"k{i}": b"v" for i in range(10)})
        before = engine.stats.batch_reads
        result = engine.execute_plan(IOPlan.reads([f"k{i}" for i in range(10)]))
        assert engine.stats.batch_reads == before + 1
        assert all(result.values[f"k{i}"] == b"v" for i in range(10))

    def test_redis_groups_by_shard_without_cross_shard_errors(self):
        engine = SimulatedRedisCluster(shard_count=2)
        items = {f"key-{i}": b"v" for i in range(20)}
        engine.execute_plan(IOPlan.writes(items))
        assert engine.size() == 20
        result = engine.execute_plan(IOPlan.reads(list(items)))
        assert result.values == {key: b"v" for key in items}
        # At most one MSET/MGET request per shard per stage.
        assert engine.stats.batch_writes <= engine.shard_count

    def test_plan_counters_in_stats(self):
        engine = InMemoryStorage()
        engine.execute_plan(IOPlan.writes({"a": b"1"}))
        snapshot = engine.stats.snapshot()
        assert snapshot["plans_executed"] == 1
        assert snapshot["plan_stages"] == 1


class TestNodeBatchedReads:
    def make_node(self, **overrides) -> AftNode:
        config = AftConfig(**overrides)
        node = AftNode(InMemoryStorage(), config=config, clock=LogicalClock(auto_step=0.001))
        node.start()
        return node

    def seed_keys(self, node: AftNode, items: dict[str, bytes]) -> None:
        txid = node.start_transaction()
        for key, value in items.items():
            node.put(txid, key, value)
        node.commit_transaction(txid)

    def test_get_many_matches_sequential_gets(self):
        # Cache off so the payloads genuinely come from a storage plan fetch.
        node = self.make_node(enable_data_cache=False)
        self.seed_keys(node, {"a": b"1", "b": b"2", "c": b"3"})
        txid = node.start_transaction()
        batched = node.get_many(txid, ["a", "b", "c", "missing"])
        assert batched == {"a": b"1", "b": b"2", "c": b"3", "missing": None}
        # The read set was recorded for every successful read, and the
        # multi-key fetch was counted as one batched plan request.
        reader = node._transactions[txid]
        assert set(reader.read_set) == {"a", "b", "c"}
        assert node.stats.extra["batched_payload_fetches"] == 1

    def test_get_many_serves_read_your_writes(self):
        node = self.make_node()
        self.seed_keys(node, {"a": b"committed"})
        txid = node.start_transaction()
        node.put(txid, "a", b"mine")
        assert node.get_many(txid, ["a"])["a"] == b"mine"

    def test_get_many_deduplicates_keys(self):
        node = self.make_node()
        self.seed_keys(node, {"a": b"1"})
        txid = node.start_transaction()
        result = node.get_many(txid, ["a", "a"])
        assert result == {"a": b"1"}

    def test_get_many_with_pipeline_disabled_behaves_the_same(self):
        node = self.make_node(enable_io_pipeline=False)
        self.seed_keys(node, {"a": b"1", "b": b"2"})
        txid = node.start_transaction()
        assert node.get_many(txid, ["a", "b"]) == {"a": b"1", "b": b"2"}

    def test_atomicity_holds_across_batched_reads(self):
        """A batch decided against a growing read set stays an atomic readset."""
        node = self.make_node()
        self.seed_keys(node, {"x": b"x0", "y": b"y0"})
        reader = node.start_transaction()
        first = node.get(reader, "x")

        writer = node.start_transaction()
        node.put(writer, "x", b"x1")
        node.put(writer, "y", b"y1")
        node.commit_transaction(writer)

        values = node.get_many(reader, ["y"])
        # y1 was cowritten with x1, but we already read x0 — returning y1
        # would fracture the earlier read, so the older y0 must be chosen.
        assert first == b"x0"
        assert values["y"] == b"y0"
