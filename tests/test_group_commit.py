"""Tests for cross-transaction group commit and its write-ordering invariant.

The critical property (paper §3.3, strengthened across a batch): no commit
record may become durable before *all* data it references.  A fault injected
between the combined data stage and the commit-record stage must leave no
visible state — readers keep seeing the pre-batch versions, never a mix.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import runtime
from repro.clock import LogicalClock
from repro.config import AftConfig
from repro.core.commit_set import CommitSetStore
from repro.core.group_commit import GroupCommitter, PendingCommit
from repro.core.node import AftNode
from repro.core.transaction import TransactionStatus
from repro.errors import StorageUnavailableError
from repro.ids import is_commit_record_key
from repro.storage.latency import ConstantLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage


class CommitRecordFailingStorage(InMemoryStorage):
    """Fails every write of a commit record while letting data through.

    Because the commit plan persists data in stage one and records in stage
    two, this injects a fault exactly *between* the two stages: all data
    lands, no record does — the same state a node crash at that point leaves.
    """

    def __init__(self) -> None:
        super().__init__()
        self.failing = True

    def _check(self, keys) -> None:
        if self.failing and any(is_commit_record_key(key) for key in keys):
            raise StorageUnavailableError("injected fault: commit-record write lost")

    async def put_async(self, key, value):
        self._check([key])
        await super().put_async(key, value)

    async def multi_put_async(self, items):
        self._check(items.keys())
        await super().multi_put_async(items)


def make_node(storage, clock=None, **config_overrides) -> AftNode:
    node = AftNode(
        storage,
        config=AftConfig(**config_overrides),
        clock=clock or LogicalClock(start=100.0, auto_step=0.001),
        node_id="gc-test-node",
    )
    node.start()
    return node


def open_txn(node, items) -> str:
    txid = node.start_transaction()
    for key, value in items.items():
        node.put(txid, key, value)
    return txid


class TestBatchCommit:
    def test_commit_transactions_coalesces_into_one_flush(self):
        storage = InMemoryStorage()
        node = make_node(storage)
        txids = [open_txn(node, {f"k{i}-{j}": b"v" for j in range(2)}) for i in range(5)]

        results = node.commit_transactions(txids)

        assert set(results) == set(txids)
        assert node.stats.group_commits == 1
        assert node.stats.group_commit_batched_txns == 5
        assert node.group_committer.stats.largest_batch == 5
        reader = node.start_transaction()
        for i in range(5):
            assert node.get(reader, f"k{i}-0") == b"v"

    def test_batches_are_chunked_by_max_txns(self):
        node = make_node(InMemoryStorage(), group_commit_max_txns=2)
        txids = [open_txn(node, {f"k{i}": b"v"}) for i in range(5)]
        node.commit_transactions(txids)
        assert node.stats.group_commits == 3  # 2 + 2 + 1
        assert node.stats.group_commit_batched_txns == 5

    def test_read_only_transactions_commit_without_records(self):
        storage = InMemoryStorage()
        node = make_node(storage)
        commit_store = CommitSetStore(storage)
        writer = open_txn(node, {"k": b"v"})
        reader = node.start_transaction()
        node.get(reader, "k")

        results = node.commit_transactions([writer, reader])
        assert len(results) == 2
        assert commit_store.count() == 1  # only the writer left a record

    def test_recommitting_a_committed_transaction_is_idempotent(self):
        node = make_node(InMemoryStorage())
        txid = open_txn(node, {"k": b"v"})
        first = node.commit_transaction(txid)
        again = node.commit_transactions([txid])
        assert again[txid] == first

    def test_commit_ids_stay_monotonic_within_a_batch(self):
        node = make_node(InMemoryStorage())
        txids = [open_txn(node, {f"k{i}": b"v"}) for i in range(4)]
        results = node.commit_transactions(txids)
        ids = [results[txid] for txid in txids]
        assert ids == sorted(ids)


class TestWriteOrderingUnderFaults:
    def test_fault_between_data_and_record_stages_exposes_nothing(self):
        storage = CommitRecordFailingStorage()
        node = make_node(storage)
        commit_store = CommitSetStore(storage)

        # Preload a consistent baseline version of both keys.
        storage.failing = False
        setup = open_txn(node, {"x": b"x0", "y": b"y0"})
        node.commit_transaction(setup)
        storage.failing = True

        txid = open_txn(node, {"x": b"x1", "y": b"y1"})
        with pytest.raises(StorageUnavailableError):
            node.commit_transaction(txid)

        # Not committed: no record durable, the transaction is still open,
        # and readers see the old, consistent versions of *both* keys.
        assert commit_store.count() == 1
        assert node.transaction_status(txid) is TransactionStatus.RUNNING
        reader = node.start_transaction()
        assert node.get(reader, "x") == b"x0"
        assert node.get(reader, "y") == b"y0"

    def test_fault_mid_group_batch_fractures_no_reads(self):
        storage = CommitRecordFailingStorage()
        node = make_node(storage)

        storage.failing = False
        setup = open_txn(node, {"a": b"a0", "b": b"b0", "c": b"c0"})
        node.commit_transaction(setup)
        storage.failing = True

        txids = [
            open_txn(node, {"a": b"a1", "b": b"b1"}),
            open_txn(node, {"c": b"c1"}),
        ]
        with pytest.raises(StorageUnavailableError):
            node.commit_transactions(txids)

        # The whole batch is invisible; every key still reads its old version.
        reader = node.start_transaction()
        assert node.get(reader, "a") == b"a0"
        assert node.get(reader, "b") == b"b0"
        assert node.get(reader, "c") == b"c0"
        assert node.stats.group_commits == 0

    def test_partial_chunk_failure_finalizes_durable_chunks(self):
        """A failed chunk must not un-commit the chunks that already flushed.

        With max_txns=1 a three-transaction batch flushes as three chunks; if
        only the second chunk's record write fails, the first and third have
        durable commit records — they ARE committed and must become visible
        even though the batch call raises for the failed one.
        """

        class SecondRecordFailingStorage(InMemoryStorage):
            def __init__(self) -> None:
                super().__init__()
                self.record_writes = 0

            async def put_async(self, key, value):
                if is_commit_record_key(key):
                    self.record_writes += 1
                    if self.record_writes == 2:
                        raise StorageUnavailableError("injected fault: second record lost")
                await super().put_async(key, value)

        storage = SecondRecordFailingStorage()
        node = make_node(storage, group_commit_max_txns=1)
        commit_store = CommitSetStore(storage)
        txids = [open_txn(node, {f"pk{i}": f"pv{i}".encode()}) for i in range(3)]

        with pytest.raises(StorageUnavailableError) as excinfo:
            node.commit_transactions(txids)

        # The raised error names the transactions that DID become durable, so
        # batch drivers (the simulator's group-commit gate) can succeed their
        # members instead of failing the whole batch.
        partial = excinfo.value.partial_commit_results
        assert set(partial) == {txids[0], txids[2]}
        assert commit_store.count() == 2
        assert node.transaction_status(txids[0]) is TransactionStatus.COMMITTED
        assert node.transaction_status(txids[1]) is TransactionStatus.RUNNING
        assert node.transaction_status(txids[2]) is TransactionStatus.COMMITTED
        reader = node.start_transaction()
        assert node.get(reader, "pk0") == b"pv0"
        assert node.get(reader, "pk1") is None
        assert node.get(reader, "pk2") == b"pv2"

    def test_aborted_member_does_not_poison_the_batch(self):
        """A prepare-phase failure (one member aborted before the flush) must
        not fail the whole batch: the healthy members commit, and the raised
        error names them in partial_commit_results."""
        from repro.errors import TransactionAbortedError

        node = make_node(InMemoryStorage())
        good = open_txn(node, {"gk": b"gv"})
        doomed = open_txn(node, {"dk": b"dv"})
        node.abort_transaction(doomed)

        with pytest.raises(TransactionAbortedError) as excinfo:
            node.commit_transactions([good, doomed])
        assert set(excinfo.value.partial_commit_results) == {good}
        assert node.transaction_status(good) is TransactionStatus.COMMITTED
        reader = node.start_transaction()
        assert node.get(reader, "gk") == b"gv"
        assert node.get(reader, "dk") is None

    def test_recovery_after_fault_recommits_cleanly(self):
        storage = CommitRecordFailingStorage()
        node = make_node(storage)
        txid = open_txn(node, {"k": b"v1"})
        with pytest.raises(StorageUnavailableError):
            node.commit_transaction(txid)

        # The storage heals; the same transaction can commit (idempotent
        # client retry) and becomes fully visible.
        storage.failing = False
        commit_id = node.commit_transaction(txid)
        assert commit_id is not None
        reader = node.start_transaction()
        assert node.get(reader, "k") == b"v1"


class TestConcurrentCoalescing:
    def test_concurrent_commits_share_flushes(self):
        node = make_node(
            InMemoryStorage(),
            group_commit_window=0.2,
            group_commit_max_txns=8,
        )
        txids = [open_txn(node, {f"t{i}": b"v"}) for i in range(6)]
        barrier = threading.Barrier(len(txids))
        errors: list[BaseException] = []

        def commit(txid: str) -> None:
            try:
                barrier.wait(timeout=5.0)
                node.commit_transaction(txid)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=commit, args=(txid,)) for txid in txids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert not errors
        assert node.stats.transactions_committed == 6
        assert node.stats.group_commit_batched_txns == 6
        # At least some commits rode a shared batch: the threads rendezvous
        # on the runtime loop, where the open batch waits out its window.
        assert node.group_committer.stats.largest_batch >= 2
        assert node.stats.group_commits < 6
        reader = node.start_transaction()
        for i in range(6):
            assert node.get(reader, f"t{i}") == b"v"


class TestFullBatchFlushesEarly:
    """A batch that reaches ``group_commit_max_txns`` does not wait out the window."""

    WINDOW = 5.0

    def full_batch_node(self) -> tuple[AftNode, list[str]]:
        node = make_node(
            InMemoryStorage(),
            group_commit_window=self.WINDOW,
            group_commit_max_txns=4,
        )
        return node, [open_txn(node, {f"f{i}": b"v"}) for i in range(4)]

    def test_awaited_commits_return_as_soon_as_the_batch_fills(self):
        node, txids = self.full_batch_node()

        async def run() -> float:
            start = time.monotonic()
            await asyncio.wait_for(
                asyncio.gather(*(node.commit_transaction_async(txid) for txid in txids)),
                timeout=self.WINDOW - 1.0,
            )
            return time.monotonic() - start

        assert asyncio.run(run()) < 1.0
        assert node.stats.group_commits == 1
        assert node.group_committer.stats.largest_batch == 4

    def test_threads_on_the_sync_facade_return_as_soon_as_the_batch_fills(self):
        node, txids = self.full_batch_node()
        start = time.monotonic()
        threads = [
            threading.Thread(target=node.commit_transaction, args=(txid,), daemon=True)
            for txid in txids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.WINDOW - 1.0)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - start < 1.0
        assert node.stats.transactions_committed == 4
        assert node.stats.group_commits == 1

    def test_a_cancelled_member_does_not_cancel_the_others(self):
        node = make_node(
            InMemoryStorage(),
            group_commit_window=0.05,
            group_commit_max_txns=8,
        )
        impatient, patient = (open_txn(node, {f"c{i}": b"v"}) for i in range(2))

        async def run():
            doomed = asyncio.ensure_future(node.commit_transaction_async(impatient))
            waiter = asyncio.ensure_future(node.commit_transaction_async(patient))
            await asyncio.sleep(0)
            doomed.cancel()
            return await waiter

        assert asyncio.run(run()) is not None
        assert node.transaction_status(patient) is TransactionStatus.COMMITTED


class TestSimulatorGuards:
    def test_config_rejects_contradictory_group_commit_combinations(self):
        with pytest.raises(ValueError):
            AftConfig(group_commit_window=0.01, enable_io_pipeline=False)
        with pytest.raises(ValueError):
            AftConfig(group_commit_window=0.01, batch_commit_writes=False)
        with pytest.raises(ValueError):
            AftConfig(group_commit_max_txns=0)
        with pytest.raises(ValueError):
            AftConfig(group_commit_window=-1.0)


class TestGroupCommitterDirect:
    """The one committer, driven the way the sync facades drive it."""

    def pendings_for(self, count: int) -> list[PendingCommit]:
        node = make_node(InMemoryStorage())  # only used to mint records
        pendings = []
        for i in range(count):
            txid = open_txn(node, {f"k{i}": b"v"})
            prepared = node._prepare_commit(txid)
            pendings.append(PendingCommit(txid=txid, record=prepared.record, data=prepared.to_persist))
        return pendings

    def test_flush_error_propagates_to_every_member(self):
        storage = CommitRecordFailingStorage()
        committer = GroupCommitter(storage, CommitSetStore(storage), max_txns=4)
        pendings = self.pendings_for(2)

        with pytest.raises(StorageUnavailableError):
            runtime.drive(committer.commit_batch(pendings), storage)
        for pending in pendings:
            assert isinstance(pending.error, StorageUnavailableError)
            assert pending.done.is_set()
            assert pending.batch_size == 2
        assert committer.stats.flushes == 0

    def test_stats_track_flushes(self):
        storage = InMemoryStorage()
        flushed: list[int] = []
        committer = GroupCommitter(
            storage, CommitSetStore(storage), max_txns=2, on_flush=flushed.append
        )
        pendings = self.pendings_for(3)
        assert runtime.drive(committer.commit_batch(pendings), storage) == pendings
        assert committer.stats.flushes == 2
        assert committer.stats.transactions_flushed == 3
        assert committer.stats.largest_batch == 2
        assert flushed == [2, 1]
        assert [pending.batch_size for pending in pendings] == [2, 2, 1]
        assert all(pending.done.is_set() and pending.error is None for pending in pendings)

    def test_single_commit_without_a_window_is_a_batch_of_one(self):
        storage = InMemoryStorage()
        committer = GroupCommitter(storage, CommitSetStore(storage), max_txns=4)
        (pending,) = self.pendings_for(1)
        assert runtime.drive(committer.commit(pending), storage) is pending
        assert pending.batch_size == 1 and committer.stats.flushes == 1
        assert CommitSetStore(storage).count() == 1

    def test_cancelled_batch_stops_issuing_chunks(self):
        """Cancellation is not a per-member error to flush past: the chunk in
        flight fails its members and no later chunk is issued."""
        storage = LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(0.05))
        committer = GroupCommitter(storage, CommitSetStore(storage), max_txns=1)
        pendings = self.pendings_for(3)

        async def run():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(committer.commit_batch(pendings), timeout=0.01)

        asyncio.run(run())
        assert isinstance(pendings[0].error, asyncio.CancelledError)
        assert not pendings[1].done.is_set() and not pendings[2].done.is_set()
        assert committer.stats.flushes == 0
