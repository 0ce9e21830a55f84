"""Tests for the commit multicast, the fault manager, and their interplay (§4)."""

from __future__ import annotations

import pytest

from repro.core.fault_manager import FaultManager
from repro.core.multicast import MulticastService
from repro.core.node import AftNode
from repro.config import AftConfig
from repro.core.commit_set import CommitSetStore
from repro.storage.memory import InMemoryStorage
from repro.clock import LogicalClock


@pytest.fixture
def clock():
    return LogicalClock(start=100.0, auto_step=0.001)


@pytest.fixture
def shared_storage():
    return InMemoryStorage()


@pytest.fixture
def commit_store(shared_storage):
    return CommitSetStore(shared_storage)


def make_node(shared_storage, commit_store, clock, node_id, **config_overrides) -> AftNode:
    node = AftNode(
        shared_storage,
        commit_store=commit_store,
        config=AftConfig(**config_overrides),
        clock=clock,
        node_id=node_id,
    )
    node.start()
    return node


class TestMulticast:
    def test_commits_propagate_to_peers(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)

        txid = a.start_transaction()
        a.put(txid, "k", b"v")
        a.commit_transaction(txid)
        multicast.run_once()

        reader = b.start_transaction()
        assert b.get(reader, "k") == b"v"

    def test_superseded_commits_are_pruned_from_broadcast(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService(prune_superseded=True)
        multicast.register_node(a)
        multicast.register_node(b)

        for value in (b"v1", b"v2", b"v3"):
            txid = a.start_transaction()
            a.put(txid, "k", value)
            a.commit_transaction(txid)
        multicast.run_once()

        assert multicast.stats.records_pruned == 2
        assert multicast.stats.records_broadcast == 1
        reader = b.start_transaction()
        assert b.get(reader, "k") == b"v3"

    def test_pruning_can_be_disabled(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a", prune_superseded_broadcasts=False)
        b = make_node(shared_storage, commit_store, clock, "b", prune_superseded_broadcasts=False)
        multicast = MulticastService(prune_superseded=False)
        multicast.register_node(a)
        multicast.register_node(b)

        for value in (b"v1", b"v2", b"v3"):
            txid = a.start_transaction()
            a.put(txid, "k", value)
            a.commit_transaction(txid)
        multicast.run_once()
        assert multicast.stats.records_broadcast == 3
        assert multicast.stats.records_pruned == 0
        assert len(b.metadata_cache) >= 3

    def test_failed_nodes_are_skipped(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        b.fail()

        txid = a.start_transaction()
        a.put(txid, "k", b"v")
        a.commit_transaction(txid)
        # Must not raise even though a peer is down.
        multicast.run_once()
        assert b.stats.remote_commits_applied == 0

    def test_fault_manager_receives_unpruned_records(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        multicast = MulticastService(prune_superseded=True)
        multicast.register_node(a)
        manager = FaultManager(shared_storage, commit_store, multicast)

        for value in (b"v1", b"v2"):
            txid = a.start_transaction()
            a.put(txid, "k", value)
            a.commit_transaction(txid)
        multicast.run_once()
        # Pruning hides v1 from peers, but the fault manager sees everything.
        assert manager.global_gc.known_transactions() == 2


class TestFaultManager:
    def test_scan_recovers_unbroadcast_commits(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        manager = FaultManager(shared_storage, commit_store, multicast)

        # Node a commits, acknowledges the client ... and dies before the
        # multicast round (Section 4.2's liveness scenario).
        txid = a.start_transaction()
        a.put(txid, "k", b"must-not-be-lost")
        commit_id = a.commit_transaction(txid)
        a.fail()

        recovered = manager.scan_commit_set()
        assert [record.txid for record in recovered] == [commit_id]

        reader = b.start_transaction()
        assert b.get(reader, "k") == b"must-not-be-lost"

    def test_scan_is_idempotent(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        multicast = MulticastService()
        multicast.register_node(a)
        manager = FaultManager(shared_storage, commit_store, multicast)

        txid = a.start_transaction()
        a.put(txid, "k", b"v")
        a.commit_transaction(txid)
        assert len(manager.scan_commit_set()) == 1
        assert manager.scan_commit_set() == []

    def test_broadcast_commits_are_not_rescanned(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        multicast = MulticastService()
        multicast.register_node(a)
        manager = FaultManager(shared_storage, commit_store, multicast)

        txid = a.start_transaction()
        a.put(txid, "k", b"v")
        a.commit_transaction(txid)
        multicast.run_once()
        assert manager.scan_commit_set() == []

    def test_group_committed_batch_is_recovered_by_scan(self, shared_storage, commit_store, clock):
        """All records of a group-commit flush survive the committing node."""
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        manager = FaultManager(shared_storage, commit_store, multicast)

        txids = []
        for i in range(3):
            txid = a.start_transaction()
            a.put(txid, f"gk{i}", f"gv{i}".encode())
            txids.append(txid)
        commit_ids = a.commit_transactions(txids)
        a.fail()  # dies before any multicast round

        recovered = {record.txid for record in manager.scan_commit_set()}
        assert recovered == set(commit_ids.values())
        reader = b.start_transaction()
        for i in range(3):
            assert b.get(reader, f"gk{i}") == f"gv{i}".encode()

    def test_fault_between_group_stages_leaves_nothing_to_recover(
        self, shared_storage, commit_store, clock
    ):
        """A crash between the data and commit-record stages exposes no state.

        The group-commit plan writes all data first; if the node dies before
        the record stage, the scan finds no records and peers keep reading
        the old versions — no fractured read, only orphaned data keys that
        the global GC will reap.
        """
        from repro.errors import StorageUnavailableError
        from repro.ids import is_commit_record_key

        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        manager = FaultManager(shared_storage, commit_store, multicast)

        setup = a.start_transaction()
        a.put(setup, "p", b"p0")
        a.put(setup, "q", b"q0")
        a.commit_transaction(setup)
        multicast.run_once()

        original_put = shared_storage.put_async
        original_multi_put = shared_storage.multi_put_async

        async def failing_put(key, value):
            if is_commit_record_key(key):
                raise StorageUnavailableError("crash before the record stage")
            await original_put(key, value)

        async def failing_multi_put(items):
            if any(is_commit_record_key(key) for key in items):
                raise StorageUnavailableError("crash before the record stage")
            await original_multi_put(items)

        shared_storage.put_async = failing_put
        shared_storage.multi_put_async = failing_multi_put
        try:
            txid = a.start_transaction()
            a.put(txid, "p", b"p1")
            a.put(txid, "q", b"q1")
            with pytest.raises(StorageUnavailableError):
                a.commit_transactions([txid])
        finally:
            shared_storage.put_async = original_put
            shared_storage.multi_put_async = original_multi_put
        a.fail()

        assert manager.scan_commit_set() == []
        reader = b.start_transaction()
        assert b.get(reader, "p") == b"p0"
        assert b.get(reader, "q") == b"q0"

    def test_detect_failures(self, shared_storage, commit_store, clock):
        a = make_node(shared_storage, commit_store, clock, "a")
        b = make_node(shared_storage, commit_store, clock, "b")
        multicast = MulticastService()
        manager = FaultManager(shared_storage, commit_store, multicast)
        assert manager.detect_failures([a, b]) == []
        b.fail()
        assert manager.detect_failures([a, b]) == [b]
        assert manager.stats.failures_detected == 1
