"""Tests for the sharded fault manager: digests, sweeps, recovery, and the
hypothesis oracle proving parity with the seed's singleton reference."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import LogicalClock
from repro.config import AftConfig, ClusterConfig, FaultManagerConfig
from repro.core.cluster import AftCluster
from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.fault_manager import FaultManager, SeenDigest
from repro.core.fault_manager_reference import ReferenceFaultManager
from repro.core.multicast import MulticastService
from repro.core.node import AftNode
from repro.ids import TransactionId, commit_record_key, data_key
from repro.storage.memory import InMemoryStorage


@pytest.fixture
def clock():
    return LogicalClock(start=100.0, auto_step=0.001)


@pytest.fixture
def storage():
    return InMemoryStorage()


@pytest.fixture
def commit_store(storage):
    return CommitSetStore(storage)


def make_node(storage, commit_store, clock, node_id, **config_overrides) -> AftNode:
    node = AftNode(
        storage,
        commit_store=commit_store,
        config=AftConfig(**config_overrides),
        clock=clock,
        node_id=node_id,
    )
    node.start()
    return node


def make_record(index: int, keys: list[str] | None = None, node_id: str = "n0") -> CommitRecord:
    txid = TransactionId(timestamp=float(index), uuid=f"u{index:04d}")
    keys = keys if keys is not None else [f"k{index % 4}"]
    return CommitRecord(
        txid=txid,
        write_set={key: data_key(key, txid) for key in keys},
        committed_at=float(index),
        node_id=node_id,
    )


class TestSeenDigest:
    def test_add_and_contains(self):
        digest = SeenDigest()
        a, b = make_record(1).txid, make_record(2).txid
        assert digest.add(a)
        assert not digest.add(a)
        assert a in digest and b not in digest

    def test_watermark_covers_everything_below(self):
        digest = SeenDigest()
        ids = [make_record(i).txid for i in range(10)]
        for txid in ids:
            digest.add(txid)
        pruned = digest.advance_watermark(TransactionId(timestamp=5.0, uuid=""))
        # Ids 0..4 fall below the watermark and leave the window...
        assert pruned == 5
        assert digest.window_size == 5
        # ...but stay logically seen.
        assert all(txid in digest for txid in ids)
        # Adding below the watermark is a no-op (already covered).
        assert not digest.add(ids[0])

    def test_watermark_never_moves_backwards(self):
        digest = SeenDigest()
        digest.advance_watermark(TransactionId(timestamp=9.0, uuid=""))
        assert digest.advance_watermark(TransactionId(timestamp=3.0, uuid="")) == 0
        assert digest.watermark == TransactionId(timestamp=9.0, uuid="")

    def test_discard_prunes_window(self):
        digest = SeenDigest()
        txid = make_record(1).txid
        digest.add(txid)
        digest.discard(txid)
        assert txid not in digest


class TestShardPartitioning:
    def test_every_id_maps_to_exactly_one_shard(self, storage, commit_store):
        manager = FaultManager(
            storage, commit_store, MulticastService(), config=FaultManagerConfig(num_shards=4)
        )
        assert len(manager.shards) == 4
        ids = [make_record(i).txid for i in range(200)]
        owners = {txid: manager.shard_for(txid).shard_id for txid in ids}
        # Stable and spread: repeated lookups agree, and no shard owns everything.
        assert all(manager.shard_for(txid).shard_id == owner for txid, owner in owners.items())
        assert len(set(owners.values())) > 1

    def test_unregistered_manager_stops_receiving_broadcasts(
        self, storage, commit_store, clock
    ):
        a = make_node(storage, commit_store, clock, "a")
        multicast = MulticastService()
        multicast.register_node(a)
        manager = FaultManager(storage, commit_store, multicast)

        txid = a.start_transaction()
        a.put(txid, "k", b"v1")
        a.commit_transaction(txid)
        multicast.run_once()
        assert manager.global_gc.known_transactions() == 1

        multicast.unregister_fault_manager(manager)
        txid = a.start_transaction()
        a.put(txid, "k", b"v2")
        a.commit_transaction(txid)
        multicast.run_once()
        assert manager.global_gc.known_transactions() == 1

    def test_single_shard_degenerates(self, storage, commit_store):
        manager = FaultManager(
            storage, commit_store, MulticastService(), config=FaultManagerConfig(num_shards=1)
        )
        ids = [make_record(i).txid for i in range(20)]
        assert len({manager.shard_for(txid).shard_id for txid in ids}) == 1


class TestShardedScan:
    def test_scan_recovers_unbroadcast_commits(self, storage, commit_store, clock):
        a = make_node(storage, commit_store, clock, "a")
        b = make_node(storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        manager = FaultManager(
            storage, commit_store, multicast, config=FaultManagerConfig(num_shards=4)
        )

        txid = a.start_transaction()
        a.put(txid, "k", b"must-not-be-lost")
        commit_id = a.commit_transaction(txid)
        a.fail()

        recovered = manager.scan_commit_set()
        assert [record.txid for record in recovered] == [commit_id]
        assert manager.has_seen(commit_id)
        assert manager.scan_commit_set() == []

        reader = b.start_transaction()
        assert b.get(reader, "k") == b"must-not-be-lost"

    def test_torn_record_read_is_retried_not_forgotten(self, storage, commit_store):
        """The satellite bugfix: a ``read_record`` returning None mid-scan
        enters the explicit retry set, blocks the watermark, and is recovered
        once readable — never silently skipped."""
        multicast = MulticastService()
        manager = FaultManager(
            storage,
            commit_store,
            multicast,
            config=FaultManagerConfig(num_shards=2, watermark_lag=1.0),
        )
        records = [make_record(i) for i in range(20)]
        torn = records[0]
        for record in records:
            commit_store.write_record(record)
        manager.receive_commits(records[1:])  # everything except the torn one

        blocking = [True]
        blocked_key = commit_record_key(torn.txid)
        original_get, original_multi = storage.get_async, storage.multi_get_async

        async def get(key):
            if blocking[0] and key == blocked_key:
                return None
            return await original_get(key)

        async def multi_get(keys):
            out = await original_multi(keys)
            if blocking[0] and blocked_key in out:
                out[blocked_key] = None
            return out

        storage.get_async, storage.multi_get_async = get, multi_get
        try:
            assert manager.scan_commit_set() == []
            shard = manager.shard_for(torn.txid)
            assert torn.txid in shard.pending_reads
            # The completed cycle advanced the watermark, but never past the
            # unresolved read.
            assert shard.digest.watermark is None or shard.digest.watermark < torn.txid
            assert manager.stats.torn_reads_deferred == 1
            # Still unreadable on the next sweep: retried, still pending.
            assert manager.scan_commit_set() == []
            assert shard.pending_reads[torn.txid] == 2
        finally:
            storage.get_async, storage.multi_get_async = original_get, original_multi

        recovered = manager.scan_commit_set()
        assert [record.txid for record in recovered] == [torn.txid]
        assert torn.txid not in shard.pending_reads
        assert manager.has_seen(torn.txid)

    def test_budget_bounded_scan_resumes_from_cursor(self, storage, commit_store):
        records = [make_record(i) for i in range(12)]
        for record in records:
            commit_store.write_record(record)
        manager = FaultManager(
            storage,
            commit_store,
            MulticastService(),
            config=FaultManagerConfig(num_shards=2, max_records_per_scan=3),
        )
        recovered: set[TransactionId] = set()
        scans = 0
        while len(recovered) < len(records):
            scans += 1
            assert scans < 20, "budgeted scans must make progress"
            recovered |= {record.txid for record in manager.scan_commit_set()}
        assert recovered == {record.txid for record in records}
        # Budgeted sweeps took several passes — the cursor carried progress.
        assert scans > 1

    def test_budgeted_sweeps_still_advance_watermark(self, storage, commit_store):
        """A cycle may span many budget-bounded calls; the call that reaches
        the end of the slice must still complete it and advance the
        watermark, or budgeted managers would regrow the unbounded set."""
        manager = FaultManager(
            storage,
            commit_store,
            MulticastService(),
            config=FaultManagerConfig(num_shards=1, max_records_per_scan=5, watermark_lag=0.0),
        )
        records = [make_record(i) for i in range(50)]
        for record in records:
            commit_store.write_record(record)
        manager.receive_commits(records)
        for _ in range(15):
            manager.scan_commit_set()
        shard = manager.shards[0]
        assert shard.digest.watermark is not None
        assert manager.memory_footprint()["window_entries"] < len(records)
        assert all(manager.has_seen(record.txid) for record in records)

    def test_crashed_shard_rescans_from_storage(self, storage, commit_store):
        """The manager is stateless with respect to liveness: a replacement
        (fresh state, cursor at the oldest id) re-finds everything a dead
        shard had not yet broadcast."""
        records = [make_record(i) for i in range(10)]
        for record in records:
            commit_store.write_record(record)
        config = FaultManagerConfig(num_shards=4, max_records_per_scan=2)
        first = FaultManager(storage, commit_store, MulticastService(), config=config)
        first.scan_commit_set()  # partial progress, then the manager "dies"

        replacement = FaultManager(storage, commit_store, MulticastService(), config=config)
        recovered: set[TransactionId] = set()
        for _ in range(20):
            recovered |= {record.txid for record in replacement.scan_commit_set()}
        assert recovered == {record.txid for record in records}

    def test_watermark_bounds_digest_memory(self, storage, commit_store):
        manager = FaultManager(
            storage,
            commit_store,
            MulticastService(),
            config=FaultManagerConfig(num_shards=2, watermark_lag=10.0),
        )
        records = [make_record(i) for i in range(100)]
        for record in records:
            commit_store.write_record(record)
        manager.receive_commits(records)
        manager.scan_commit_set()  # completed cycle -> watermark advances

        footprint = manager.memory_footprint()
        # The window holds roughly the lag's worth of ids, not the history.
        assert footprint["window_entries"] < 30
        assert manager.stats.watermark_prunes > 0
        # Everything stays logically seen even after pruning.
        assert all(manager.has_seen(record.txid) for record in records)
        assert manager.scan_commit_set() == []

    def test_gc_deletions_prune_digest(self, storage, commit_store, clock):
        a = make_node(storage, commit_store, clock, "a")
        multicast = MulticastService(prune_superseded=False)
        multicast.register_node(a)
        manager = FaultManager(
            storage, commit_store, multicast, config=FaultManagerConfig(num_shards=2)
        )
        old_values = []
        for value in (b"v1", b"v2"):
            txid = a.start_transaction()
            a.put(txid, "k", value)
            old_values.append(a.commit_transaction(txid))
        a.forget_finished_transactions()
        multicast.run_once()

        from repro.core.garbage_collector import LocalMetadataGC

        LocalMetadataGC(a).run_once()
        deleted = manager.run_global_gc([a])
        assert deleted == [old_values[0]]
        shard = manager.shard_for(old_values[0])
        assert old_values[0] not in shard.digest._window


class TestParallelRecovery:
    def test_recovery_replays_unbroadcast_and_reclaims_spills(
        self, storage, commit_store, clock
    ):
        a = make_node(storage, commit_store, clock, "a", write_buffer_spill_bytes=16)
        b = make_node(storage, commit_store, clock, "b")
        multicast = MulticastService()
        multicast.register_node(a)
        multicast.register_node(b)
        manager = FaultManager(
            storage, commit_store, multicast, config=FaultManagerConfig(num_shards=4)
        )

        # Commit-acked but never broadcast...
        committed = a.start_transaction()
        a.put(committed, "durable", b"must-not-be-lost")
        commit_id = a.commit_transaction(committed)
        # ...plus an in-flight transaction whose large write already spilled.
        in_flight = a.start_transaction()
        a.put(in_flight, "big", b"x" * 64)
        spilled = list(a.write_buffer.spilled_keys(in_flight).values())
        assert spilled and storage.get(spilled[0]) is not None
        a.fail()

        report = manager.recover_node_failure(a)
        assert [record.txid for record in report.recovered] == [commit_id]
        assert report.orphan_spills_reclaimed == len(spilled)
        assert len(report.per_shard_recovered) == 4
        # The orphaned spill is gone from storage; the committed data survives.
        assert storage.get(spilled[0]) is None
        reader = b.start_transaction()
        assert b.get(reader, "durable") == b"must-not-be-lost"

    def test_one_recovery_over_four_shards(self, storage, commit_store, clock):
        records = [make_record(i, node_id="crashed") for i in range(30)]
        for record in records:
            commit_store.write_record(record)
        crashed = AftNode(storage, commit_store=commit_store, clock=clock, node_id="crashed")
        manager = FaultManager(
            storage,
            commit_store,
            MulticastService(),
            config=FaultManagerConfig(num_shards=4),
        )
        report = manager.recover_node_failure(crashed)
        assert sorted(record.txid for record in report.recovered) == sorted(
            record.txid for record in records
        )
        assert len(report.per_shard_recovered) == 4

    def test_cluster_failover_promotes_standby(self, clock):
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(num_nodes=3, standby_nodes=1),
            clock=clock,
        )
        client = cluster.client()
        txid = client.start_transaction()
        owner = client.node_for(txid)
        client.put(txid, "k", b"survives")
        client.commit_transaction(txid)
        cluster.fail_node(owner)

        replacements = cluster.replace_failed_nodes()
        assert len(replacements) == 1
        assert replacements[0].node_id.startswith("aft-standby-")
        assert len(cluster.nodes) == 3
        # Recovery already replayed the victim's unbroadcast commit...
        assert cluster.fault_manager.stats.node_recoveries == 1
        assert cluster.fault_manager.stats.unbroadcast_commits_recovered >= 1
        # ...and the pool was restocked for the next failure.
        assert cluster.standby_count() == 1
        survivor = cluster.live_nodes()[0]
        reader = survivor.start_transaction()
        assert survivor.get(reader, "k") == b"survives"

    def test_retired_node_is_not_detected_as_failed(self, clock):
        """absorb_retired_node racing detect_failures: the fault manager must
        not double-replace a node that left via graceful scale-down."""
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(num_nodes=3, standby_nodes=1),
            clock=clock,
        )
        victim = cluster.nodes[0]
        # detect_failures may run against a membership snapshot taken before
        # the retirement completed.
        snapshot = cluster.nodes
        cluster.begin_drain(victim)
        cluster.retire_drained_nodes(force=True)
        assert not victim.is_running and victim.was_retired
        assert cluster.fault_manager.detect_failures(snapshot) == []
        assert cluster.replace_failed_nodes() == []
        assert len(cluster.nodes) == 2

    def test_concurrent_failover_and_scale_down(self, clock):
        """Scale-down and failure recovery racing on different nodes must
        neither lose a replacement nor double-replace the retiree."""
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(num_nodes=4, standby_nodes=2),
            clock=clock,
        )
        retiree, crashed = cluster.nodes[0], cluster.nodes[1]
        cluster.begin_drain(retiree)
        cluster.fail_node(crashed)

        errors: list[Exception] = []

        def run(action):
            try:
                action()
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(lambda: cluster.retire_drained_nodes(force=True),)),
            threading.Thread(target=run, args=(cluster.replace_failed_nodes,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        # One node retired (no replacement), one crashed (replaced): 4-1 = 3.
        assert len(cluster.nodes) == 3
        assert cluster.stats.nodes_replaced == 1
        assert cluster.stats.nodes_retired == 1
        assert retiree not in cluster.nodes and crashed not in cluster.nodes

    def test_retired_custody_is_partitioned_and_pruned(self, storage, commit_store):
        manager = FaultManager(
            storage, commit_store, MulticastService(), config=FaultManagerConfig(num_shards=4)
        )
        ids = {make_record(i).txid for i in range(40)}
        manager.absorb_retired_node("gone", ids)
        assert manager.retired_node_deletions("gone") == ids
        # Custody is spread across shards, not centralised.
        holding = [shard for shard in manager.shards if shard.retired_deletions.get("gone")]
        assert len(holding) > 1


# --------------------------------------------------------------------------- #
# Hypothesis oracle: sharded recovery == singleton reference
# --------------------------------------------------------------------------- #
KEY_POOL = [f"ok{i}" for i in range(6)]


class _Universe:
    """One fault-manager implementation over its own copy of storage."""

    def __init__(self, manager_factory):
        self.storage = InMemoryStorage()
        self.commit_store = CommitSetStore(self.storage)
        self.multicast = MulticastService()
        self.manager = manager_factory(self.storage, self.commit_store, self.multicast)

    def persist(self, record: CommitRecord) -> None:
        self.commit_store.write_record(record)

    def broadcast(self, records: list[CommitRecord]) -> None:
        self.manager.receive_commits(records)

    def scan(self) -> list[TransactionId]:
        return sorted(record.txid for record in self.manager.scan_commit_set())

    def gc(self) -> list[TransactionId]:
        return self.manager.run_global_gc([])


@st.composite
def crash_broadcast_interleavings(draw, in_order: bool):
    num_records = draw(st.integers(min_value=3, max_value=22))
    write_sets = [
        draw(st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=3, unique=True))
        for _ in range(num_records)
    ]
    #: True -> the committing node survives to broadcast; False -> it crashes
    #: between commit-ack and broadcast, leaving the record for the scan.
    broadcasts = [draw(st.booleans()) for _ in range(num_records)]
    if in_order:
        persist_order = list(range(num_records))
    else:
        persist_order = draw(st.permutations(list(range(num_records))))
    actions = draw(
        st.lists(
            st.sampled_from(["persist", "broadcast", "scan", "gc"]),
            min_size=num_records,
            max_size=num_records * 3,
        )
    )
    num_shards = draw(st.integers(min_value=2, max_value=5))
    return write_sets, broadcasts, persist_order, actions, num_shards


def run_oracle(write_sets, broadcasts, persist_order, actions, num_shards, watermark_lag):
    records = [make_record(index, keys=keys) for index, keys in enumerate(write_sets)]
    sharded = _Universe(
        lambda storage, store, multicast: FaultManager(
            storage,
            store,
            multicast,
            config=FaultManagerConfig(num_shards=num_shards, watermark_lag=watermark_lag),
        )
    )
    reference = _Universe(ReferenceFaultManager)

    to_persist = list(persist_order)
    broadcast_queue: list[CommitRecord] = []
    for action in actions + ["persist"] * len(to_persist) + ["broadcast", "scan", "scan"]:
        if action == "persist":
            if not to_persist:
                continue
            record = records[to_persist.pop(0)]
            sharded.persist(record)
            reference.persist(record)
            if broadcasts[int(record.txid.timestamp)]:
                broadcast_queue.append(record)
        elif action == "broadcast":
            if not broadcast_queue:
                continue
            sharded.broadcast(list(broadcast_queue))
            reference.broadcast(list(broadcast_queue))
            broadcast_queue.clear()
        elif action == "scan":
            assert sharded.scan() == reference.scan()
        elif action == "gc":
            assert sharded.gc() == reference.gc()

    # Terminal state: both agree on every id that can still appear in a
    # scan.  (Ids the global GC deleted are pruned from the sharded digest —
    # the bounded-memory contract — while the reference remembers them
    # forever; they can never be scanned again, so the difference is moot.)
    for record in records:
        if sharded.commit_store.contains(record.txid):
            assert sharded.manager.has_seen(record.txid) == reference.manager.has_seen(record.txid)
    # Final GC rounds agree too (identical supersedence decisions).
    assert sharded.gc() == reference.gc()
    assert (
        sharded.manager.global_gc.known_transactions()
        == reference.manager.global_gc.known_transactions()
    )


class TestShardedOracle:
    @settings(max_examples=75, deadline=None)
    @given(crash_broadcast_interleavings(in_order=True))
    def test_matches_reference_with_watermark_advancement(self, interleaving):
        """Commits persist in id order (synchronised clocks): the watermark
        advances aggressively and recovery must still match the singleton."""
        run_oracle(*interleaving, watermark_lag=2.0)

    @settings(max_examples=50, deadline=None)
    @given(crash_broadcast_interleavings(in_order=False))
    def test_matches_reference_under_unbounded_skew(self, interleaving):
        """Commits persist in arbitrary order (worst-case clock skew): with
        the watermark lag covering the skew, recovery must match exactly."""
        run_oracle(*interleaving, watermark_lag=1e9)
