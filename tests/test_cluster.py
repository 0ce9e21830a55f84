"""Tests for distributed AFT deployments: cluster, load balancer, client routing."""

from __future__ import annotations

import pytest

from repro.clock import LogicalClock
from repro.config import AftConfig, ClusterConfig
from repro.core.cluster import AftCluster
from repro.core.load_balancer import LeastLoadedLoadBalancer, RoundRobinLoadBalancer
from repro.core.node import AftNode
from repro.errors import NoAvailableNodeError, UnknownTransactionError
from repro.storage.memory import InMemoryStorage


@pytest.fixture
def cluster():
    return AftCluster(
        InMemoryStorage(),
        cluster_config=ClusterConfig(num_nodes=3),
        clock=LogicalClock(start=0.0, auto_step=0.001),
    )


class TestLoadBalancers:
    def _nodes(self, count=3):
        storage = InMemoryStorage()
        clock = LogicalClock(auto_step=0.001)
        nodes = [AftNode(storage, clock=clock, node_id=f"n{i}") for i in range(count)]
        for node in nodes:
            node.start()
        return nodes

    def test_round_robin_cycles_through_nodes(self):
        nodes = self._nodes(3)
        balancer = RoundRobinLoadBalancer(nodes)
        chosen = [balancer.next_node() for _ in range(6)]
        assert chosen == nodes + nodes

    def test_round_robin_skips_failed_nodes(self):
        nodes = self._nodes(3)
        nodes[1].fail()
        balancer = RoundRobinLoadBalancer(nodes)
        chosen = {balancer.next_node().node_id for _ in range(6)}
        assert chosen == {"n0", "n2"}

    def test_round_robin_with_no_nodes_raises(self):
        balancer = RoundRobinLoadBalancer()
        with pytest.raises(NoAvailableNodeError):
            balancer.next_node()

    def test_round_robin_with_all_failed_raises(self):
        nodes = self._nodes(2)
        for node in nodes:
            node.fail()
        balancer = RoundRobinLoadBalancer(nodes)
        with pytest.raises(NoAvailableNodeError):
            balancer.next_node()

    def test_least_loaded_prefers_idle_nodes(self):
        nodes = self._nodes(2)
        busy, idle = nodes
        for _ in range(3):
            busy.start_transaction()
        balancer = LeastLoadedLoadBalancer(nodes)
        assert balancer.next_node() is idle

    def test_add_and_remove_node(self):
        nodes = self._nodes(1)
        balancer = RoundRobinLoadBalancer(nodes)
        extra = self._nodes(1)[0]
        balancer.add_node(extra)
        assert len(balancer.nodes) == 2
        balancer.remove_node(extra)
        assert balancer.nodes == nodes


class TestClusterBasics:
    def test_cluster_creates_requested_nodes(self, cluster):
        assert len(cluster.nodes) == 3
        assert all(node.is_running for node in cluster.nodes)

    def test_commits_become_visible_cluster_wide_after_multicast(self, cluster):
        client = cluster.client()
        with client.transaction() as txn:
            txn.put("k", b"v")
            txn.put("l", b"w")
        cluster.run_multicast_round()

        # Every node can now serve the data, whichever one the LB picks next.
        for _ in range(3):
            with client.transaction() as txn:
                assert txn.get("k") == b"v"
                assert txn.get("l") == b"w"

    def test_transactions_are_pinned_to_one_node(self, cluster):
        client = cluster.client()
        txid = client.start_transaction()
        owner = client.node_for(txid)
        client.put(txid, "k", b"v")
        assert client.node_for(txid) is owner
        client.commit_transaction(txid)
        with pytest.raises(UnknownTransactionError):
            client.node_for(txid)

    def test_unknown_transaction_routing_raises(self, cluster):
        client = cluster.client()
        with pytest.raises(UnknownTransactionError):
            client.get("not-routed", "k")

    def test_session_abort_on_exception(self, cluster):
        client = cluster.client()
        with pytest.raises(RuntimeError):
            with client.transaction() as txn:
                txn.put("k", b"should-be-discarded")
                raise RuntimeError("function crashed")
        cluster.run_multicast_round()
        with client.transaction() as txn:
            assert txn.get("k") is None


class TestClusterFailureHandling:
    def test_failed_node_is_replaced_and_bootstrapped(self, cluster):
        client = cluster.client()
        with client.transaction() as txn:
            txn.put("durable", b"value")
        cluster.run_multicast_round()

        victim = cluster.nodes[0]
        cluster.fail_node(victim)
        replacements = cluster.replace_failed_nodes()
        assert len(replacements) == 1
        assert victim not in cluster.nodes
        assert len(cluster.nodes) == 3

        # The replacement warmed its metadata cache from the Commit Set and
        # can serve the old data immediately.
        replacement = replacements[0]
        reader = replacement.start_transaction()
        assert replacement.get(reader, "durable") == b"value"

    def test_commit_on_surviving_nodes_continues_during_failure(self, cluster):
        client = cluster.client()
        cluster.fail_node(cluster.nodes[0])
        with client.transaction() as txn:
            txn.put("k", b"still-works")
        assert cluster.stats.nodes_failed == 1

    def test_fault_scan_recovers_unbroadcast_commit(self, cluster):
        client = cluster.client()
        txid = client.start_transaction()
        owner = client.node_for(txid)
        client.put(txid, "k", b"survives")
        client.commit_transaction(txid)
        # The owner dies before any multicast round.
        cluster.fail_node(owner)
        cluster.run_fault_scan()

        survivor = next(node for node in cluster.live_nodes())
        reader = survivor.start_transaction()
        assert survivor.get(reader, "k") == b"survives"

    def test_tick_runs_all_background_work(self, cluster):
        client = cluster.client()
        with client.transaction() as txn:
            txn.put("k", b"v")
        cluster.tick()
        assert cluster.stats.multicast_rounds == 1
        assert cluster.stats.local_gc_rounds == 1
        assert cluster.stats.global_gc_rounds == 1
        assert cluster.stats.fault_scans == 1

    def test_shutdown_stops_all_nodes(self, cluster):
        cluster.shutdown()
        assert all(not node.is_running for node in cluster.nodes)


class TestClusterGarbageCollectionFlow:
    def test_end_to_end_gc_removes_superseded_data(self, cluster):
        client = cluster.client()
        for value in (b"v1", b"v2", b"v3"):
            with client.transaction() as txn:
                txn.put("hot-key", value)
        # Propagate, locally collect, then globally collect.
        for node in cluster.nodes:
            node.forget_finished_transactions()
        cluster.run_multicast_round()
        cluster.run_local_gc()
        deleted = cluster.run_global_gc()
        assert len(deleted) >= 1

        with client.transaction() as txn:
            assert txn.get("hot-key") == b"v3"


class TestBackgroundThreads:
    def test_background_threads_start_and_stop(self):
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(
                num_nodes=1,
                node_config=AftConfig(
                    multicast_interval=0.01,
                    gc_interval=0.01,
                    global_gc_interval=0.01,
                    fault_scan_interval=0.01,
                ),
            ),
        )
        client = cluster.client()
        with client.transaction() as txn:
            txn.put("k", b"v")
        cluster.start_background()
        import time

        time.sleep(0.15)
        cluster.stop_background()
        cluster.shutdown()
        assert cluster.stats.multicast_rounds >= 1
