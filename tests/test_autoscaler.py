"""Elasticity tests: consistent hashing, graceful drain, and the autoscaler.

Covers the correctness-critical paths of scale events:

* routing is drain-aware and pinning is atomic with drain state (a
  transaction can never land on a node that no longer accepts work);
* in-flight transactions on a draining node commit successfully;
* a retired node hands its unbroadcast commits and its locally-deleted GC
  set to the fault manager, and global GC still converges afterwards;
* the autoscaler's policy machinery (hysteresis, cooldown, floors/ceilings)
  and its end-to-end behaviour inside the discrete-event simulator.
"""

from __future__ import annotations

import pytest

from repro.clock import LogicalClock
from repro.config import AftConfig, AutoscalerPolicy, ClusterConfig
from repro.core.autoscaler import HOLD, SCALE_DOWN, SCALE_UP, Autoscaler
from repro.core.cluster import AftCluster
from repro.core.load_balancer import (
    ConsistentHashLoadBalancer,
    RoundRobinLoadBalancer,
    make_load_balancer,
)
from repro.core.node import AftNode
from repro.errors import NoAvailableNodeError, NodeDrainingError
from repro.storage.memory import InMemoryStorage


def make_nodes(count: int, storage=None, clock=None) -> list[AftNode]:
    storage = storage if storage is not None else InMemoryStorage()
    clock = clock if clock is not None else LogicalClock(auto_step=0.001)
    nodes = [AftNode(storage, clock=clock, node_id=f"n{i}") for i in range(count)]
    for node in nodes:
        node.start()
    return nodes


@pytest.fixture
def cluster():
    return AftCluster(
        InMemoryStorage(),
        cluster_config=ClusterConfig(num_nodes=3, standby_nodes=1, balancer="consistent_hash"),
        clock=LogicalClock(start=0.0, auto_step=0.001),
    )


class TestConsistentHashing:
    def test_same_key_routes_to_same_node(self):
        balancer = ConsistentHashLoadBalancer(make_nodes(4))
        owners = {balancer.next_node(affinity_key=f"key-{i}").node_id for _ in range(5) for i in (7,)}
        assert len(owners) == 1

    def test_keys_spread_across_nodes(self):
        balancer = ConsistentHashLoadBalancer(make_nodes(4))
        owners = {balancer.next_node(affinity_key=f"key-{i}").node_id for i in range(200)}
        assert len(owners) == 4

    def test_scale_event_remaps_only_a_fraction_of_keys(self):
        nodes = make_nodes(5)
        balancer = ConsistentHashLoadBalancer(nodes[:4])
        keys = [f"key-{i}" for i in range(500)]
        before = {key: balancer.next_node(affinity_key=key).node_id for key in keys}
        balancer.add_node(nodes[4])
        after = {key: balancer.next_node(affinity_key=key).node_id for key in keys}
        moved = sum(1 for key in keys if before[key] != after[key])
        # Consistency: only the segments claimed by the new node move
        # (~1/5 of keys), not a wholesale reshuffle.
        assert 0 < moved < len(keys) * 0.4
        # Every moved key moved *to* the new node, never between old nodes.
        assert all(after[key] == nodes[4].node_id for key in keys if before[key] != after[key])

    def test_key_set_routes_to_majority_owner(self):
        balancer = ConsistentHashLoadBalancer(make_nodes(4))
        keys = [f"key-{i}" for i in range(9)]
        owners = [balancer.next_node(affinity_key=key).node_id for key in keys]
        chosen = balancer.next_node(affinity_key=keys)
        counts = {node_id: owners.count(node_id) for node_id in set(owners)}
        assert counts[chosen.node_id] == max(counts.values())

    def test_draining_node_is_not_routable(self):
        nodes = make_nodes(3)
        balancer = ConsistentHashLoadBalancer(nodes)
        key = next(f"k{i}" for i in range(100) if balancer.next_node(affinity_key=f"k{i}") is nodes[1])
        nodes[1].begin_drain()
        assert balancer.next_node(affinity_key=key) is not nodes[1]
        assert nodes[1] not in balancer.routable_nodes()
        assert nodes[1] in balancer.live_nodes()

    def test_no_affinity_hint_spreads_round_robin(self):
        nodes = make_nodes(3)
        balancer = ConsistentHashLoadBalancer(nodes)
        chosen = {balancer.next_node().node_id for _ in range(3)}
        assert chosen == {"n0", "n1", "n2"}

    def test_all_nodes_draining_raises(self):
        nodes = make_nodes(2)
        balancer = ConsistentHashLoadBalancer(nodes)
        for node in nodes:
            node.begin_drain()
        with pytest.raises(NoAvailableNodeError):
            balancer.next_node(affinity_key="k")

    def test_make_load_balancer_factory(self):
        assert isinstance(make_load_balancer("round_robin"), RoundRobinLoadBalancer)
        assert isinstance(make_load_balancer("consistent_hash"), ConsistentHashLoadBalancer)
        with pytest.raises(ValueError):
            make_load_balancer("nope")


class TestDrainAtomicPinning:
    def test_draining_node_rejects_new_transactions(self):
        (node,) = make_nodes(1)
        node.begin_drain()
        with pytest.raises(NodeDrainingError):
            node.start_transaction()

    def test_draining_node_lets_inflight_transactions_finish(self):
        (node,) = make_nodes(1)
        txid = node.start_transaction()
        node.put(txid, "k", b"v")
        node.begin_drain()
        # The multi-function case: re-joining the pinned transaction and
        # finishing it must work during a drain.
        assert node.start_transaction(txid) == txid
        node.put(txid, "l", b"w")
        node.commit_transaction(txid)
        assert node.is_drained()

    def test_pin_transaction_retries_past_node_that_began_draining(self):
        nodes = make_nodes(2)
        balancer = RoundRobinLoadBalancer(nodes)
        # Simulate the race: selection happens, then the selected node begins
        # draining before the transaction is registered.
        victim = balancer.next_node()
        victim.begin_drain()
        balancer._cursor -= 1  # rewind so pinning re-selects the victim first
        node, txid = balancer.pin_transaction()
        assert node is not victim
        assert node.transaction_status(txid) is not None

    def test_pin_transaction_raises_when_everything_drains(self):
        nodes = make_nodes(2)
        balancer = RoundRobinLoadBalancer(nodes)
        for node in nodes:
            node.begin_drain()
        with pytest.raises(NoAvailableNodeError):
            balancer.pin_transaction()


class TestGracefulScaleDown:
    def test_inflight_transaction_on_draining_node_commits(self, cluster):
        client = cluster.client()
        txid = client.start_transaction(affinity_key="hot")
        owner = client.node_for(txid)
        client.put(txid, "hot", b"v1")
        cluster.begin_drain(owner)
        # New work avoids the draining node...
        other_txid = client.start_transaction(affinity_key="hot")
        assert client.node_for(other_txid) is not owner
        client.abort_transaction(other_txid)
        # ...while the pinned transaction finishes and its write is durable.
        client.commit_transaction(txid)
        cluster.run_multicast_round()
        retired = cluster.retire_drained_nodes()
        assert retired == [owner]
        with client.transaction() as txn:
            assert txn.get("hot") == b"v1"

    def test_retirement_flushes_unbroadcast_commits(self, cluster):
        client = cluster.client()
        txid = client.start_transaction()
        owner = client.node_for(txid)
        client.put(txid, "k", b"survives-drain")
        client.commit_transaction(txid)
        # No multicast round runs before the drain: the commit is only known
        # to the owner.  Retirement must push it to the peers and the fault
        # manager rather than dropping it.
        cluster.begin_drain(owner)
        retired = cluster.retire_drained_nodes()
        assert retired == [owner]
        for node in cluster.nodes:
            reader = node.start_transaction()
            assert node.get(reader, "k") == b"survives-drain"
            node.abort_transaction(reader)
        assert cluster.fault_manager.stats.nodes_retired == 1

    def test_retirement_hands_gc_set_to_fault_manager(self, cluster):
        client = cluster.client()
        for value in (b"v1", b"v2"):
            with client.transaction() as txn:
                txn.put("contended", value)
        for node in cluster.nodes:
            node.forget_finished_transactions()
        cluster.run_multicast_round()
        cluster.run_local_gc()

        victim = cluster.nodes[0]
        deleted_before = victim.metadata_cache.locally_deleted()
        assert deleted_before  # the superseded v1 commit was locally collected
        cluster.begin_drain(victim)
        cluster.retire_drained_nodes()
        assert cluster.fault_manager.retired_node_deletions(victim.node_id) == deleted_before

    def test_global_gc_converges_after_retirement(self, cluster):
        client = cluster.client()
        for value in (b"v1", b"v2", b"v3"):
            with client.transaction() as txn:
                txn.put("hot-key", value)
        for node in cluster.nodes:
            node.forget_finished_transactions()
        cluster.run_multicast_round()

        victim = cluster.nodes[0]
        cluster.begin_drain(victim)
        assert cluster.retire_drained_nodes() == [victim]
        # The survivors locally collect the superseded versions; the global
        # GC must not dead-lock on the departed node's agreement.
        cluster.run_local_gc()
        deleted = cluster.run_global_gc()
        assert len(deleted) >= 1
        with client.transaction() as txn:
            assert txn.get("hot-key") == b"v3"

    def test_drain_grace_period_force_aborts_stragglers(self):
        clock = LogicalClock(start=0.0, auto_step=0.001)
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(
                num_nodes=2, node_config=AftConfig(drain_grace_period=5.0)
            ),
            clock=clock,
        )
        node = cluster.nodes[0]
        txid = node.start_transaction()
        node.put(txid, "k", b"never-committed")
        cluster.begin_drain(node)
        assert cluster.retire_drained_nodes() == []  # still waiting
        clock.advance(10.0)
        retired = cluster.retire_drained_nodes()
        assert retired == [node]
        assert node.stats.transactions_aborted == 1

    def test_retire_can_be_restricted_to_specific_nodes(self, cluster):
        first, second = cluster.nodes[0], cluster.nodes[1]
        cluster.begin_drain(first)
        cluster.begin_drain(second)
        # Both are drained (no in-flight work), but only the named node
        # retires — the simulator relies on this to charge each node its own
        # stop delay.
        assert cluster.retire_drained_nodes(nodes=[first]) == [first]
        assert second in cluster.nodes and second.is_draining
        assert cluster.retire_drained_nodes() == [second]

    def test_global_gc_prunes_retired_bookkeeping(self, cluster):
        client = cluster.client()
        for value in (b"v1", b"v2"):
            with client.transaction() as txn:
                txn.put("contended", value)
        for node in cluster.nodes:
            node.forget_finished_transactions()
        cluster.run_multicast_round()
        cluster.run_local_gc()
        victim = cluster.nodes[0]
        cluster.begin_drain(victim)
        cluster.retire_drained_nodes()
        assert cluster.fault_manager.retired_node_deletions(victim.node_id)
        cluster.run_global_gc()
        # The superseded transaction was globally deleted, so the retired
        # node's absorbed set no longer needs to remember it.
        assert not cluster.fault_manager.retired_node_deletions(victim.node_id)

    def test_retired_node_is_replaced_in_standby_pool(self, cluster):
        before = cluster.standby_count()
        victim = cluster.nodes[0]
        cluster.begin_drain(victim)
        cluster.retire_drained_nodes()
        assert cluster.standby_count() == before + 1
        assert victim in cluster.retired_nodes


class TestAutoscalerPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_down_threshold=0.8, scale_up_threshold=0.7)
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_up_after=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(evaluation_interval=0.0)

    def _cluster(self, num_nodes=2, **policy_overrides):
        policy = AutoscalerPolicy(
            min_nodes=1,
            max_nodes=4,
            node_capacity=2,
            scale_up_threshold=0.75,
            scale_down_threshold=0.25,
            scale_up_after=2,
            scale_down_after=2,
            cooldown=5.0,
        ).with_overrides(**policy_overrides)
        clock = LogicalClock(start=0.0, auto_step=0.001)
        cluster = AftCluster(
            InMemoryStorage(),
            cluster_config=ClusterConfig(
                num_nodes=num_nodes, standby_nodes=1, balancer="consistent_hash", autoscaler=policy
            ),
            clock=clock,
        )
        return cluster, cluster.autoscaler, clock

    def test_hysteresis_requires_consecutive_breaches(self):
        cluster, scaler, _ = self._cluster()
        # Saturate both nodes: utilization 4 / (2*2) = 1.0 >= threshold.
        for node in cluster.nodes:
            node.start_transaction()
            node.start_transaction()
        assert scaler.evaluate(now=1.0) == HOLD  # first breach arms the streak
        assert scaler.evaluate(now=2.0) == SCALE_UP

    def test_cooldown_suppresses_back_to_back_scaling(self):
        cluster, scaler, _ = self._cluster()
        for node in cluster.nodes:
            node.start_transaction()
            node.start_transaction()
        scaler.evaluate(now=1.0)
        assert scaler.evaluate(now=2.0) == SCALE_UP
        scaler.record_scale(SCALE_UP, now=2.0)
        assert scaler.evaluate(now=3.0) == HOLD
        assert scaler.evaluate(now=4.0) == HOLD
        assert scaler.stats.held_by_cooldown >= 1
        # After the cooldown expires the streak has rebuilt and fires again.
        assert scaler.evaluate(now=8.0) == SCALE_UP

    def test_scale_up_held_at_max_nodes(self):
        cluster, scaler, _ = self._cluster(num_nodes=2, max_nodes=2)
        for node in cluster.nodes:
            node.start_transaction()
            node.start_transaction()
        scaler.evaluate(now=1.0)
        assert scaler.evaluate(now=2.0) == HOLD
        assert scaler.stats.held_at_max == 1

    def test_scale_down_held_at_min_nodes(self):
        cluster, scaler, _ = self._cluster(num_nodes=1, min_nodes=1)
        assert scaler.evaluate(now=1.0) == HOLD
        assert scaler.evaluate(now=2.0) == HOLD
        assert scaler.stats.held_at_min == 1

    def test_run_once_promotes_standby_under_load(self):
        cluster, scaler, _ = self._cluster()
        for node in cluster.nodes:
            node.start_transaction()
            node.start_transaction()
        assert cluster.run_autoscaler() == HOLD
        assert cluster.run_autoscaler() == SCALE_UP
        assert len(cluster.routable_nodes()) == 3
        assert cluster.stats.nodes_promoted == 1
        # The promoted node bootstrapped and is immediately routable.
        assert all(node.is_accepting for node in cluster.routable_nodes())

    def test_run_once_drains_idle_node_and_retires_it(self):
        cluster, scaler, clock = self._cluster(num_nodes=2, cooldown=0.0)
        assert cluster.run_autoscaler() == HOLD  # idle: breach 1 of 2
        assert cluster.run_autoscaler() == SCALE_DOWN
        draining = [node for node in cluster.nodes if node.is_draining]
        assert len(draining) == 1
        # The next tick retires the (empty) drained node.
        cluster.run_autoscaler()
        assert len(cluster.nodes) == 1
        assert cluster.stats.nodes_retired == 1

    def test_floor_recovers_below_min_nodes(self):
        cluster, scaler, _ = self._cluster(num_nodes=2, min_nodes=2)
        cluster.remove_node(cluster.nodes[0])
        assert scaler.evaluate(now=1.0) == SCALE_UP

    def test_floor_recovery_respects_cooldown_of_inflight_join(self):
        cluster, scaler, _ = self._cluster(num_nodes=2, min_nodes=2, cooldown=5.0)
        cluster.remove_node(cluster.nodes[0])
        assert scaler.evaluate(now=1.0) == SCALE_UP
        scaler.record_scale(SCALE_UP, now=1.0)
        # The promotion is still starting up; don't issue another one.
        assert scaler.evaluate(now=2.0) == HOLD
        assert scaler.evaluate(now=7.0) == SCALE_UP

    def test_utilization_is_inf_with_no_routable_nodes(self):
        cluster, scaler, _ = self._cluster(num_nodes=1)
        cluster.nodes[0].begin_drain()
        assert scaler.utilization() == float("inf")


class TestAutoscaledDeployment:
    def test_autoscaled_simulation_tracks_load(self):
        from repro.simulation.cluster_sim import DeploymentSpec, run_deployment

        spec = DeploymentSpec(
            mode="aft",
            backend="dynamodb",
            num_nodes=1,
            num_clients=16,
            requests_per_client=None,
            duration=15.0,
            balancer="consistent_hash",
            autoscaler=AutoscalerPolicy(
                min_nodes=1,
                max_nodes=4,
                node_capacity=4,
                scale_up_after=2,
                scale_down_after=3,
                cooldown=2.0,
            ),
            offered_clients_fn=lambda t: 16 if 2.0 <= t < 8.0 else 2,
            standby_nodes=1,
        )
        result = run_deployment(spec)
        counts = [count for _, count in result.node_count_timeline]
        assert max(counts) > 1  # scaled out under the burst
        assert counts[-1] < max(counts)  # scaled back in afterwards
        assert result.autoscaler_summary["scale_ups"] >= 1
        assert result.autoscaler_summary["scale_downs"] >= 1
        assert result.client_result.stats.requests_failed == 0
        assert result.anomaly_counts.ryw_anomalies == 0
        assert result.anomaly_counts.fractured_read_anomalies == 0

    def test_spec_validation(self):
        from repro.simulation.cluster_sim import DeploymentSpec

        with pytest.raises(ValueError):
            DeploymentSpec(autoscaler=AutoscalerPolicy(), balancer="static")
        with pytest.raises(ValueError):
            DeploymentSpec(balancer="zigzag")
        with pytest.raises(ValueError):
            DeploymentSpec(offered_clients_fn=lambda t: 1, duration=None)
