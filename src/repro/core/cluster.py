"""Distributed AFT deployments.

:class:`AftCluster` wires together everything a multi-node deployment needs
(paper Section 4): a set of :class:`~repro.core.node.AftNode` replicas sharing
a storage backend, the commit-set multicast, a fault manager with global
garbage collection, standby nodes for fast replacement, and a load balancer.

Background activities are exposed in two ways:

* **Explicit ticks** — ``run_multicast_round()``, ``run_local_gc()``,
  ``run_global_gc()``, ``run_fault_scan()`` and the umbrella ``tick()`` — used
  by the test suite and by the discrete-event simulator, which schedules them
  on the paper's cadences (multicast every 1 s, GC every few seconds).
* **Daemon threads** — ``start_background()`` / ``stop_background()`` — for
  real-time use in the examples.

Clients talk to the cluster through :class:`ClusterClient`, which pins every
transaction to the node the load balancer chose for it (the paper's
requirement that a transaction's operations all reach one node).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.clock import Clock, SystemClock
from repro.config import ClusterConfig
from repro.core.autoscaler import Autoscaler
from repro.core.commit_set import CommitSetStore
from repro.core.fault_manager import FaultManager
from repro.core.garbage_collector import LocalMetadataGC
from repro.core.load_balancer import LoadBalancer, make_load_balancer
from repro.core.metadata_plane import (
    make_commit_keyspace,
    make_commit_stream,
    make_membership,
)
from repro.core.metadata_plane.fencing import EpochFence
from repro.core.multicast import MulticastService
from repro.core.node import AftNode
from repro.core.session import TransactionSession
from repro.errors import UnknownTransactionError
from repro.ids import TransactionId
from repro.observability import trace as tr
from repro.storage.base import StorageEngine


@dataclass
class ClusterStats:
    nodes_added: int = 0
    nodes_failed: int = 0
    nodes_replaced: int = 0
    nodes_promoted: int = 0
    nodes_draining: int = 0
    nodes_retired: int = 0
    multicast_rounds: int = 0
    local_gc_rounds: int = 0
    global_gc_rounds: int = 0
    fault_scans: int = 0
    autoscaler_ticks: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class AftCluster:
    """A set of AFT nodes plus the shared control plane."""

    def __init__(
        self,
        storage: StorageEngine,
        commit_storage: StorageEngine | None = None,
        cluster_config: ClusterConfig | None = None,
        clock: Clock | None = None,
        load_balancer: LoadBalancer | None = None,
    ) -> None:
        self.cluster_config = cluster_config if cluster_config is not None else ClusterConfig()
        self.node_config = self.cluster_config.node_config
        self.storage = storage
        self.clock = clock if clock is not None else SystemClock()
        # In-process observability: the node config may switch the process
        # tracer on (enable-only; see apply_config).
        tr.apply_config(self.node_config.observability)

        # The metadata plane: commit-record keyspace, commit-stream
        # transport, and failure-detection membership are swappable
        # strategies (the defaults reproduce the seed's hardwired
        # singletons).  The keyspace is partitioned on the fault manager's
        # shard ids so each shard's sweep is a prefix listing.
        plane = self.cluster_config.metadata_plane
        # Lease renewal rides the multicast cadence, so the *effective*
        # heartbeat interval is the slower of the two; a lease shorter than
        # that would lapse between renewals and flap every live node failed.
        if plane.membership == "lease":
            renewal = max(plane.heartbeat_interval, self.node_config.multicast_interval)
            if plane.lease_duration <= renewal:
                raise ValueError(
                    f"lease_duration ({plane.lease_duration}s) must exceed the "
                    f"effective heartbeat cadence ({renewal}s = max(heartbeat_interval, "
                    "multicast_interval)), or leases expire between renewals"
                )
        keyspace = make_commit_keyspace(
            plane.keyspace,
            num_partitions=self.cluster_config.fault_manager.num_shards,
            hash_ring_replicas=self.cluster_config.fault_manager.hash_ring_replicas,
        )
        self.commit_store = CommitSetStore(
            commit_storage if commit_storage is not None else storage, keyspace=keyspace
        )
        #: Epoch fencing authority (None when ``plane.fencing`` is off).
        #: Every membership change mints/kills tokens here, and the commit
        #: store validates each record's epoch stamp against it on write.
        self.fence: EpochFence | None = EpochFence() if plane.fencing else None
        if self.fence is not None:
            self.commit_store.fence = self.fence
        self.membership = make_membership(
            plane.membership, clock=self.clock, lease_duration=plane.lease_duration
        )
        self.multicast = MulticastService(
            prune_superseded=self.node_config.prune_superseded_broadcasts,
            stream=make_commit_stream(plane.transport, relay_fanout=plane.relay_fanout),
        )
        self.fault_manager = FaultManager(
            data_storage=storage,
            commit_store=self.commit_store,
            multicast=self.multicast,
            config=self.cluster_config.fault_manager,
            membership=self.membership,
        )
        if load_balancer is not None:
            self.load_balancer = load_balancer
        else:
            self.load_balancer = make_load_balancer(
                self.cluster_config.balancer, replicas=self.cluster_config.hash_ring_replicas
            )
        self.stats = ClusterStats()

        self._nodes: list[AftNode] = []
        self._standbys: list[AftNode] = []
        self._retired_nodes: list[AftNode] = []
        self._standby_sequence = 0
        self._local_gcs: dict[str, LocalMetadataGC] = {}
        self._background_threads: list[threading.Thread] = []
        self._stop_event = threading.Event()
        self._lock = threading.RLock()

        for index in range(self.cluster_config.num_nodes):
            self.add_node(node_id=f"aft-node-{index}")
        for _ in range(self.cluster_config.standby_nodes):
            self._add_standby()

        self.autoscaler: Autoscaler | None = None
        if self.cluster_config.autoscaler is not None:
            self.autoscaler = Autoscaler(self, self.cluster_config.autoscaler)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> list[AftNode]:
        with self._lock:
            return list(self._nodes)

    def live_nodes(self) -> list[AftNode]:
        with self._lock:
            return [node for node in self._nodes if node.is_running]

    def routable_nodes(self) -> list[AftNode]:
        """Nodes that accept *new* transactions (running and not draining)."""
        with self._lock:
            return [node for node in self._nodes if node.is_accepting]

    def standby_count(self) -> int:
        with self._lock:
            return len(self._standbys)

    def add_node(self, node_id: str | None = None, start: bool = True) -> AftNode:
        """Create, bootstrap, and register a new AFT node."""
        node = AftNode(
            storage=self.storage,
            commit_store=self.commit_store,
            config=self.node_config,
            clock=self.clock,
            node_id=node_id,
        )
        if start:
            node.start(bootstrap=True)
        with self._lock:
            self._nodes.append(node)
            self._local_gcs[node.node_id] = LocalMetadataGC(node)
        if self.fence is not None:
            node.fence_token = self.fence.grant(node.node_id)
        self.multicast.register_node(node)
        self.membership.register(node)
        self.load_balancer.add_node(node)
        self.stats.nodes_added += 1
        return node

    def fail_node(self, node: AftNode) -> None:
        """Simulate a node crash.  The node stays registered until replaced."""
        node.fail()
        self.stats.nodes_failed += 1

    def remove_node(self, node: AftNode) -> None:
        with self._lock:
            if node in self._nodes:
                self._nodes.remove(node)
            self._local_gcs.pop(node.node_id, None)
        if self.fence is not None:
            self.fence.revoke(node.node_id)
        self.multicast.unregister_node(node)
        self.membership.deregister(node)
        self.load_balancer.remove_node(node)

    def replace_failed_nodes(self) -> list[AftNode]:
        """Detect failed nodes, recover their state, and promote standbys.

        Mirrors the paper's recovery flow (Section 6.7): the fault manager
        detects the failure, replays the failed node's unbroadcast commits
        shard-by-shard (reclaiming its orphaned write-buffer spills), and a
        standby node is promoted through the same path elastic scale-up uses,
        warming its metadata cache from the Transaction Commit Set as it
        starts.
        """
        failed = self.fault_manager.detect_failures(self.nodes)
        # The membership service records one event per declaration; draining
        # the log here (rather than re-polling later) is what downstream
        # consumers key off — the simulator's recovery breakdown reads the
        # counter, and the event timestamps carry the lease-detection delay.
        events = self.membership.poll_events()
        if events:
            self.stats.extra["membership_failure_events"] = self.stats.extra.get(
                "membership_failure_events", 0.0
            ) + len(events)
        with self._lock:
            # Claim the failed nodes atomically: a node retired (or claimed
            # by a concurrent replace call) is no longer a member, and
            # removing the claimed ones inside the same locked section means
            # two racing calls can never both replace the same node.
            claimed = [node for node in failed if node in self._nodes]
            for node in claimed:
                self._nodes.remove(node)
                self._local_gcs.pop(node.node_id, None)
        replacements: list[AftNode] = []
        for node in claimed:
            # Fence first: from this point the declared node's in-flight
            # commits carry a dead epoch, so even if it is actually alive
            # (lease false positive) its late record writes are rejected.
            if self.fence is not None:
                self.fence.revoke(node.node_id)
            self.multicast.unregister_node(node)
            self.membership.deregister(node)
            self.load_balancer.remove_node(node)
            self.fault_manager.recover_node_failure(node)
            self.fault_manager.request_replacement()
            replacement = self.promote_standby()
            replacements.append(replacement)
            self.stats.nodes_replaced += 1
            # Restock the pool so the next failure is equally fast.
            self._add_standby()
        return replacements

    # ------------------------------------------------------------------ #
    # Elastic scaling (promote / drain / retire)
    # ------------------------------------------------------------------ #
    def _new_standby_node(self) -> AftNode:
        """Construct a cold node (not started, not routed, not pooled)."""
        with self._lock:
            node_id = f"aft-standby-{self._standby_sequence}"
            self._standby_sequence += 1
        return AftNode(
            storage=self.storage,
            commit_store=self.commit_store,
            config=self.node_config,
            clock=self.clock,
            node_id=node_id,
        )

    def _add_standby(self) -> AftNode:
        """Provision a cold standby node into the pool."""
        node = self._new_standby_node()
        with self._lock:
            self._standbys.append(node)
        return node

    def promote_standby(self) -> AftNode:
        """Bring a standby node into service (the scale-up path).

        The node warms its metadata cache from the Transaction Commit Set as
        it starts — the same bootstrap the paper's failure-replacement flow
        uses (Section 6.7) — then joins the multicast group and the load
        balancer (for consistent hashing: claims its segments of the ring).
        If the standby pool is empty a fresh node is provisioned instead.
        """
        with self._lock:
            node = self._standbys.pop(0) if self._standbys else None
        if node is None:
            node = self._new_standby_node()
        node.start(bootstrap=True)
        with self._lock:
            self._nodes.append(node)
            self._local_gcs[node.node_id] = LocalMetadataGC(node)
        if self.fence is not None:
            node.fence_token = self.fence.grant(node.node_id)
        self.multicast.register_node(node)
        self.membership.register(node)
        self.load_balancer.add_node(node)
        self.stats.nodes_promoted += 1
        return node

    def begin_drain(self, node: AftNode) -> None:
        """Start gracefully removing ``node`` (the scale-down path).

        The drain flag flips under the node's own lock, so the load balancer
        can never pin a new transaction after this returns; in-flight
        transactions keep running until :meth:`retire_drained_nodes` observes
        the node is empty (or the grace period expires).
        """
        if not node.is_draining:
            self.stats.nodes_draining += 1
        node.begin_drain()

    def retire_drained_nodes(
        self, force: bool = False, nodes: list[AftNode] | None = None
    ) -> list[AftNode]:
        """Retire every draining node whose in-flight transactions finished.

        ``nodes`` restricts the sweep to specific draining nodes (the
        simulator uses this to charge each node its own stop delay).

        Retirement hands the node's state to the control plane before the
        node disappears:

        1. its not-yet-multicast commit records are broadcast to the peers
           *and* pushed to the fault manager (whose liveness guarantee —
           Section 4.2 — otherwise has to rediscover them by scanning the
           Commit Set);
        2. its locally-deleted GC set is absorbed by the fault manager — the
           node leaves the global GC's live quorum (safe: its transactions
           all finished), with the final answer kept for audit;
        3. only then does the node leave the multicast group, the load
           balancer, and the node list.

        A node whose drain outlives ``drain_grace_period`` (or any draining
        node when ``force`` is true) has its stragglers aborted first.
        """
        now = self.clock.now()
        with self._lock:
            draining = [node for node in self._nodes if node.is_draining]
        if nodes is not None:
            draining = [node for node in draining if node in nodes]
        retired: list[AftNode] = []
        for node in draining:
            overdue = (
                node.drain_started_at is not None
                and (now - node.drain_started_at) > self.node_config.drain_grace_period
            )
            if force or overdue:
                node.abort_active_transactions()
            if not node.is_drained():
                continue

            unbroadcast = node.drain_recent_commits()
            if unbroadcast:
                self.multicast.broadcast_records(unbroadcast, exclude=node)
                self.fault_manager.receive_commits(unbroadcast)
            self.fault_manager.absorb_retired_node(
                node.node_id, node.metadata_cache.locally_deleted()
            )
            self.remove_node(node)
            node.retire()
            # A node that crashed mid-drain (or whose force-aborted
            # stragglers had spilled) leaves durable spill keys no commit
            # record references; retirement reclaims them just as failure
            # recovery would.
            self.fault_manager.reclaim_orphan_spills(node)
            self.stats.nodes_retired += 1
            retired.append(node)
            with self._lock:
                self._retired_nodes.append(node)
            # Keep the standby pool stocked for the next burst.
            self._add_standby()
        return retired

    @property
    def retired_nodes(self) -> list[AftNode]:
        """Nodes gracefully retired by scale-down (kept for stats collection)."""
        with self._lock:
            return list(self._retired_nodes)

    def run_autoscaler(self) -> str | None:
        """One autoscaler control-loop tick (no-op without a configured policy)."""
        if self.autoscaler is None:
            return None
        self.stats.autoscaler_ticks += 1
        return self.autoscaler.run_once()

    # ------------------------------------------------------------------ #
    # Background work (explicit ticks)
    # ------------------------------------------------------------------ #
    def run_multicast_round(self) -> int:
        self.stats.multicast_rounds += 1
        # Heartbeats piggyback on the multicast cadence: every running node
        # renews its lease as part of the round it participates in (a no-op
        # under polling membership).
        now = self.clock.now()
        for node in self.live_nodes():
            self.membership.heartbeat(node, now)
        return self.multicast.run_once()

    def run_local_gc(self) -> dict[str, list[TransactionId]]:
        self.stats.local_gc_rounds += 1
        results: dict[str, list[TransactionId]] = {}
        with self._lock:
            collectors = list(self._local_gcs.items())
        for node_id, collector in collectors:
            if collector.node.is_running:
                results[node_id] = collector.run_once()
        return results

    def run_global_gc(self) -> list[TransactionId]:
        self.stats.global_gc_rounds += 1
        return self.fault_manager.run_global_gc(self.live_nodes())

    def run_fault_scan(self) -> int:
        self.stats.fault_scans += 1
        return len(self.fault_manager.scan_commit_set())

    def expire_idle_transactions(self) -> int:
        expired = 0
        for node in self.live_nodes():
            expired += len(node.expire_idle_transactions())
        return expired

    def tick(self) -> None:
        """Run one round of every background activity (test convenience)."""
        self.run_multicast_round()
        self.run_local_gc()
        self.run_fault_scan()
        self.run_global_gc()

    # ------------------------------------------------------------------ #
    # Background work (daemon threads, for real-time use)
    # ------------------------------------------------------------------ #
    def start_background(self) -> None:
        """Start daemon threads driving multicast, GC, and fault scans."""
        if self._background_threads:
            return
        self._stop_event.clear()
        schedule = [
            (self.node_config.multicast_interval, self.run_multicast_round),
            (self.node_config.gc_interval, self.run_local_gc),
            (self.node_config.global_gc_interval, self.run_global_gc),
            (self.node_config.fault_scan_interval, self.run_fault_scan),
        ]
        for interval, action in schedule:
            thread = threading.Thread(
                target=self._background_loop, args=(interval, action), daemon=True
            )
            thread.start()
            self._background_threads.append(thread)

    def _background_loop(self, interval: float, action) -> None:
        while not self._stop_event.wait(interval):
            try:
                action()
            except Exception:  # pragma: no cover - background robustness
                # Background activities must never take the cluster down; the
                # next tick retries.
                continue

    def stop_background(self) -> None:
        self._stop_event.set()
        for thread in self._background_threads:
            thread.join(timeout=2.0)
        self._background_threads.clear()

    def shutdown(self) -> None:
        """Stop background threads and every node."""
        self.stop_background()
        for node in self.nodes:
            node.stop()

    # ------------------------------------------------------------------ #
    # Client access
    # ------------------------------------------------------------------ #
    def client(self) -> "ClusterClient":
        """Return a client that routes transactions through the load balancer."""
        return ClusterClient(self)


class ClusterClient:
    """Routes each transaction to one node and keeps it pinned there."""

    def __init__(self, cluster: AftCluster) -> None:
        self._cluster = cluster
        self._routes: dict[str, AftNode] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def start_transaction(self, txid: str | None = None, affinity_key: str | None = None) -> str:
        """Start a transaction on a balancer-chosen node and pin it there.

        ``affinity_key`` is a routing hint — typically the first user key the
        transaction will touch — that key-affinity balancers use to keep each
        key's traffic on the node whose caches already hold it.  Pinning is
        atomic with node drain state: the balancer registers the transaction
        under the candidate node's lock and transparently retries another
        node if the candidate began draining concurrently.
        """
        node, new_txid = self._cluster.load_balancer.pin_transaction(txid, affinity_key)
        with self._lock:
            self._routes[new_txid] = node
        return new_txid

    def _node_for(self, txid: str) -> AftNode:
        with self._lock:
            node = self._routes.get(txid)
        if node is None:
            raise UnknownTransactionError(f"transaction {txid!r} is not routed through this client", txid=txid)
        return node

    def node_for(self, txid: str) -> AftNode:
        """The node owning ``txid`` (exposed for tests and failure injection)."""
        return self._node_for(txid)

    def get(self, txid: str, key: str) -> bytes | None:
        return self._node_for(txid).get(txid, key)

    def put(self, txid: str, key: str, value: bytes | str) -> None:
        self._node_for(txid).put(txid, key, value)

    def commit_transaction(self, txid: str) -> TransactionId:
        try:
            return self._node_for(txid).commit_transaction(txid)
        finally:
            with self._lock:
                self._routes.pop(txid, None)

    def abort_transaction(self, txid: str) -> None:
        try:
            self._node_for(txid).abort_transaction(txid)
        finally:
            with self._lock:
                self._routes.pop(txid, None)

    def transaction(self, txid: str | None = None, affinity_key: str | None = None) -> TransactionSession:
        """Open a :class:`TransactionSession` bound to this client."""
        return TransactionSession(self, txid, affinity_key=affinity_key)
