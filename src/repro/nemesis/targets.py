"""Nemesis targets: one adapter per runtime the harness can disrupt.

A target exposes a small uniform surface — start/stop, a Table-1
transaction API, ``advance`` (move schedule time forward, running the
cluster's maintenance cadence), ``apply`` (inject one
:class:`~repro.nemesis.schedule.FaultAction`), ``heal_all`` / ``quiesce``,
and a post-heal ``convergence_violations`` probe — so one schedule replays
identically against:

* :class:`InprocTarget` — a real :class:`~repro.core.cluster.AftCluster` on
  a :class:`~repro.clock.LogicalClock`.  Fully deterministic; supports the
  richest fault set (crash, stalled heartbeats, commit-broadcast partition,
  torn multi-key writes, relay death mid-round).
* :class:`SimTarget` — the discrete-event simulator, via its scripted
  failure hook (crash only).
* :class:`SocketTarget` — the real router/node socket cluster from PR 7/8,
  driven over the nemesis RPC (crash, stalled heartbeats, router-side
  frame delay/drop).  Wall-clock; schedule units are scaled real seconds.

Convergence probes differ by design.  The in-process cluster has
anti-entropy (§4.2: the fault-manager scan re-broadcasts records it has not
seen), so after heal + quiescence *every* member's metadata cache must hold
every key's latest acked version — a leaked relay hand-off is permanent
precisely because the fault manager's unpruned feed marked the records
seen, which is what makes the reverted relay-reroute mutant detectable.
The socket runtime has no anti-entropy.  The router sends each commit
record to the peers as it lands, before the writer's storage reply, so no
commit is acked before its broadcast is queued — but a delivery the
``frame_drop`` fault swallows (or one that fails) is never resent.  So the
probe writes a fresh *sealing* version per key and requires every
subsequent read to observe at least the pre-seal acked version (a healed
broadcast link must deliver the sealing write; observing anything older is
a violation).
"""

from __future__ import annotations

import asyncio
import threading

from repro.clock import LogicalClock
from repro.config import AftConfig, ClusterConfig, FaultManagerConfig, MetadataPlaneConfig
from repro.core.cluster import AftCluster
from repro.core.metadata_plane import RelayFault
from repro.errors import AftError
from repro.ids import TransactionId
from repro.nemesis.faults import TornWriteStorage
from repro.nemesis.schedule import FaultAction, Schedule
from repro.storage.memory import InMemoryStorage

#: Fault kinds that disrupt service (start a recovery-timing sample).
DISRUPTIVE_KINDS = frozenset(
    {"crash", "stall_heartbeats", "partition", "relay_death", "frame_drop"}
)


class InprocTarget:
    """A deterministic in-process AFT cluster under a logical clock.

    ``reroute_orphans=False`` and ``torn_mode="silent"`` are the *mutant*
    switches: they re-introduce the relay hand-off leak and break the §3.3
    write-ordering contract respectively, and exist so the test suite can
    prove the harness detects them (the falsely-benign check).
    """

    name = "inproc"
    supported_kinds = ("crash", "stall_heartbeats", "partition", "torn_write", "relay_death")

    MULTICAST_EVERY = 0.5
    SCAN_EVERY = 1.0
    LEASE = 3.0

    def __init__(
        self,
        num_nodes: int = 4,
        fencing: bool = True,
        reroute_orphans: bool = True,
        torn_mode: str = "abort",
        relay_fanout: int = 2,
    ) -> None:
        self.num_nodes = num_nodes
        self.torn_mode = torn_mode
        self.reroute_orphans = reroute_orphans
        self.fencing = fencing
        self.relay_fanout = relay_fanout
        self.clock: LogicalClock | None = None
        self.cluster: AftCluster | None = None
        self.storage: TornWriteStorage | None = None
        self._client = None
        self._stalled: set[str] = set()
        #: node_id -> (node, buffered record batches) for partitioned nodes.
        self._partitions: dict[str, tuple] = {}
        self._next_multicast = self.MULTICAST_EVERY
        self._next_scan = self.SCAN_EVERY

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.clock = LogicalClock(start=0.0, auto_step=0.0001)
        self.storage = TornWriteStorage(InMemoryStorage(), mode=self.torn_mode)
        config = ClusterConfig(
            num_nodes=self.num_nodes,
            node_config=AftConfig(
                multicast_interval=self.MULTICAST_EVERY, fault_scan_interval=self.SCAN_EVERY
            ),
            standby_nodes=2,
            fault_manager=FaultManagerConfig(num_shards=2),
            metadata_plane=MetadataPlaneConfig(
                transport="sharded",
                relay_fanout=self.relay_fanout,
                membership="lease",
                lease_duration=self.LEASE,
                heartbeat_interval=self.MULTICAST_EVERY,
                keyspace="partitioned",
                fencing=self.fencing,
            ),
        )
        self.cluster = AftCluster(
            storage=self.storage,
            cluster_config=config,
            clock=self.clock,
        )
        self.cluster.multicast.stream.reroute_orphans = self.reroute_orphans
        self._client = self.cluster.client()

    def stop(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        return self.clock.now()

    def advance(self, dt: float) -> None:
        """Move schedule time forward, firing due maintenance ticks."""
        deadline = self.clock.now() + dt
        while True:
            next_event = min(self._next_multicast, self._next_scan)
            if next_event > deadline:
                break
            self.clock.advance(max(0.0, next_event - self.clock.now()))
            if self._next_multicast <= next_event:
                self._tick_multicast()
                self._next_multicast += self.MULTICAST_EVERY
            if self._next_scan <= next_event:
                self.cluster.run_fault_scan()
                self.cluster.replace_failed_nodes()
                self._next_scan += self.SCAN_EVERY
        self.clock.advance(max(0.0, deadline - self.clock.now()))

    def _tick_multicast(self) -> None:
        # Like AftCluster.run_multicast_round, except stalled nodes skip
        # their lease renewal (that *is* the stall fault).
        now = self.clock.now()
        for node in self.cluster.live_nodes():
            if node.node_id not in self._stalled:
                self.cluster.membership.heartbeat(node, now)
        self.cluster.multicast.run_once()

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def apply(self, action: FaultAction) -> bool:
        kind = action.kind
        members = self.cluster.live_nodes()
        if kind == "crash":
            if members:
                self.cluster.fail_node(members[action.node_index % len(members)])
            return True
        if kind == "stall_heartbeats":
            if members:
                self._stalled.add(members[action.node_index % len(members)].node_id)
            return True
        if kind == "resume_heartbeats":
            self._stalled.clear()
            return False
        if kind == "partition":
            if members:
                self._partition(members[action.node_index % len(members)])
            return True
        if kind == "heal_partition":
            self._heal_partitions()
            return False
        if kind == "torn_write":
            self.storage.arm(self.torn_mode)
            return self.torn_mode == "silent"
        if kind == "relay_death":
            if members:
                victim = members[action.node_index % len(members)]
                self.cluster.multicast.stream.inject_relay_fault(
                    RelayFault(
                        node_id=victim.node_id,
                        after_handoffs=int(action.params.get("after_handoffs", 0)),
                        on_death=self.cluster.fail_node,
                    )
                )
            return True
        return False

    def _partition(self, node) -> None:
        """Buffer the node's commit deliveries (a broadcast-plane partition).

        Healing flushes the buffer, so the model is *delayed* delivery — the
        cluster must still converge once healed."""
        if node.node_id in self._partitions:
            return
        buffer: list[list] = []
        self._partitions[node.node_id] = (node, buffer)
        node.receive_commits = lambda records, _buf=buffer: _buf.append(list(records))

    def _heal_partitions(self) -> None:
        for node, buffer in self._partitions.values():
            node.__dict__.pop("receive_commits", None)
            if node.is_running:
                for batch in buffer:
                    try:
                        node.receive_commits(batch)
                    except AftError:
                        pass
        self._partitions.clear()

    def heal_all(self) -> None:
        # An armed relay death is deliberately left armed in the stream: it
        # is a crash, not a healable link fault, and a schedule may aim it at
        # the final broadcast round (whose records are never superseded — the
        # sharpest probe of the reroute path).
        self._stalled.clear()
        self._heal_partitions()
        self.storage.disarm()

    def quiesce(self) -> None:
        # Two lease lifetimes: enough for stalled-node declarations to
        # resolve, standbys to promote, and the §4.2 scan to re-broadcast
        # anything the fault manager has not seen.
        self.advance(2 * self.LEASE)

    # ------------------------------------------------------------------ #
    # Table-1 API
    # ------------------------------------------------------------------ #
    def txn_start(self) -> str:
        return self._client.start_transaction()

    def txn_read(self, txid: str, key: str) -> bytes | None:
        return self._client.get(txid, key)

    def txn_write(self, txid: str, key: str, value: bytes) -> None:
        self._client.put(txid, key, value)

    def txn_commit(self, txid: str) -> TransactionId:
        return self._client.commit_transaction(txid)

    def txn_abort(self, txid: str) -> None:
        self._client.abort_transaction(txid)

    # ------------------------------------------------------------------ #
    # Convergence
    # ------------------------------------------------------------------ #
    def convergence_violations(self, expected: dict[str, TransactionId]) -> list[str]:
        """After heal+quiesce every member must hold every key's latest
        acked version — the §4.2 anti-entropy guarantee.  A permanently
        leaked broadcast (the relay-reroute mutant) shows up here."""
        from repro.ids import data_key

        violations: list[str] = []
        for node in self.cluster.live_nodes():
            for key, want in expected.items():
                index = node.metadata_cache.version_index
                have = index.latest(key)
                if have is None or have < want:
                    violations.append(
                        f"{node.node_id} stale on {key!r}: have "
                        f"{have.uuid if have else None}, want {want.uuid}"
                    )
                # §3.3 durability audit: a commit record is only written
                # after its data, so every version a replica advertises must
                # have durable data (GC never runs inside a nemesis run).  A
                # silently torn write is the only way to break this.
                for version in index.versions(key):
                    if self.storage.get(data_key(key, version)) is None:
                        violations.append(
                            f"{node.node_id} advertises {key!r}@{version.uuid} "
                            "with no durable data (torn write)"
                        )
        return violations


class SimTarget:
    """The discrete-event simulator behind the same verdict surface.

    The simulator runs a whole deployment from a declarative spec, so
    instead of the interactive target protocol it replays a schedule by
    mapping its first ``crash`` action onto the simulator's scripted
    failure hook and running the built-in workload; the resulting
    transaction logs feed the same pairwise + cycle checkers.
    """

    name = "sim"
    supported_kinds = ("crash",)

    def __init__(self, num_nodes: int = 4, num_clients: int = 4, requests_per_client: int = 60) -> None:
        self.num_nodes = num_nodes
        self.num_clients = num_clients
        self.requests_per_client = requests_per_client

    def run(self, schedule: Schedule) -> dict:
        """Run the deployment; returns checker verdicts + recovery stats."""
        from repro.consistency import CycleChecker
        from repro.simulation import DeploymentSpec, run_deployment
        from repro.simulation.cluster_sim import FailureScript
        from repro.workloads.spec import WorkloadSpec

        crash = next((a for a in schedule.actions if a.kind == "crash"), None)
        script = None
        if crash is not None:
            script = FailureScript(
                fail_node_index=crash.node_index % self.num_nodes,
                fail_at=crash.at,
                detection_delay=2.0,
                replacement_delay=5.0,
            )
        spec = DeploymentSpec(
            mode="aft",
            backend="dynamodb",
            workload=WorkloadSpec(num_keys=64, zipf_theta=1.0, seed=schedule.seed),
            num_nodes=self.num_nodes,
            standby_nodes=2,
            num_clients=self.num_clients,
            requests_per_client=self.requests_per_client,
            metadata_plane=MetadataPlaneConfig(
                transport="sharded", membership="lease", keyspace="partitioned"
            ),
            seed=schedule.seed,
            failure_script=script,
        )
        result = run_deployment(spec)
        cycles = CycleChecker()
        cycles.adopt(result.client_result.anomalies)
        return {
            "anomalies": result.anomaly_counts.as_dict(),
            "cycles": cycles.summary(),
            "recovery": dict(result.recovery_breakdown),
            "transactions": result.client_result.anomalies.counts().transactions,
        }


class SocketTarget:
    """The real router/node socket cluster, disrupted over the nemesis RPC.

    Runs an asyncio event loop on a background thread and exposes the same
    synchronous target surface as :class:`InprocTarget`; schedule units are
    ``time_scale`` real seconds.  Nemesis messages carry a node's *full*
    fault state (heartbeat pause + frame delay/drop) so composed faults on
    one node never clobber each other.
    """

    name = "sockets"
    supported_kinds = ("crash", "stall_heartbeats", "frame_delay", "frame_drop")

    def __init__(
        self,
        num_nodes: int = 3,
        standbys: int = 2,
        time_scale: float = 0.12,
        lease_duration: float = 0.8,
        heartbeat_interval: float = 0.1,
    ) -> None:
        self.num_nodes = num_nodes
        self.standbys = standbys
        self.time_scale = time_scale
        self.lease_duration = lease_duration
        self.heartbeat_interval = heartbeat_interval
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.router = None
        self.servers: list = []
        self.client = None
        #: node_id -> {"pause": bool, "delay": float, "drop": bool}
        self._fault_state: dict[str, dict] = {}
        self._crashed: set[str] = set()

    # ------------------------------------------------------------------ #
    def _call(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def start(self) -> None:
        from repro.rpc.client import AsyncRouterClient
        from repro.rpc.node_server import NodeServer
        from repro.rpc.router import RouterServer

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()

        async def boot():
            self.router = RouterServer(
                port=0,
                lease_duration=self.lease_duration,
                heartbeat_interval=self.heartbeat_interval,
            )
            await self.router.start()
            for i in range(self.num_nodes):
                server = NodeServer(f"n{i}", router_port=self.router.port)
                await server.start()
                self.servers.append(server)
            for i in range(self.standbys):
                server = NodeServer(f"s{i}", router_port=self.router.port, kind="standby")
                await server.start()
                self.servers.append(server)
            self.client = await AsyncRouterClient.connect("127.0.0.1", self.router.port)
            await self.client.wait_ready(self.num_nodes)

        self._call(boot())

    def stop(self) -> None:
        if self._loop is None:
            return

        async def teardown():
            if self.client is not None:
                await self.client.close()
            for server in self.servers:
                try:
                    await server.stop()
                except Exception:
                    pass
            if self.router is not None:
                await self.router.stop()

        try:
            self._call(teardown())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        import time

        return time.monotonic()

    def advance(self, dt: float) -> None:
        import time

        time.sleep(dt * self.time_scale)

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #
    def _serving_ids(self) -> list[str]:
        info = self._call(self.client.info())
        return sorted(node_id for node_id in info.nodes if node_id not in self._crashed)

    def _pick(self, index: int) -> str | None:
        ids = self._serving_ids()
        return ids[index % len(ids)] if ids else None

    def _send_state(self, node_id: str) -> None:
        state = self._fault_state.setdefault(
            node_id, {"pause": False, "delay": 0.0, "drop": False}
        )
        self._call(
            self.client.nemesis(
                node_id,
                pause_heartbeats=state["pause"],
                deliver_delay=state["delay"],
                deliver_drop=state["drop"],
            )
        )

    def apply(self, action: FaultAction) -> bool:
        kind = action.kind
        if kind == "crash":
            node_id = self._pick(action.node_index)
            server = next(
                (s for s in self.servers if s.node_id == node_id and s.kind == "node"), None
            )
            if server is not None:
                self._crashed.add(node_id)
                self._call(server.stop())
            return True
        node_id = self._pick(action.node_index)
        if node_id is None:
            return False
        state = self._fault_state.setdefault(
            node_id, {"pause": False, "delay": 0.0, "drop": False}
        )
        if kind == "stall_heartbeats":
            state["pause"] = True
        elif kind == "resume_heartbeats":
            state["pause"] = False
        elif kind == "frame_delay":
            state["delay"] = float(action.params.get("delay", 0.5)) * self.time_scale
        elif kind == "frame_drop":
            state["drop"] = True
        elif kind == "heal_frames":
            state["delay"] = 0.0
            state["drop"] = False
        else:
            return False
        self._send_state(node_id)
        return kind in DISRUPTIVE_KINDS

    def heal_all(self) -> None:
        for node_id, state in list(self._fault_state.items()):
            if node_id in self._crashed:
                continue
            state.update(pause=False, delay=0.0, drop=False)
            try:
                self._send_state(node_id)
            except AftError:
                pass

    def quiesce(self) -> None:
        import time

        # Let promoted standbys settle and delayed frames drain.
        time.sleep(3 * self.lease_duration)

    # ------------------------------------------------------------------ #
    # Table-1 API
    # ------------------------------------------------------------------ #
    def txn_start(self) -> str:
        return self._call(self.client.start_transaction())

    def txn_read(self, txid: str, key: str) -> bytes | None:
        return self._call(self.client.get(txid, key))

    def txn_write(self, txid: str, key: str, value: bytes) -> None:
        self._call(self.client.put(txid, key, value))

    def txn_commit(self, txid: str) -> TransactionId:
        token = self._call(self.client.commit_transaction(txid))
        if not token:
            raise AftError(f"commit of {txid} returned no token")
        return TransactionId.from_token(token)

    def txn_abort(self, txid: str) -> None:
        self._call(self.client.abort_transaction(txid))

    # ------------------------------------------------------------------ #
    # Convergence
    # ------------------------------------------------------------------ #
    def convergence_violations(self, expected: dict[str, TransactionId]) -> list[str]:
        """Seal every key with a fresh write, then require subsequent reads
        to observe at least the pre-seal acked version.  The socket runtime
        has no anti-entropy (a dropped delivery is never resent), so a
        *healed* broadcast link proving it can deliver the sealing write is
        the strongest portable guarantee."""
        from repro.consistency import TaggedValue

        sealing: dict[str, str] = {}
        for key in expected:
            txid = self.txn_start()
            tag = TaggedValue(
                payload=b"seal",
                timestamp=self.now(),
                uuid=txid,
                cowritten=frozenset({key}),
            )
            self.txn_write(txid, key, tag.to_bytes())
            self.txn_commit(txid)
            sealing[key] = txid
        self.advance(4.0)  # let the sealing broadcasts land everywhere
        violations: list[str] = []
        for round_idx in range(2 * self.num_nodes):
            txid = self.txn_start()
            for key, want in expected.items():
                raw = self.txn_read(txid, key)
                tag = TaggedValue.try_from_bytes(raw)
                if tag is None:
                    violations.append(f"round {round_idx}: NULL read of {key!r}")
                elif tag.uuid != sealing[key] and tag.version < want:
                    violations.append(
                        f"round {round_idx}: stale {key!r}: have {tag.uuid}, want {want.uuid}"
                    )
            self.txn_abort(txid)
        return violations
