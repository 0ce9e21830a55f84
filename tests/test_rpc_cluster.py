"""The distributed runtime end to end: router + node servers on sockets.

Everything here boots a real asyncio-TCP cluster — a :class:`RouterServer`
plus :class:`NodeServer` processes' worth of state, in-process but over
genuine localhost sockets — and drives it through the client API.  The
acceptance bar from the paper's perspective:

* transactions commit *through the router* and their effects are visible
  from sibling nodes (commit-stream delivery);
* a concurrent tagged workload passes the read-atomicity consistency
  checker (zero RYW / fractured-read anomalies — Table 2 methodology);
* the nemesis scenario: a node whose heartbeats are paused is declared
  failed, a standby is promoted, and the old node's late commit-record
  write is rejected by its stale epoch token;
* every storage op a node issues, a single delete included, rides a
  ``storage_batch`` frame, and a commit is one such frame: the router
  applies its record only after its data, and fans the landed record out
  to the peers before it replies;
* the node bounds its per-transaction state: finished transactions are
  forgotten and abandoned ones expire;
* the router serves storage as coroutines on its own loop: a slow engine
  neither stalls the loop nor serializes concurrent sessions.
"""

from __future__ import annotations

import asyncio
import logging
import time
import types
from dataclasses import replace

import pytest

from repro.config import AftConfig
from repro.consistency.checker import AnomalyChecker, TransactionLog
from repro.consistency.metadata import TaggedValue
from repro.core.commit_set import CommitRecord
from repro.errors import (
    AftError,
    FencedNodeError,
    StorageError,
    TransactionAbortedError,
    UnknownTransactionError,
)
from repro.ids import TransactionId
from repro.rpc import messages as m
from repro.rpc import storage_client
from repro.rpc.client import AsyncRouterClient
from repro.rpc.framing import connect
from repro.rpc.node_server import NodeServer
from repro.rpc.router import RouterServer
from repro.rpc.storage_client import RemoteStorage
from repro.storage.base import StorageEngine, StorageOp, StorageOpResult, dependency_waves
from repro.storage.latency import ConstantLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage


class SocketCluster:
    """Test harness: one router + N node servers + a client, one event loop."""

    def __init__(
        self,
        n_nodes: int = 3,
        standbys: int = 0,
        lease_duration: float = 0.6,
        heartbeat_interval: float = 0.1,
        storage: StorageEngine | None = None,
        config: AftConfig | None = None,
    ) -> None:
        self.config = config
        self.router = RouterServer(
            port=0,
            storage=storage,
            lease_duration=lease_duration,
            heartbeat_interval=heartbeat_interval,
        )
        self.n_nodes = n_nodes
        self.n_standbys = standbys
        self.nodes: list[NodeServer] = []
        self.standbys: list[NodeServer] = []
        self.client: AsyncRouterClient | None = None

    async def __aenter__(self) -> "SocketCluster":
        await self.router.start()
        for i in range(self.n_nodes):
            node = NodeServer(f"n{i}", router_port=self.router.port, config=self.config)
            await node.start()
            self.nodes.append(node)
        for i in range(self.n_standbys):
            standby = NodeServer(f"s{i}", router_port=self.router.port, kind="standby")
            await standby.start()
            self.standbys.append(standby)
        self.client = await AsyncRouterClient.connect("127.0.0.1", self.router.port)
        await self.client.wait_ready(self.n_nodes)
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if self.client is not None:
            await self.client.close()
        for server in self.nodes + self.standbys:
            await server.stop()
        await self.router.stop()


class TestCommitsThroughRouter:
    def test_commit_and_cross_node_read(self):
        async def scenario():
            async with SocketCluster(n_nodes=3) as cluster:
                client = cluster.client
                # Several transactions: round-robin spreads them over nodes.
                for i in range(6):
                    tx = await client.start_transaction()
                    await client.put(tx, f"item:{i}", f"value-{i}".encode())
                    token = await client.commit_transaction(tx)
                    assert token  # a TransactionId token string
                # Every value readable regardless of which node serves.
                for i in range(6):
                    tx = await client.start_transaction()
                    value = await client.get(tx, f"item:{i}")
                    assert value == f"value-{i}".encode()
                    await client.commit_transaction(tx)
                info = await client.info()
                assert sorted(info.nodes) == ["n0", "n1", "n2"]
                assert info.commits > 0

        asyncio.run(scenario())

    def test_abort_discards_and_errors_cross_the_wire(self):
        async def scenario():
            async with SocketCluster(n_nodes=2) as cluster:
                client = cluster.client
                tx = await client.start_transaction()
                await client.put(tx, "doomed", b"x")
                await client.abort_transaction(tx)
                check = await client.start_transaction()
                assert await client.get(check, "doomed") is None
                await client.commit_transaction(check)
                # An op on the aborted (unrouted) txid surfaces as the same
                # exception class the node would raise locally.
                with pytest.raises(UnknownTransactionError):
                    await client.get(tx, "doomed")

        asyncio.run(scenario())

    def test_multi_key_commit_is_atomic_across_nodes(self):
        async def scenario():
            async with SocketCluster(n_nodes=3) as cluster:
                client = cluster.client
                tx = await client.start_transaction()
                await client.put_many(tx, {"pair:a": b"1", "pair:b": b"1"})
                await client.commit_transaction(tx)
                # Readers on any node see the pair together.
                for _ in range(4):
                    tx = await client.start_transaction()
                    values = await client.get_many(tx, ["pair:a", "pair:b"])
                    assert values["pair:a"] == values["pair:b"] == b"1"
                    await client.commit_transaction(tx)

        asyncio.run(scenario())


class TestReadAtomicity:
    def test_concurrent_tagged_workload_has_no_anomalies(self):
        """The acceptance-criteria checker run: Table-2 methodology on sockets."""

        KEYS = [f"acct:{i}" for i in range(8)]

        async def worker(client: AsyncRouterClient, worker_id: int, checker_logs: list):
            for round_no in range(5):
                txid = await client.start_transaction()
                log = TransactionLog(txn_uuid=txid)
                op_index = 0
                # Read two keys, then write two keys (cowritten together).
                reads = [KEYS[(worker_id + round_no + j) % len(KEYS)] for j in range(2)]
                for key in reads:
                    raw = await client.get(txid, key)
                    log.record_read(key, TaggedValue.try_from_bytes(raw), op_index)
                    op_index += 1
                writes = [KEYS[(worker_id * 3 + round_no + j) % len(KEYS)] for j in range(2)]
                write_set = frozenset(writes)
                stamp = time.time()
                for key in writes:
                    tag = TaggedValue(
                        payload=f"w{worker_id}r{round_no}".encode(),
                        timestamp=stamp,
                        uuid=txid,
                        cowritten=write_set,
                    )
                    await client.put(txid, key, tag.to_bytes())
                    log.record_write(key, tag.version, op_index)
                    op_index += 1
                token = await client.commit_transaction(txid)
                checker_logs.append((log, txid, token))

        async def scenario():
            async with SocketCluster(n_nodes=3) as cluster:
                collected: list = []
                await asyncio.gather(
                    *(worker(cluster.client, w, collected) for w in range(6))
                )
                return collected

        collected = asyncio.run(scenario())
        checker = AnomalyChecker()
        for log, txid, token in collected:
            # AFT orders versions by commit timestamp (Section 6.1.2).
            checker.register_commit_order(txid, TransactionId.from_token(token))
            checker.add(log)
        counts = checker.counts()
        assert counts.committed_transactions == 30
        assert counts.ryw_anomalies == 0
        assert counts.fractured_read_anomalies == 0


class TestNemesisFencing:
    def test_partitioned_node_is_fenced_and_standby_serves(self):
        async def scenario():
            async with SocketCluster(
                n_nodes=2, standbys=1, lease_duration=0.5, heartbeat_interval=0.1
            ) as cluster:
                client = cluster.client
                for i in range(4):
                    tx = await client.start_transaction()
                    await client.put(tx, f"pre:{i}", b"stable")
                    await client.commit_transaction(tx)

                # The victim opens a transaction before the partition.
                victim = cluster.nodes[0].node
                late_txid = victim.start_transaction()
                await victim.put_async(late_txid, "late-key", b"late")

                # Nemesis: pause heartbeats only; the data path stays up.
                await client.nemesis("n0", pause_heartbeats=True)
                deadline = asyncio.get_running_loop().time() + 5.0
                while True:
                    info = await client.info()
                    if "n0" not in info.nodes and "s0" in info.nodes:
                        break
                    assert asyncio.get_running_loop().time() < deadline, info
                    await asyncio.sleep(0.05)
                assert victim.is_running  # false positive: never crashed

                # The late commit's record write is fenced at the router.
                with pytest.raises(FencedNodeError, match="stale epoch"):
                    await victim.commit_transaction_async(late_txid)

                # The promoted cluster still serves, and the fenced write
                # never became visible.
                tx = await client.start_transaction()
                values = await client.get_many(tx, ["pre:1", "late-key"])
                assert values["pre:1"] == b"stable"
                assert values["late-key"] is None
                await client.commit_transaction(tx)

                info = await client.info()
                assert len(info.nodes) == 2 and "s0" in info.nodes

        asyncio.run(scenario())

    def test_epoch_advances_on_each_membership_change(self):
        async def scenario():
            async with SocketCluster(n_nodes=2, standbys=1) as cluster:
                first = (await cluster.client.info()).epoch
                await cluster.client.nemesis("n1", pause_heartbeats=True)
                deadline = asyncio.get_running_loop().time() + 5.0
                while "n1" in (await cluster.client.info()).nodes:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                second = (await cluster.client.info()).epoch
                # Revocation + standby grant: at least two bumps.
                assert second >= first + 2

        asyncio.run(scenario())


    def test_standby_promotion_needs_no_worker_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("asyncio.to_thread called on the node path")

        async def scenario():
            async with SocketCluster(n_nodes=1, standbys=1) as cluster:
                monkeypatch.setattr(asyncio, "to_thread", no_threads)
                client = cluster.client
                tx = await client.start_transaction()
                await client.put(tx, "before", b"promotion")
                await client.commit_transaction(tx)

                await client.nemesis("n0", pause_heartbeats=True)
                deadline = asyncio.get_running_loop().time() + 5.0
                while (await client.info()).nodes != ["s0"]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)

                # The promoted standby bootstrapped from the Commit Set.
                tx = await client.start_transaction()
                assert await client.get(tx, "before") == b"promotion"
                await client.commit_transaction(tx)

        asyncio.run(scenario())


class TestNodeBackgroundLoops:
    def test_heartbeats_survive_one_failed_notify(self):
        async def scenario():
            async with SocketCluster(
                n_nodes=1, lease_duration=0.6, heartbeat_interval=0.1
            ) as cluster:
                server = cluster.nodes[0]
                real_notify = server.conn.notify
                failed_at: list[float] = []

                async def flaky_notify(message):
                    if isinstance(message, m.Heartbeat) and not failed_at:
                        failed_at.append(time.monotonic())
                        raise RuntimeError("transient send failure")
                    return await real_notify(message)

                server.conn.notify = flaky_notify
                session = cluster.router._sessions["n0"]
                deadline = time.monotonic() + 2.0
                while not failed_at or session.last_heartbeat <= failed_at[0]:
                    assert time.monotonic() < deadline, "no heartbeat after the failure"
                    await asyncio.sleep(0.02)
                # Well past one lease: the node was never fenced.
                await asyncio.sleep(0.8)
                info = await cluster.client.info()
                assert info.nodes == ["n0"] and not session.declared_failed

        asyncio.run(scenario())

    def test_finished_transactions_are_forgotten(self):
        async def scenario():
            async with SocketCluster(n_nodes=1, heartbeat_interval=0.1) as cluster:
                client = cluster.client
                for i in range(100):
                    tx = await client.start_transaction()
                    await client.put(tx, f"churn:{i % 8}", b"v")
                    await client.commit_transaction(tx)
                await asyncio.sleep(0.25)
                assert len(cluster.nodes[0].node._transactions) <= 3

        asyncio.run(scenario())

    def test_abandoned_transaction_expires(self):
        async def scenario():
            config = AftConfig().with_overrides(transaction_timeout=0.2)
            async with SocketCluster(n_nodes=1, heartbeat_interval=0.1, config=config) as cluster:
                client = cluster.client
                node = cluster.nodes[0].node
                tx = await client.start_transaction()
                await client.put(tx, "abandoned", b"v")
                deadline = time.monotonic() + 2.0
                while node.stats.transactions_aborted < 1:
                    assert time.monotonic() < deadline, "the idle transaction never expired"
                    await asyncio.sleep(0.02)
                with pytest.raises((UnknownTransactionError, TransactionAbortedError)):
                    await client.commit_transaction(tx)
                check = await client.start_transaction()
                assert await client.get(check, "abandoned") is None

        asyncio.run(scenario())


def _record(server: NodeServer, key: str) -> tuple[str, CommitRecord]:
    """A commit record stamped with ``server``'s live epoch, and its storage key."""
    record = CommitRecord(
        txid=TransactionId(timestamp=time.time(), uuid=f"direct-{key}"),
        write_set={key: f"data:{key}"},
        committed_at=time.time(),
        node_id=server.node_id,
        epoch=server.node.fence_token.epoch,
    )
    return server.node.commit_store.record_storage_key(record.txid), record


def _delivered(servers: list[NodeServer]) -> list[float]:
    return [server.metrics.counter("commits_delivered").value for server in servers]


class _RejectingStorage(InMemoryStorage):
    """Shared storage that refuses writes to one key."""

    def __init__(self, doomed: str) -> None:
        super().__init__()
        self.doomed = doomed

    async def put_async(self, key: str, value: bytes) -> None:
        if key == self.doomed:
            raise StorageError(f"write to {key!r} refused")
        await super().put_async(key, value)


class TestCommitFanOut:
    def test_a_commit_is_one_storage_round_trip(self):
        async def scenario():
            async with SocketCluster(n_nodes=1) as cluster:
                server = cluster.nodes[0]
                client = cluster.client
                tx = await client.start_transaction()
                await client.put_many(tx, {"one:a": b"1", "one:b": b"2"})
                sent: list[type] = []
                real_request = server.conn.request

                async def recording_request(message, *args, **kwargs):
                    sent.append(type(message))
                    return await real_request(message, *args, **kwargs)

                server.conn.request = recording_request
                batches = cluster.router.metrics.counter("storage_batches")
                before = batches.value
                await client.commit_transaction(tx)
                assert batches.value == before + 1
                assert sent == [m.StorageBatch]

        asyncio.run(scenario())

    def test_record_after_a_failed_data_op_is_never_written(self):
        async def scenario():
            async with SocketCluster(
                n_nodes=2, storage=_RejectingStorage("data:doomed")
            ) as cluster:
                record_key, record = _record(cluster.nodes[0], "doomed")
                delivered = _delivered(cluster.nodes)
                published = cluster.router.metrics.counter("commit_records_published").value
                conn = await connect("127.0.0.1", cluster.router.port, name="raw-storage")
                try:
                    batch = m.encode_storage_ops(
                        [
                            StorageOp(op="put", keys=("data:doomed",), items={"data:doomed": b"x"}),
                            StorageOp(
                                op="put",
                                keys=(record_key,),
                                items={record_key: record.to_bytes()},
                                after=(0,),
                            ),
                        ]
                    )
                    results = m.decode_storage_results(await conn.request(batch, timeout=5.0))
                finally:
                    await conn.close()
                assert isinstance(results[0].error, StorageError)
                assert isinstance(results[1].error, StorageError)
                assert await cluster.router.storage.get_async(record_key) is None
                await asyncio.sleep(0.05)
                assert _delivered(cluster.nodes) == delivered
                assert (
                    cluster.router.metrics.counter("commit_records_published").value == published
                )

        asyncio.run(scenario())

    def test_a_landed_record_reaches_the_peers_without_a_publish(self):
        async def scenario():
            async with SocketCluster(n_nodes=2) as cluster:
                n0, n1 = cluster.nodes
                record_key, record = _record(n0, "direct")
                await n0.storage.put_async(record_key, record.to_bytes())
                deadline = time.monotonic() + 2.0
                while n1.node.metadata_cache.get(record.txid) is None:
                    assert time.monotonic() < deadline, "the record never reached n1"
                    await asyncio.sleep(0.02)
                # The writer is skipped: it already knows its own commits.
                assert n0.node.metadata_cache.get(record.txid) is None

        asyncio.run(scenario())

    def test_fenced_commit_frame_delivers_nothing(self):
        async def scenario():
            async with SocketCluster(n_nodes=2) as cluster:
                n0, n1 = cluster.nodes
                victim = n0.node
                txid = victim.start_transaction()
                await victim.put_async(txid, "fenced-key", b"late")
                cluster.router.fence.revoke("n0")
                delivered = _delivered([n1])
                batches = cluster.router.metrics.counter("storage_batches")
                before = batches.value
                with pytest.raises(FencedNodeError):
                    await victim.commit_transaction_async(txid)
                assert batches.value == before + 1
                await asyncio.sleep(0.05)
                assert _delivered([n1]) == delivered
                tx = await cluster.client.start_transaction()
                assert await cluster.client.get(tx, "fenced-key") is None

        asyncio.run(scenario())

    def test_a_failed_delivery_is_logged_and_the_commit_still_acks(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.rpc.router")

        async def scenario():
            async with SocketCluster(n_nodes=2) as cluster:

                async def broken_notify(message):
                    raise RuntimeError("peer link down")

                cluster.router._sessions["n1"].conn.notify = broken_notify
                failures = cluster.router.metrics.counter("deliver_failures")
                before = failures.value
                client = cluster.client
                tx = await client.start_transaction()
                assert cluster.router._routes[tx].node_id == "n0"
                await client.put(tx, "lonely", b"v")
                assert await client.commit_transaction(tx)
                assert failures.value == before + 1

        asyncio.run(scenario())
        warnings = [r for r in caplog.records if r.name == "repro.rpc.router"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING


class _RecordingConn:
    """Connection stand-in: records each storage frame, every op succeeds."""

    def __init__(self) -> None:
        self.frames: list[list[StorageOp]] = []
        self.stats = types.SimpleNamespace(batched_ops_sent=0)

    async def request(self, batch, timeout=None):
        ops = m.decode_storage_ops(batch)
        self.frames.append(ops)
        return m.encode_storage_results([StorageOpResult() for _ in ops])


class TestOpGroups:
    def test_dependency_waves_follow_the_links(self):
        get, put = StorageOp(op="get", keys=("k",)), StorageOp(op="put", keys=("k",), items={"k": b""})
        ops = [get, replace(put, after=(0,)), get, replace(put, after=(1, 2))]
        assert dependency_waves(ops) == [[0, 2], [1], [3]]
        with pytest.raises(AftError):
            dependency_waves([replace(get, after=(0,))])

    def test_a_group_rides_one_frame_with_its_links_shifted(self):
        async def scenario():
            conn = _RecordingConn()
            storage = RemoteStorage(conn, loop=asyncio.get_running_loop())
            data = StorageOp(op="put", keys=("d",), items={"d": b"x"})
            record = StorageOp(op="put", keys=("r",), items={"r": b"y"}, after=(0,))
            await asyncio.gather(
                storage.get_async("k"), storage.execute_group_async([data, record])
            )
            assert conn.frames == [
                [StorageOp(op="get", keys=("k",)), data, replace(record, after=(1,))]
            ]

        asyncio.run(scenario())

    def test_repr_does_no_io_on_the_loop(self):
        async def scenario():
            storage = RemoteStorage(_RecordingConn(), loop=asyncio.get_running_loop())
            assert repr(storage) == "<RemoteStorage name='remote'>"

        asyncio.run(scenario())

    def test_a_group_is_never_split_across_frames(self, monkeypatch):
        monkeypatch.setattr(storage_client, "COALESCE_MAX_OPS", 4)

        async def scenario():
            conn = _RecordingConn()
            storage = RemoteStorage(conn, loop=asyncio.get_running_loop())
            group = [StorageOp(op="get", keys=(f"g{i}",), after=(i - 1,) if i else ()) for i in range(2)]
            big = [StorageOp(op="get", keys=(f"b{i}",)) for i in range(6)]
            await asyncio.gather(
                *(storage.get_async(f"s{i}") for i in range(3)),
                storage.execute_group_async(group),
                storage.execute_group_async(big),
            )
            # The group would overflow the open frame, so it starts a new
            # one; the over-cap group travels alone.
            assert [len(frame) for frame in conn.frames] == [3, 2, 6]
            assert conn.frames[1] == group

        asyncio.run(scenario())


def _slow_storage(seconds: float) -> LatencyInjectedStorage:
    return LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(seconds))


class TestRouterStorageService:
    def test_slow_storage_frame_does_not_stall_the_router_loop(self):
        async def scenario():
            router = RouterServer(port=0, storage=_slow_storage(0.3))
            await router.start()
            conn = await connect("127.0.0.1", router.port, name="raw-storage")
            client = await AsyncRouterClient.connect("127.0.0.1", router.port)
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                batch = m.encode_storage_ops([StorageOp(op="get", keys=("k",))])
                pending = loop.create_task(conn.request(batch, timeout=5.0))
                await asyncio.sleep(0.05)
                assert loop.time() - started < 0.15
                assert not pending.done()
                before_info = loop.time()
                await client.info()
                assert loop.time() - before_info < 0.15
                assert not pending.done()
                reply = await pending
                assert m.decode_storage_results(reply)[0].values == {"k": None}
            finally:
                await client.close()
                await conn.close()
                await router.stop()

        asyncio.run(scenario())

    def test_concurrent_sessions_overlap_their_storage_io(self):
        keys = [f"hot:{i}" for i in range(64)]

        async def run_point(client: AsyncRouterClient, sessions: int, seconds: float) -> float:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + seconds
            committed = 0

            async def session(worker: int) -> None:
                nonlocal committed
                turn = 0
                while loop.time() < deadline:
                    a = keys[(worker * 7 + turn) % len(keys)]
                    b = keys[(worker * 13 + turn + 1) % len(keys)]
                    tx = await client.start_transaction()
                    await client.get_many(tx, [a, b])
                    await client.put(tx, a, b"v")
                    await client.commit_transaction(tx)
                    committed += 1
                    turn += 1

            started = loop.time()
            await asyncio.gather(*(session(w) for w in range(sessions)))
            return committed / (loop.time() - started)

        async def scenario():
            async with SocketCluster(n_nodes=2, storage=_slow_storage(0.005)) as cluster:
                client = cluster.client
                tx = await client.start_transaction()
                await client.put_many(tx, {key: b"seed" for key in keys})
                await client.commit_transaction(tx)
                return await run_point(client, 1, 1.0), await run_point(client, 32, 1.0)

        one, many = asyncio.run(scenario())
        assert many >= 3 * one, (one, many)


class TestWireNegotiation:
    def test_binary_and_batching_negotiated_by_default(self):
        async def scenario():
            async with SocketCluster(n_nodes=2) as cluster:
                client = cluster.client
                for i in range(4):
                    tx = await client.start_transaction()
                    await client.put(tx, f"neg:{i}", b"x" * 64)
                    await client.commit_transaction(tx)
                for node in cluster.nodes:
                    assert isinstance(node.storage, RemoteStorage)
                info = await client.info()
                # Router-side counters prove ops actually crossed batched.
                assert set(info.wire) == {"n0", "n1"}
                for counters in info.wire.values():
                    assert counters["frames_in"] > 0 and counters["frames_out"] > 0
                    assert counters["bytes_in"] > 0 and counters["bytes_out"] > 0
                assert sum(c["batched_ops_in"] for c in info.wire.values()) > 0

        asyncio.run(scenario())

    def test_delete_rides_a_storage_batch(self):
        async def scenario():
            async with SocketCluster(n_nodes=1) as cluster:
                server = cluster.nodes[0]
                await server.storage.put_async("doomed", b"x")
                sent = server.conn.stats.batched_ops_sent
                deletes = server.storage.stats.deletes
                await server.storage.delete_async("doomed")
                assert server.conn.stats.batched_ops_sent == sent + 1
                assert server.storage.stats.deletes == deletes + 1
                assert await cluster.router.storage.get_async("doomed") is None

        asyncio.run(scenario())

    def test_client_connect_sends_nothing(self):
        async def scenario():
            async with SocketCluster(n_nodes=1) as cluster:
                client = await AsyncRouterClient.connect("127.0.0.1", cluster.router.port)
                try:
                    assert client._conn.stats.frames_sent == 0
                    assert (await client.info()).nodes == ["n0"]
                finally:
                    await client.close()

        asyncio.run(scenario())
