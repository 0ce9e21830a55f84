"""The ``repro-router`` process: the cluster's shared services on one port.

The router plays the roles that live *outside* the shim nodes in the
paper's deployment (Section 4):

* **Shared storage.**  An in-process engine (``InMemoryStorage`` by
  default) serves every node's :class:`~repro.rpc.messages.StorageBatch`.
  This is the stand-in for cloud storage — and therefore the one authority
  a late writer cannot bypass, so **epoch fencing is enforced here**: every
  put whose key is a commit-record key has its record parsed and its
  ``(node_id, epoch)`` stamp validated against the router's
  :class:`~repro.core.metadata_plane.fencing.EpochFence` before the write
  lands.  A fenced node's commit fails at the record write, after its data
  writes — exactly the §3.3 write-ordering failure mode AFT tolerates:
  durable but unreferenced data, garbage, never a visible commit.  The
  §3.3 order itself is enforced here too: a frame's ops run in dependency
  waves (``StorageOp.after``) through the same wave executor every engine
  uses (:func:`~repro.storage.base.run_op_group`), so a node's commit plan
  — data, then record — is one frame, and a record whose data failed is
  never written.
* **Lease membership.**  Nodes renew leases with heartbeat frames; a lease
  expiring marks the node failed, revokes its fencing token, removes it
  from client routing, and promotes a standby (fresh token, ``activate``
  message) — the :class:`~repro.core.metadata_plane.membership.LeaseMembership`
  strategy made load-bearing on sockets.
* **Commit-stream hub.**  A commit-record put that lands is fanned out as
  ``deliver_commits`` to every other serving node before the writer gets
  its storage reply — the :class:`CommitStream` strategy's role, played
  where the record is written, so an acked commit has always reached the
  peers' links and the node needs no publish round trip of its own.
* **Client session routing.**  Clients open transactions against the
  router; each is pinned round-robin to a serving node, and the client's own
  Table-1 messages are relayed over that node's existing connection.  The
  node answers in the client protocol, so its reply goes back unchanged.

Run it: ``repro-router --port 7400`` (``--port 0`` picks a free port and
prints it on the ``REPRO_ROUTER_READY`` line that process harnesses wait
for).
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
import time
from dataclasses import dataclass, field

from repro.config import ObservabilityConfig
from repro.core.commit_set import CommitRecord
from repro.core.metadata_plane.fencing import EpochFence
from repro.core.metadata_plane.keyspace import PARTITIONED_PREFIX
from repro.errors import AftError, NoAvailableNodeError, UnknownTransactionError
from repro.ids import COMMIT_PREFIX, KEY_SEPARATOR
from repro.observability import metrics as om
from repro.observability import trace as tr
from repro.observability.sink import ObservabilitySink
from repro.rpc import messages as m
from repro.rpc.framing import RpcConnection, pin_malloc_thresholds
from repro.storage.base import StorageEngine, StorageOp, StorageOpResult, run_op_group
from repro.storage.memory import InMemoryStorage

_COMMIT_KEY_PREFIXES = (COMMIT_PREFIX + KEY_SEPARATOR, PARTITIONED_PREFIX + ".")


logger = logging.getLogger(__name__)


def is_commit_record_storage_key(key: str) -> bool:
    """Whether ``key`` holds a commit record under any keyspace layout."""
    return key.startswith(_COMMIT_KEY_PREFIXES)


@dataclass
class _NodeSession:
    """Router-side state of one connected node process."""

    conn: RpcConnection
    node_id: str
    kind: str
    #: Serving client traffic (standbys flip True on activation; a declared-
    #: failed node flips False forever).
    active: bool = False
    last_heartbeat: float = field(default_factory=time.monotonic)
    declared_failed: bool = False
    #: Nemesis frame faults: commit deliver frames bound for this node are
    #: delayed by ``deliver_delay`` seconds and dropped when ``deliver_drop``.
    deliver_delay: float = 0.0
    deliver_drop: bool = False


class RouterServer:
    """The cluster's storage, membership, fencing, and routing authority."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        storage: StorageEngine | None = None,
        lease_duration: float = 5.0,
        heartbeat_interval: float = 1.0,
        observability: ObservabilityConfig | None = None,
    ) -> None:
        if lease_duration <= heartbeat_interval:
            raise ValueError("lease_duration must exceed heartbeat_interval")
        self.host = host
        self.port = port
        self.storage = storage if storage is not None else InMemoryStorage()
        self.lease_duration = lease_duration
        self.heartbeat_interval = heartbeat_interval
        self.fence = EpochFence()

        self._server: asyncio.AbstractServer | None = None
        self._sessions: dict[str, _NodeSession] = {}
        self._routes: dict[str, _NodeSession] = {}
        self._round_robin = 0
        self._lease_task: asyncio.Task | None = None
        self._commits_seen = 0
        self.observability = observability if observability is not None else ObservabilityConfig()
        tr.apply_config(self.observability)
        #: The router's metrics registry — scrapeable over the wire via the
        #: ``info`` RPC (see the InfoReply construction) and snapshotted to
        #: JSON-lines by the sink when ``--metrics-interval`` is set.
        self.metrics = om.registry("router")
        self._sink = ObservabilitySink("router", self.observability)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._lease_task = asyncio.get_running_loop().create_task(self._lease_loop())
        self._sink.start()

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        await self._sink.stop()
        if self._lease_task is not None:
            self._lease_task.cancel()
            try:
                await self._lease_task
            except asyncio.CancelledError:
                pass
            self._lease_task = None
        for session in list(self._sessions.values()):
            await session.conn.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn = RpcConnection(reader, writer, handler=self._handle, name="router-peer")
        conn.on_close = self._connection_lost
        conn.start()

    def _connection_lost(self, conn: RpcConnection) -> None:
        for node_id, session in list(self._sessions.items()):
            if session.conn is conn:
                # A dropped socket is a hard failure: fence immediately
                # rather than waiting out the lease.
                self._declare_failed(session, reason="connection lost")
                self._sessions.pop(node_id, None)

    # ------------------------------------------------------------------ #
    # Lease membership + fencing
    # ------------------------------------------------------------------ #
    async def _lease_loop(self) -> None:
        interval = max(0.05, self.lease_duration / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            expired = [
                session
                for session in self._sessions.values()
                if session.active
                and not session.declared_failed
                and (now - session.last_heartbeat) > self.lease_duration
            ]
            for session in expired:
                self._declare_failed(session, reason="lease expired")
                await self._promote_standby()

    def _declare_failed(self, session: _NodeSession, reason: str) -> None:
        if session.declared_failed:
            return
        session.declared_failed = True
        was_active = session.active
        session.active = False
        tr.annotate("router.node_failed", node=session.node_id, reason=reason)
        self.metrics.counter("nodes_failed").inc()
        if was_active or self.fence.granted_epoch(session.node_id) is not None:
            # Revoke *before* anything else: from here on the node's late
            # commit-record writes carry a dead epoch.
            self.fence.revoke(session.node_id)
        # Transactions pinned to the dead node stay pinned: their next op
        # surfaces the failure to the client (who retries a new txn), rather
        # than silently landing on a node that never heard of the txid.

    async def _promote_standby(self) -> None:
        standby = next(
            (
                s
                for s in self._sessions.values()
                if s.kind == "standby" and not s.active and not s.declared_failed
            ),
            None,
        )
        if standby is None:
            return
        token = self.fence.grant(standby.node_id)
        standby.kind = "node"
        standby.last_heartbeat = time.monotonic()
        try:
            await standby.conn.request(
                m.Activate(node_id=standby.node_id, epoch=token.epoch), timeout=10.0
            )
        except Exception:
            self._declare_failed(standby, reason="activation failed")
            return
        standby.active = True
        tr.annotate("router.promote_standby", node=standby.node_id)
        self.metrics.counter("standbys_promoted").inc()

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    async def _handle(self, conn: RpcConnection, msg: m.WireMessage) -> m.WireMessage | None:
        if isinstance(msg, m.StorageBatch):
            return await self._handle_storage_batch(conn, msg)
        if isinstance(msg, m.Heartbeat):
            session = self._sessions.get(msg.node_id)
            if session is not None and not session.declared_failed:
                session.last_heartbeat = time.monotonic()
            return None
        if isinstance(msg, m.Hello):
            return self._handle_hello(conn, msg)
        if isinstance(msg, m.ClientStart):
            return await self._handle_client_start(msg)
        if isinstance(msg, m.ClientGet):
            with tr.span("router.get", txid=msg.txid, parent=msg.trace):
                return await self._forward(msg)
        if isinstance(msg, m.ClientPut):
            # Un-spanned on purpose: puts are write-buffer appends (see the
            # client-side note); the commit spans carry their persistence.
            return await self._forward(msg)
        if isinstance(msg, m.ClientCommit):
            try:
                with tr.span("router.commit", txid=msg.txid, parent=msg.trace):
                    reply = await self._forward(msg)
                self.metrics.counter("txns_committed").inc()
            finally:
                self._routes.pop(msg.txid, None)
            return reply
        if isinstance(msg, m.ClientAbort):
            try:
                with tr.span("router.abort", txid=msg.txid, parent=msg.trace):
                    reply = await self._forward(msg)
                self.metrics.counter("txns_aborted").inc()
            finally:
                self._routes.pop(msg.txid, None)
            return reply
        if isinstance(msg, m.Info):
            return m.InfoReply(
                nodes=sorted(s.node_id for s in self._sessions.values() if s.active),
                standbys=sorted(
                    s.node_id
                    for s in self._sessions.values()
                    if s.kind == "standby" and not s.active and not s.declared_failed
                ),
                epoch=self.fence.epoch,
                commits=self._commits_seen,
                wire={
                    node_id: s.conn.stats.as_dict()
                    for node_id, s in sorted(self._sessions.items())
                },
                metrics=self.metrics.snapshot(),
            )
        if isinstance(msg, m.Nemesis):
            session = self._sessions.get(msg.node_id)
            if session is None:
                raise AftError(f"no such node {msg.node_id!r}")
            session.deliver_delay = msg.deliver_delay
            session.deliver_drop = msg.deliver_drop
            if not msg.router_only:
                await session.conn.request(msg, timeout=10.0)
            return m.Ok()
        raise AftError(f"router cannot handle {msg.TYPE!r}")

    # ------------------------------------------------------------------ #
    def _handle_hello(self, conn: RpcConnection, msg: m.Hello) -> m.HelloAck:
        session = _NodeSession(conn=conn, node_id=msg.node_id, kind=msg.kind)
        epoch = 0
        if msg.kind == "node":
            token = self.fence.grant(msg.node_id)
            epoch = token.epoch
            session.active = True
        self._sessions[msg.node_id] = session
        return m.HelloAck(
            node_id=msg.node_id,
            epoch=epoch,
            lease_duration=self.lease_duration,
            heartbeat_interval=self.heartbeat_interval,
        )

    async def _fan_out(self, sender: RpcConnection, records: list[bytes]) -> None:
        """Send landed commit records to every serving node but ``sender``."""
        deliver = m.DeliverCommits(records=records)
        for session in list(self._sessions.values()):
            if session.active and session.conn is not sender:
                if session.deliver_drop:
                    # Nemesis: the broadcast link to this node is severed.
                    continue
                if session.deliver_delay > 0:
                    # Nemesis: a slow link.  Delivery completes off this
                    # request's critical path, losing the commit-ack ordering
                    # guarantee on purpose — that is the fault being modelled.
                    asyncio.get_running_loop().create_task(
                        self._deliver_later(session, deliver, session.deliver_delay)
                    )
                    continue
                await self._deliver(session, deliver)

    async def _deliver_later(
        self, session: _NodeSession, deliver: m.DeliverCommits, delay: float
    ) -> None:
        await asyncio.sleep(delay)
        await self._deliver(session, deliver)

    async def _deliver(self, session: _NodeSession, deliver: m.DeliverCommits) -> None:
        try:
            await session.conn.notify(deliver)
        except Exception:
            # The peer never gets these records: say so.  The lease loop (or
            # on_close) handles a dead peer.
            self.metrics.counter("deliver_failures").inc()
            logger.warning(
                "router: %d commit record(s) not delivered to %s",
                len(deliver.records),
                session.node_id,
                exc_info=True,
            )

    async def _handle_client_start(self, msg: m.ClientStart) -> m.WireMessage:
        serving = [s for s in self._sessions.values() if s.active]
        if not serving:
            raise NoAvailableNodeError("no serving node connected to the router")
        session = serving[self._round_robin % len(serving)]
        self._round_robin += 1
        with tr.span("router.start", parent=msg.trace, node=session.node_id) as span:
            msg.trace = tr.wire_context()
            reply = await session.conn.request(msg, timeout=10.0)
            span.bind_txn(reply.txid)
        self._routes[reply.txid] = session
        self.metrics.counter("txns_started").inc()
        return reply

    async def _forward(self, msg: m.WireMessage) -> m.WireMessage:
        """Relay a client's session message to the node its txid is pinned
        to; the node's reply is the client's reply."""
        session = self._routes.get(msg.txid)
        if session is None:
            raise UnknownTransactionError(
                f"transaction {msg.txid!r} is not routed through this router", txid=msg.txid
            )
        msg.trace = tr.wire_context()
        return await session.conn.request(msg, timeout=30.0)

    # ------------------------------------------------------------------ #
    # Storage service (with the fencing gate)
    # ------------------------------------------------------------------ #
    def _check_put_fence(self, key: str, value: bytes) -> None:
        """The load-bearing fencing check: reject stale commit-record writes.

        Data-key writes pass through unfenced (a late node's data writes are
        harmless garbage — §3.3); only the commit record makes a transaction
        visible, so that is where the epoch stamp is validated.
        """
        if not is_commit_record_storage_key(key):
            return
        record = CommitRecord.from_bytes(value)
        self.fence.check(record.node_id, record.epoch)

    async def _handle_storage(self, op: StorageOp) -> StorageOpResult:
        """Apply one storage op to the engine, fence check included.

        The one per-op apply: every op of every ``storage_batch`` frame lands
        here, so no path bypasses the fencing gate.  A failed op comes back as
        its result's ``error``, failing only its own waiter.  The whole op is
        validated before any of it is written: an op with one fenced record
        writes nothing (the group-commit flush relies on this all-or-nothing
        shape).  The fence check and the write share this coroutine on the
        loop that also runs ``fence.grant`` / ``revoke``, with no ``await``
        between them, so over a metered engine check-then-write is one
        uninterrupted step.
        """
        if op.items:
            try:
                for key, value in op.items.items():
                    self._check_put_fence(key, value)
            except Exception as exc:
                return StorageOpResult(error=exc)
        return await self.storage.apply_op(op)

    async def _handle_storage_batch(
        self, conn: RpcConnection, msg: m.StorageBatch
    ) -> m.StorageBatchResult:
        """Execute one batched op group, one reply frame, errors per op.

        The frame runs through :func:`~repro.storage.base.run_op_group`, the
        wave executor every engine's ``execute_group_async`` uses: each
        dependency wave is issued through the engine's ``fan_out``, and an
        op with a failed prerequisite never touches storage — §3.3's
        data-before-record order, enforced where the writes land.  Ops of
        one wave are independent: one failing does not stop the others.

        Every commit record the frame landed goes to the other serving nodes
        in one ``deliver_commits`` *before* the reply, so by the time the
        writer acks its commit each sibling's deliver frame is already
        queued ahead of any later request to it.
        """
        ops = m.decode_storage_ops(msg)
        conn.stats.batched_ops_received += len(ops)
        self.metrics.counter("storage_ops").inc(len(ops))
        self.metrics.counter("storage_batches").inc()
        with tr.span("router.storage_batch", parent=msg.trace, n_ops=len(ops)):
            results = await run_op_group(ops, self._handle_storage, self.storage.fan_out)
            records = [
                value
                for op, result in zip(ops, results)
                if op.items and result.error is None
                for key, value in op.items.items()
                if is_commit_record_storage_key(key)
            ]
            if records:
                self._commits_seen += len(records)
                self.metrics.counter("commit_records_published").inc(len(records))
                with tr.span("router.publish_fanout", n_records=len(records)):
                    await self._fan_out(conn, records)
            return m.encode_storage_results(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-router", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7400, help="0 picks a free port")
    parser.add_argument("--lease-duration", type=float, default=5.0)
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="enable tracing and append span/metrics JSONL dumps to this directory",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        help="seconds between metrics snapshots (0 disables; implies tracing on)",
    )
    args = parser.parse_args(argv)
    pin_malloc_thresholds()

    async def run() -> None:
        router = RouterServer(
            host=args.host,
            port=args.port,
            lease_duration=args.lease_duration,
            heartbeat_interval=args.heartbeat_interval,
            observability=ObservabilityConfig(
                enabled=bool(args.trace_dir or args.metrics_interval > 0),
                trace_dir=args.trace_dir,
                metrics_interval=args.metrics_interval,
            ),
        )
        await router.start()
        # The ready line is machine-readable: harnesses parse the port from
        # it (mandatory with --port 0).
        print(f"REPRO_ROUTER_READY host={router.host} port={router.port}", flush=True)
        await router.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
