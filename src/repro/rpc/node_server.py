"""The ``repro-node`` process: one AFT shim node behind a router connection.

The process owns a single :class:`~repro.core.node.AftNode` on an asyncio
event loop.  Its storage engine is :class:`~repro.rpc.storage_client.RemoteStorage`
over the router connection, so the node's entire §3.3 write protocol — data
writes first, commit record last — executes against the *router's* shared
store, where the epoch fencing check lives.  The same connection carries,
multiplexed:

* **lease renewals** (heartbeat notifications on the cadence the router's
  ``hello_ack`` dictates),
* **the commit stream** (peer commits delivered down and merged into the
  metadata cache; the node's own commits need no publish, because the
  router fans each commit record out where it lands),
* **relayed client sessions** (the clients' own ``client_*`` messages for
  the transactions the router pins here, answered in kind),
* **fault injection** (``nemesis`` pauses heartbeats while leaving the
  data path untouched — the asymmetric-partition / GC-pause scenario that
  makes lease membership produce false positives).

A ``--kind standby`` process registers without a fencing token and idles
until the router's ``activate`` promotes it (fresh epoch, then bootstrap
from the Transaction Commit Set).

Run it: ``repro-node --node-id n0 --router-port 7400``.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import Awaitable, Callable

from repro.config import AftConfig
from repro.core.commit_set import CommitSetStore
from repro.core.metadata_plane.fencing import FenceToken
from repro.core.node import AftNode
from repro.errors import AftError
from repro.observability import metrics as om
from repro.observability import trace as tr
from repro.observability.sink import ObservabilitySink
from repro.rpc import messages as m
from repro.rpc.framing import ConnectionClosedError, RpcConnection, connect, pin_malloc_thresholds
from repro.rpc.storage_client import RemoteStorage

logger = logging.getLogger(__name__)


class NodeServer:
    """One node process: an :class:`AftNode` served over a router connection."""

    def __init__(
        self,
        node_id: str,
        router_host: str = "127.0.0.1",
        router_port: int = 7400,
        kind: str = "node",
        config: AftConfig | None = None,
        coalesce_window: float = 0.0,
    ) -> None:
        if kind not in ("node", "standby"):
            raise ValueError(f"kind must be 'node' or 'standby', not {kind!r}")
        self.node_id = node_id
        self.router_host = router_host
        self.router_port = router_port
        self.kind = kind
        self.config = config if config is not None else AftConfig()
        self.coalesce_window = coalesce_window

        tr.apply_config(self.config.observability)
        self.metrics = om.registry(f"node.{node_id}")
        self._sink = ObservabilitySink(f"node-{node_id}", self.config.observability)

        self.conn: RpcConnection | None = None
        self.node: AftNode | None = None
        self.storage: RemoteStorage | None = None
        self.heartbeat_interval = 1.0
        #: Nemesis switch: heartbeats stop, everything else keeps running.
        self.heartbeats_paused = False
        self._serving = asyncio.Event()
        self._closed = asyncio.Event()
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Connect, register, and (for serving nodes) come online."""
        loop = asyncio.get_running_loop()
        self.conn = await connect(
            self.router_host,
            self.router_port,
            handler=self._handle,
            name=f"node-{self.node_id}",
        )
        self.conn.on_close = lambda _conn: self._closed.set()

        ack = await self.conn.request(m.Hello(node_id=self.node_id, kind=self.kind))
        if not isinstance(ack, m.HelloAck):
            raise AftError(f"unexpected registration reply {type(ack).__name__}")
        self.heartbeat_interval = ack.heartbeat_interval

        self.storage = RemoteStorage(
            self.conn,
            loop=loop,
            request_timeout=self.config.storage_request_timeout,
            coalesce_window=self.coalesce_window,
        )
        self.node = AftNode(
            storage=self.storage,
            commit_store=CommitSetStore(self.storage),
            config=self.config,
            node_id=self.node_id,
        )
        if self.kind == "node":
            await self._come_online(ack.epoch)

        self._tasks = [
            loop.create_task(self._every(self.heartbeat_interval, self._heartbeat, "heartbeat")),
            loop.create_task(self._every(self.heartbeat_interval, self._housekeep, "housekeeping")),
        ]
        self._sink.start()

    async def _come_online(self, epoch: int) -> None:
        """Start serving: adopt the fencing token, then bootstrap.

        The bootstrap scan awaits :class:`RemoteStorage` on this loop, so
        heartbeats, deliveries and other frames keep flowing while the
        Commit Set is read.
        """
        assert self.node is not None
        if epoch:
            self.node.fence_token = FenceToken(node_id=self.node_id, epoch=epoch)
        self.node.start(bootstrap=False)
        await self.node.bootstrap_async()
        self._serving.set()

    async def run_forever(self) -> None:
        await self._closed.wait()
        await self.stop()

    async def stop(self) -> None:
        await self._sink.stop()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self.node is not None and self.node.is_running:
            self.node.stop()
        if self.conn is not None:
            await self.conn.close()

    # ------------------------------------------------------------------ #
    # Background loops
    # ------------------------------------------------------------------ #
    async def _every(self, interval: float, action: Callable[[], Awaitable[None]], what: str) -> None:
        """Await ``action()`` every ``interval`` seconds while serving.

        A failure is logged and the next tick tries again: one transient
        error must not end lease renewals (the lease would lapse and a
        healthy node would be fenced) or housekeeping.  Only a closed
        connection ends the loop.
        """
        while True:
            await asyncio.sleep(interval)
            if not self._serving.is_set():
                continue
            try:
                await action()
            except ConnectionClosedError:
                return
            except Exception:
                logger.exception("node %s: %s failed", self.node_id, what)

    async def _heartbeat(self) -> None:
        if not self.heartbeats_paused:
            await self.conn.notify(m.Heartbeat(node_id=self.node_id))

    async def _housekeep(self) -> None:
        """Bound the per-transaction state (§3.3.1): abort transactions idle
        past ``transaction_timeout`` (a client that died mid-transaction),
        then drop the bookkeeping of finished ones."""
        self.node.expire_idle_transactions()
        self.node.forget_finished_transactions()

    # ------------------------------------------------------------------ #
    # Request handling (router -> node)
    # ------------------------------------------------------------------ #
    async def _handle(self, conn: RpcConnection, msg: m.WireMessage) -> m.WireMessage | None:
        node = self.node
        if isinstance(msg, m.ClientStart):
            with tr.span("node.start", parent=msg.trace) as span:
                txid = node.start_transaction(msg.txid or None)
                span.bind_txn(txid)
            self.metrics.counter("txns_started").inc()
            return m.ClientStarted(txid=txid, node_id=self.node_id)
        if isinstance(msg, m.ClientGet):
            with tr.span("node.get", txid=msg.txid, parent=msg.trace, n_keys=len(msg.keys)):
                values = await node.get_many_async(msg.txid, list(msg.keys))
            return m.ClientValues(values=dict(values))
        if isinstance(msg, m.ClientPut):
            # Un-spanned on purpose: a put is a write-buffer append (see the
            # client-side note); commit spans carry its persistence.
            for key, value in msg.items.items():
                await node.put_async(msg.txid, key, value)
            return m.Ok()
        if isinstance(msg, m.ClientCommit):
            with tr.span("node.commit", txid=msg.txid, parent=msg.trace):
                commit_id = await node.commit_transaction_async(msg.txid)
                # The router already sent the record to the peers when it
                # landed; the in-process multicast queue has no reader here.
                node.drain_recent_commits()
            self.metrics.counter("txns_committed").inc()
            tr.end_txn(msg.txid)
            return m.ClientCommitted(txid=msg.txid, commit_token=commit_id.to_token())
        if isinstance(msg, m.ClientAbort):
            with tr.span("node.abort", txid=msg.txid, parent=msg.trace):
                node.abort_transaction(msg.txid)
            self.metrics.counter("txns_aborted").inc()
            tr.end_txn(msg.txid)
            return m.Ok()
        if isinstance(msg, m.DeliverCommits):
            # Deliberately not annotated: deliveries arrive ~2x per txn with no
            # causal parent, so a span here is pure hot-path noise; the counter
            # below carries the same information.
            self.metrics.counter("commits_delivered").inc(len(msg.records))
            node.receive_commits(m.decode_records(msg.records))
            return m.Ok()
        if isinstance(msg, m.Activate):
            tr.annotate("node.activate", node=self.node_id, epoch=msg.epoch)
            self.kind = "node"
            await self._come_online(msg.epoch)
            return m.Ok()
        if isinstance(msg, m.Nemesis):
            if msg.pause_heartbeats != self.heartbeats_paused:
                tr.annotate(
                    "node.heartbeats_paused" if msg.pause_heartbeats else "node.heartbeats_resumed",
                    node=self.node_id,
                )
            self.heartbeats_paused = msg.pause_heartbeats
            return m.Ok()
        raise AftError(f"node cannot handle {msg.TYPE!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-node", description=__doc__)
    parser.add_argument("--node-id", required=True)
    parser.add_argument("--router-host", default="127.0.0.1")
    parser.add_argument("--router-port", type=int, default=7400)
    parser.add_argument("--kind", choices=("node", "standby"), default="node")
    parser.add_argument(
        "--storage-timeout",
        type=float,
        default=None,
        help="per-request storage round-trip timeout in seconds "
        "(0 waits forever; default: AftConfig.storage_request_timeout)",
    )
    parser.add_argument(
        "--coalesce-window",
        type=float,
        default=0.0,
        help="seconds to hold an open storage batch for ops from other "
        "sessions (0 = same-event-loop-tick only; ~0.001 trades up to "
        "1 ms of stage latency for fewer round trips under load)",
    )
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

    config = AftConfig()
    if args.storage_timeout is not None:
        config = config.with_overrides(
            storage_request_timeout=args.storage_timeout if args.storage_timeout > 0 else None
        )
    if args.trace_dir or args.metrics_interval > 0:
        config = config.with_overrides(
            observability=config.observability.with_overrides(
                enabled=True,
                trace_dir=args.trace_dir,
                metrics_interval=args.metrics_interval,
            )
        )

    async def run() -> None:
        server = NodeServer(
            node_id=args.node_id,
            router_host=args.router_host,
            router_port=args.router_port,
            kind=args.kind,
            config=config,
            coalesce_window=args.coalesce_window,
        )
        await server.start()
        print(f"REPRO_NODE_READY node={args.node_id} kind={args.kind}", flush=True)
        await server.run_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
