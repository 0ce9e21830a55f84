"""The asyncio Table-1 client for a router-fronted cluster.

:class:`AsyncRouterClient` speaks the ``client_*`` messages to a
``repro-router``: every transaction is pinned by the router to one serving
node and its operations are forwarded over that node's connection.  The
surface mirrors the paper's Table 1 — start / get / put / commit / abort —
plus the cluster probes tests and benchmarks need (``info``, ``nemesis``,
``wait_ready``).

This is the ``tcp://`` backend of :class:`repro.client.AftClient`; use that
facade unless you are writing asyncio-native code (the benchmark swarm
does, to keep thousands of open-loop sessions on one loop).
"""

from __future__ import annotations

import asyncio

from repro.errors import AftError
from repro.observability import trace as tr
from repro.rpc import messages as m
from repro.rpc.framing import RpcConnection, connect


class AsyncRouterClient:
    """Async Table-1 sessions against a ``repro-router``."""

    def __init__(self, conn: RpcConnection) -> None:
        self._conn = conn

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncRouterClient":
        """Open a connection; nothing is sent until the first request."""
        return cls(await connect(host, port, name="client"))

    async def close(self) -> None:
        await self._conn.close()

    @property
    def is_closed(self) -> bool:
        return self._conn.is_closed

    # ------------------------------------------------------------------ #
    # Table 1
    # ------------------------------------------------------------------ #
    async def start_transaction(self, txid: str | None = None) -> str:
        # The start span anchors the transaction's trace: once the reply
        # names the txid, the span re-keys onto the txid-derived trace id and
        # registers as the anchor every later per-op span parents under.
        with tr.span("client.start") as span:
            reply = await self._conn.request(
                m.ClientStart(txid=txid or "", trace=tr.wire_context())
            )
            if not isinstance(reply, m.ClientStarted):
                raise AftError(f"unexpected start reply {type(reply).__name__}")
            span.bind_txn(reply.txid)
            return reply.txid

    async def get_many(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        with tr.span("client.get", txid=txid, n_keys=len(keys)):
            reply = await self._conn.request(
                m.ClientGet(txid=txid, keys=list(keys), trace=tr.wire_context())
            )
        values = getattr(reply, "values", {})
        return {key: values.get(key) for key in keys}

    async def get(self, txid: str, key: str) -> bytes | None:
        return (await self.get_many(txid, [key]))[key]

    async def put(self, txid: str, key: str, value: bytes | str) -> None:
        if isinstance(value, str):
            value = value.encode("utf-8")
        await self.put_many(txid, {key: value})

    async def put_many(self, txid: str, items: dict[str, bytes]) -> None:
        # Deliberately un-spanned end to end: a put only appends to the node's
        # write buffer (microseconds, no storage IO), and spanning it at every
        # layer added ~20% to the traced hot path for no timing signal.  The
        # buffered writes surface in the commit spans that persist them.
        await self._conn.request(m.ClientPut(txid=txid, items=dict(items)))

    async def commit_transaction(self, txid: str) -> str:
        try:
            with tr.span("client.commit", txid=txid):
                reply = await self._conn.request(m.ClientCommit(txid=txid, trace=tr.wire_context()))
        finally:
            tr.end_txn(txid)
        return getattr(reply, "commit_token", "")

    async def abort_transaction(self, txid: str) -> None:
        try:
            with tr.span("client.abort", txid=txid):
                await self._conn.request(m.ClientAbort(txid=txid, trace=tr.wire_context()))
        finally:
            tr.end_txn(txid)

    # ------------------------------------------------------------------ #
    # Cluster probes
    # ------------------------------------------------------------------ #
    async def info(self) -> m.InfoReply:
        reply = await self._conn.request(m.Info())
        if not isinstance(reply, m.InfoReply):
            raise AftError(f"unexpected info reply {type(reply).__name__}")
        return reply

    async def wait_ready(self, n_nodes: int, timeout: float = 30.0) -> m.InfoReply:
        """Poll ``info`` until ``n_nodes`` serving nodes are registered."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            info = await self.info()
            if len(info.nodes) >= n_nodes:
                return info
            if asyncio.get_running_loop().time() > deadline:
                raise AftError(
                    f"cluster not ready: {len(info.nodes)}/{n_nodes} nodes after {timeout}s"
                )
            await asyncio.sleep(0.05)

    async def nemesis(
        self,
        node_id: str,
        pause_heartbeats: bool = True,
        deliver_delay: float = 0.0,
        deliver_drop: bool = False,
        router_only: bool = False,
    ) -> None:
        """Inject a fault at ``node_id``: a membership-plane partition
        (``pause_heartbeats``) and/or router-side commit-frame faults
        (``deliver_delay`` seconds of added latency, or ``deliver_drop`` to
        sever the broadcast link).  ``router_only`` keeps the message at the
        router so frame faults do not disturb the node's heartbeat switch."""
        await self._conn.request(
            m.Nemesis(
                node_id=node_id,
                pause_heartbeats=pause_heartbeats,
                deliver_delay=deliver_delay,
                deliver_drop=deliver_drop,
                router_only=router_only,
            )
        )
