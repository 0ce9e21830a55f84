"""The one front door to AFT: :class:`AftClient` and :func:`connect`.

Every deployment shape hides behind the same Table-1 surface::

    import repro

    # In-process: an AftCluster built (or wrapped) for you.
    client = repro.connect("inproc://?nodes=3")

    # Distributed: a repro-router fronting repro-node processes.
    client = repro.connect("tcp://127.0.0.1:7400")

    with client.transaction() as txn:
        txn.put("greeting", b"hello")
    with client.transaction() as txn:
        print(txn.get("greeting"))
    client.close()

Examples, benchmarks, and applications talk to :class:`AftClient`; which
runtime serves the transactions — a single node, an in-process simulated
cluster, or router-fronted node processes on sockets — is a connection
string, not a code path.  (Reaching into ``AftNode`` directly remains fine
for tests and for code that studies node internals; the facade is the
application API.)

``tcp://`` runs a private event-loop thread speaking
:class:`~repro.rpc.client.AsyncRouterClient`; asyncio-native callers (the
open-loop benchmark swarm) should use that client directly instead of
paying a thread hop per operation.
"""

from __future__ import annotations

import asyncio
import threading
from urllib.parse import parse_qs, urlsplit

from repro.config import ClusterConfig
from repro.core.cluster import AftCluster, ClusterClient
from repro.core.session import TransactionSession
from repro.errors import AftError
from repro.ids import TransactionId
from repro.storage.base import StorageEngine
from repro.storage.memory import InMemoryStorage


class AftClient:
    """Deployment-agnostic Table-1 client (a ``TransactionalBackend``)."""

    def __init__(self, backend: "_InprocBackend | _TcpBackend") -> None:
        self._backend = backend

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def connect(
        cls,
        url: str,
        cluster: AftCluster | None = None,
        storage: StorageEngine | None = None,
        cluster_config: ClusterConfig | None = None,
    ) -> "AftClient":
        """Open a client for ``url``.

        * ``inproc://`` — wrap ``cluster`` if given, else build an
          :class:`AftCluster` over ``storage`` (default in-memory).  A query
          string tunes the built cluster: ``inproc://?nodes=3&standbys=1``.
          A built cluster is owned — :meth:`close` shuts it down; a wrapped
          one is the caller's to manage.
        * ``tcp://host:port`` — speak to a ``repro-router``.
        """
        parts = urlsplit(url)
        if parts.scheme == "inproc":
            owns = cluster is None
            if cluster is None:
                params = parse_qs(parts.query)
                overrides: dict[str, int] = {}
                if "nodes" in params:
                    overrides["num_nodes"] = int(params["nodes"][0])
                if "standbys" in params:
                    overrides["standby_nodes"] = int(params["standbys"][0])
                if cluster_config is None:
                    cluster_config = ClusterConfig(**overrides)
                cluster = AftCluster(
                    storage if storage is not None else InMemoryStorage(),
                    cluster_config=cluster_config,
                )
            return cls(_InprocBackend(cluster, owns=owns))
        if parts.scheme == "tcp":
            if not parts.hostname or not parts.port:
                raise AftError(f"tcp URL needs host and port: {url!r}")
            return cls(_TcpBackend(parts.hostname, parts.port))
        raise AftError(f"unknown connection scheme {parts.scheme!r} in {url!r}")

    # ------------------------------------------------------------------ #
    # Table 1
    # ------------------------------------------------------------------ #
    def start_transaction(self, txid: str | None = None, affinity_key: str | None = None) -> str:
        return self._backend.start_transaction(txid, affinity_key)

    def get(self, txid: str, key: str) -> bytes | None:
        return self._backend.get(txid, key)

    def get_many(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        return self._backend.get_many(txid, list(keys))

    def put(self, txid: str, key: str, value: bytes | str) -> None:
        if isinstance(value, str):
            value = value.encode("utf-8")
        self._backend.put(txid, key, value)

    def commit_transaction(self, txid: str) -> TransactionId:
        return self._backend.commit_transaction(txid)

    def abort_transaction(self, txid: str) -> None:
        self._backend.abort_transaction(txid)

    def transaction(
        self, txid: str | None = None, affinity_key: str | None = None
    ) -> TransactionSession:
        """Open a ``with``-able transaction (commit on success, abort on error)."""
        return TransactionSession(self, txid, affinity_key=affinity_key)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the connection (and shut down an owned inproc cluster)."""
        self._backend.close()

    def __enter__(self) -> "AftClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def cluster(self) -> AftCluster | None:
        """The underlying in-process cluster, if any (None for ``tcp://``)."""
        return getattr(self._backend, "cluster", None)


class _InprocBackend:
    """``inproc://``: a :class:`ClusterClient` over an :class:`AftCluster`."""

    def __init__(self, cluster: AftCluster, owns: bool) -> None:
        self.cluster = cluster
        self._owns = owns
        self._client = ClusterClient(cluster)

    def start_transaction(self, txid: str | None, affinity_key: str | None) -> str:
        return self._client.start_transaction(txid, affinity_key=affinity_key)

    def get(self, txid: str, key: str) -> bytes | None:
        return self._client.get(txid, key)

    def get_many(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        node = self._client.node_for(txid)
        return node.get_many(txid, keys)

    def put(self, txid: str, key: str, value: bytes) -> None:
        self._client.put(txid, key, value)

    def commit_transaction(self, txid: str) -> TransactionId:
        return self._client.commit_transaction(txid)

    def abort_transaction(self, txid: str) -> None:
        self._client.abort_transaction(txid)

    def close(self) -> None:
        if self._owns:
            self.cluster.shutdown()


class _TcpBackend:
    """``tcp://``: a private loop thread driving an ``AsyncRouterClient``."""

    #: Per-operation budget for the loop-thread round trip.
    call_timeout = 60.0

    def __init__(self, host: str, port: int) -> None:
        from repro.rpc.client import AsyncRouterClient

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=f"aft-client-{host}:{port}", daemon=True
        )
        self._thread.start()
        try:
            self._client: AsyncRouterClient = self._call(AsyncRouterClient.connect(host, port))
        except Exception:
            self._stop_loop()
            raise

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(self.call_timeout)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    # ------------------------------------------------------------------ #
    def start_transaction(self, txid: str | None, affinity_key: str | None) -> str:
        # The router round-robins; affinity hints are an in-process balancer
        # feature and are ignored here.
        del affinity_key
        return self._call(self._client.start_transaction(txid))

    def get(self, txid: str, key: str) -> bytes | None:
        return self._call(self._client.get(txid, key))

    def get_many(self, txid: str, keys: list[str]) -> dict[str, bytes | None]:
        return self._call(self._client.get_many(txid, keys))

    def put(self, txid: str, key: str, value: bytes) -> None:
        self._call(self._client.put(txid, key, value))

    def commit_transaction(self, txid: str) -> TransactionId:
        token = self._call(self._client.commit_transaction(txid))
        return TransactionId.from_token(token)

    def abort_transaction(self, txid: str) -> None:
        self._call(self._client.abort_transaction(txid))

    def close(self) -> None:
        try:
            self._call(self._client.close())
        finally:
            self._stop_loop()


def connect(url: str, **kwargs) -> AftClient:
    """Module-level convenience for :meth:`AftClient.connect`."""
    return AftClient.connect(url, **kwargs)


__all__ = ["AftClient", "connect"]
