"""A thin asyncio-TCP transport for the distributed AFT runtime.

The package turns the in-process metadata-plane strategy interfaces of PR 5
into messages on sockets:

* :mod:`repro.rpc.framing` — length-prefixed frames in one hybrid layout (a
  compact JSON header followed by the raw bulk bytes it references) and the
  bidirectional multiplexed :class:`~repro.rpc.framing.RpcConnection` with
  per-connection wire counters.
* :mod:`repro.rpc.messages` — dataclass wire schemas with an
  unknown-field-tolerant codec (unknown fields are dropped, missing ones
  take their defaults).
* :mod:`repro.rpc.storage_client` — :class:`~repro.rpc.storage_client.RemoteStorage`,
  a :class:`~repro.storage.base.StorageEngine` whose op coroutines await
  the router's shared storage service over the socket, every op inside a
  ``storage_batch`` frame that concurrent ops share.
* :mod:`repro.rpc.router` — the ``repro-router`` process: shared storage,
  lease membership with epoch fencing, the commit-stream hub, and client
  session routing.
* :mod:`repro.rpc.node_server` — the ``repro-node`` process: one
  :class:`~repro.core.node.AftNode` on an event loop behind a router
  connection.
* :mod:`repro.rpc.client` — :class:`~repro.rpc.client.AsyncRouterClient`,
  the asyncio Table-1 client the ``tcp://`` side of
  :class:`repro.client.AftClient` builds on.
"""

from repro.rpc.framing import (
    ConnectionStats,
    FrameTooLargeError,
    RpcConnection,
    RpcError,
)
from repro.rpc.messages import WireMessage, decode_body, encode_body

__all__ = [
    "ConnectionStats",
    "FrameTooLargeError",
    "RpcConnection",
    "RpcError",
    "WireMessage",
    "decode_body",
    "encode_body",
]
