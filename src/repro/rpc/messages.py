"""Wire schemas for the distributed runtime.

Every payload crossing a socket is a dataclass here, turned into a plain
body object by :func:`encode_body` and reconstructed by :func:`decode_body`.
The frame envelope carries the message's ``type`` tag and nothing else
about its schema:

* **An unknown type is rejected** — the peer speaks another protocol.
* **Unknown fields are dropped on decode** (``from_body`` filters the body
  against the declared dataclass fields), and **every field carries a
  default**, which fills in for a field the body omits.

**Bulk bytes are first-class.**  Fields holding storage payloads or
serialised commit records (declared per message via ``BYTES_MAP_FIELDS`` /
``BYTES_LIST_FIELDS``) carry raw ``bytes`` in memory and cross the wire in
the frame's raw payload section (:mod:`repro.rpc.framing`):
:func:`split_bulk` replaces them in the JSON header with compact
``[offset, length]`` references, and :func:`join_bulk` slices them back out
of the frame buffer.

The protocol has one message per job.  A node's storage ops all ride
:class:`StorageBatch` frames, and a client's session messages
(``client_*``) are what the router relays to the pinned node and what the
node answers, so no request or reply is rebuilt on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Mapping

from repro import errors
from repro.core.commit_set import CommitRecord
from repro.storage.base import StorageOp, StorageOpResult


def encode_records(records: list[CommitRecord]) -> list[bytes]:
    """Commit records as their existing binary codec (raw bytes on the wire)."""
    return [record.to_bytes() for record in records]


def decode_records(blobs: list[bytes]) -> list[CommitRecord]:
    return [CommitRecord.from_bytes(bytes(blob)) for blob in blobs]


@dataclass
class WireMessage:
    """Base class: a typed payload whose fields form a JSON-object body."""

    #: Wire tag, unique across the protocol (set by every subclass).
    TYPE: ClassVar[str] = ""
    #: Fields holding ``dict[str, bytes | None]`` payload maps.  These are the
    #: frame's *bulk section*: raw bytes in the frame's payload section.
    BYTES_MAP_FIELDS: ClassVar[tuple[str, ...]] = ()
    #: Fields holding ``list[bytes]`` blob sequences (same bulk treatment).
    BYTES_LIST_FIELDS: ClassVar[tuple[str, ...]] = ()

    def to_body(self) -> dict[str, Any]:
        """Serialise to a plain body object (bulk fields stay raw bytes)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "WireMessage":
        """Reconstruct from a body object, ignoring unknown fields.

        Fields the body carries that this dataclass does not declare are
        dropped; fields it omits take their defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in body.items() if key in known})


# --------------------------------------------------------------------- #
# Membership / fencing (node <-> router)
# --------------------------------------------------------------------- #
@dataclass
class Hello(WireMessage):
    """Node registration. ``kind`` is ``"node"`` or ``"standby"``."""

    TYPE: ClassVar[str] = "hello"
    node_id: str = ""
    kind: str = "node"


@dataclass
class HelloAck(WireMessage):
    """Router's admission reply: fencing token epoch and lease cadence."""

    TYPE: ClassVar[str] = "hello_ack"
    node_id: str = ""
    #: Epoch of the node's fencing token (0 for standbys — no token until
    #: activation).
    epoch: int = 0
    lease_duration: float = 5.0
    heartbeat_interval: float = 1.0


@dataclass
class Heartbeat(WireMessage):
    """Lease renewal (a notification, no reply expected)."""

    TYPE: ClassVar[str] = "heartbeat"
    node_id: str = ""


@dataclass
class Activate(WireMessage):
    """Router -> standby: promote into service with a fresh fencing token."""

    TYPE: ClassVar[str] = "activate"
    node_id: str = ""
    epoch: int = 0


@dataclass
class Ok(WireMessage):
    """Generic empty success reply."""

    TYPE: ClassVar[str] = "ok"


# --------------------------------------------------------------------- #
# Commit stream (router -> node)
# --------------------------------------------------------------------- #
@dataclass
class DeliverCommits(WireMessage):
    """Router -> node: peer commit records to merge into the metadata cache.

    The router sends one per storage frame whose commit-record puts landed,
    to every serving node but the writer, before it replies to the writer.
    """

    TYPE: ClassVar[str] = "deliver_commits"
    BYTES_LIST_FIELDS: ClassVar[tuple[str, ...]] = ("records",)
    records: list = field(default_factory=list)


# --------------------------------------------------------------------- #
# Storage service (node -> router)
# --------------------------------------------------------------------- #
@dataclass
class StorageBatch(WireMessage):
    """A group of storage ops in one frame (one round trip).

    The only storage frame: a node's every storage op, a single ``get``
    included, travels as one op of a batch.

    ``ops`` is a list of compact descriptors ``{"op", "keys", "prefix",
    "v", "after"}`` where ``v`` holds per-key indexes into the shared
    ``blobs`` table for write values and ``after`` the indexes of earlier
    ops that must succeed first (:attr:`StorageOp.after`).  The flat blob
    table is what lets the batch ride the frame's bulk section untouched;
    build/parse through :func:`encode_storage_ops` /
    :func:`decode_storage_ops`.
    """

    TYPE: ClassVar[str] = "storage_batch"
    BYTES_LIST_FIELDS: ClassVar[tuple[str, ...]] = ("blobs",)
    ops: list = field(default_factory=list)
    blobs: list = field(default_factory=list)
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


@dataclass
class StorageBatchResult(WireMessage):
    """Per-op results of a :class:`StorageBatch`.

    Each entry of ``results`` mirrors its request op: ``{"keys", "v"}`` for
    value-returning ops (``v`` indexes into ``blobs``, ``None`` marks a
    miss), ``{"listing"}`` for ``list``, ``{"error"}`` for an op that
    failed — errors are *per op*, so one fenced commit-record write in a
    coalesced batch fails only its own waiter.
    """

    TYPE: ClassVar[str] = "storage_batch_result"
    BYTES_LIST_FIELDS: ClassVar[tuple[str, ...]] = ("blobs",)
    results: list = field(default_factory=list)
    blobs: list = field(default_factory=list)


# --------------------------------------------------------------------- #
# Client sessions (client -> router -> pinned node, relayed as they are)
# --------------------------------------------------------------------- #
@dataclass
class ClientStart(WireMessage):
    """Open a transaction.  The router pins it to a node and relays this
    message there; the node's :class:`ClientStarted` comes back unchanged."""

    TYPE: ClassVar[str] = "client_start"
    txid: str = ""
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


@dataclass
class ClientStarted(WireMessage):
    TYPE: ClassVar[str] = "client_started"
    txid: str = ""
    node_id: str = ""


@dataclass
class ClientGet(WireMessage):
    TYPE: ClassVar[str] = "client_get"
    txid: str = ""
    keys: list = field(default_factory=list)
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


@dataclass
class ClientValues(WireMessage):
    TYPE: ClassVar[str] = "client_values"
    BYTES_MAP_FIELDS: ClassVar[tuple[str, ...]] = ("values",)
    values: dict = field(default_factory=dict)


@dataclass
class ClientPut(WireMessage):
    """Buffered writes (raw bytes); several keys per call are allowed."""

    TYPE: ClassVar[str] = "client_put"
    BYTES_MAP_FIELDS: ClassVar[tuple[str, ...]] = ("items",)
    txid: str = ""
    items: dict = field(default_factory=dict)
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


@dataclass
class ClientCommit(WireMessage):
    TYPE: ClassVar[str] = "client_commit"
    txid: str = ""
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


@dataclass
class ClientCommitted(WireMessage):
    """Commit acknowledgement: the commit id as a ``TransactionId`` token."""

    TYPE: ClassVar[str] = "client_committed"
    txid: str = ""
    commit_token: str = ""


@dataclass
class ClientAbort(WireMessage):
    TYPE: ClassVar[str] = "client_abort"
    txid: str = ""
    #: Optional causal-trace context ("trace_id:parent_span_id"); empty
    #: means untraced.
    trace: str = ""


# --------------------------------------------------------------------- #
# Introspection and fault injection
# --------------------------------------------------------------------- #
@dataclass
class Info(WireMessage):
    """Cluster readiness probe (clients poll this while the fleet boots)."""

    TYPE: ClassVar[str] = "info"


@dataclass
class InfoReply(WireMessage):
    TYPE: ClassVar[str] = "info_reply"
    nodes: list = field(default_factory=list)
    standbys: list = field(default_factory=list)
    epoch: int = 0
    commits: int = 0
    #: Per-connection wire counters, node_id -> {frames_in, frames_out,
    #: bytes_in, bytes_out, batched_ops_in, batched_ops_out, drains} — the
    #: router's view of each peer's protocol traffic.
    wire: dict = field(default_factory=dict)
    #: The router's metrics-registry snapshot (counters/gauges/histograms
    #: from :mod:`repro.observability.metrics`) — the over-the-wire scrape.
    metrics: dict = field(default_factory=dict)


@dataclass
class Nemesis(WireMessage):
    """Fault injection: degrade ``node_id``'s view of the cluster.

    ``pause_heartbeats`` models the classic lease false positive — the node
    keeps its data-plane connection (a long GC pause, an asymmetric
    partition) but its lease renewals stop, so the router declares it dead
    while it is still able to issue late commit-record writes.

    ``deliver_delay`` / ``deliver_drop`` act on the *router* side: commit
    deliver frames bound for the node are delayed by the given seconds, or
    dropped entirely — a slow or partitioned broadcast link.  When
    ``router_only`` is set the message is not forwarded to the node process
    at all, so frame faults compose with (and heal independently of) the
    heartbeat switch.
    """

    TYPE: ClassVar[str] = "nemesis"
    node_id: str = ""
    pause_heartbeats: bool = False
    deliver_delay: float = 0.0
    deliver_drop: bool = False
    router_only: bool = False


# --------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------- #
MESSAGE_TYPES: dict[str, type[WireMessage]] = {
    cls.TYPE: cls
    for cls in (
        Hello,
        HelloAck,
        Heartbeat,
        Activate,
        Ok,
        DeliverCommits,
        StorageBatch,
        StorageBatchResult,
        ClientStart,
        ClientStarted,
        ClientGet,
        ClientValues,
        ClientPut,
        ClientCommit,
        ClientCommitted,
        ClientAbort,
        Info,
        InfoReply,
        Nemesis,
    )
}


def encode_body(message: WireMessage) -> tuple[str, dict[str, Any]]:
    """Return the ``(type, body)`` pair the frame envelope carries."""
    return message.TYPE, message.to_body()


def decode_body(msg_type: str, body: Mapping[str, Any]) -> WireMessage:
    """Reconstruct a message of a registered type from its body.

    An unknown *type* raises — the peer speaks a protocol we do not — while
    an unknown *field* within a known type is dropped (``from_body``).
    """
    cls = MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise errors.AftError(f"unknown wire message type {msg_type!r}")
    return cls.from_body(body)


# --------------------------------------------------------------------- #
# Bulk-field conversions (used by the frame codecs in repro.rpc.framing)
# --------------------------------------------------------------------- #
def _bulk_spec(msg_type: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    cls = MESSAGE_TYPES.get(msg_type)
    if cls is None:
        return (), ()
    return cls.BYTES_MAP_FIELDS, cls.BYTES_LIST_FIELDS


def split_bulk(
    msg_type: str, body: Mapping[str, Any]
) -> tuple[dict[str, Any], list[bytes], int]:
    """Move bulk bytes out of a body into a payload section.

    Returns ``(header_body, chunks, payload_size)`` where bulk fields in
    ``header_body`` are replaced by ``[offset, length]`` references (``None``
    for missing values) into the concatenation of ``chunks``.
    """
    map_fields, list_fields = _bulk_spec(msg_type)
    header = dict(body)
    chunks: list[bytes] = []
    offset = 0

    def ref(blob: bytes) -> list[int]:
        nonlocal offset
        chunks.append(blob)
        entry = [offset, len(blob)]
        offset += len(blob)
        return entry

    for name in map_fields:
        if name in header:
            header[name] = {
                key: (ref(value) if value is not None else None)
                for key, value in header[name].items()
            }
    for name in list_fields:
        if name in header:
            header[name] = [ref(bytes(blob)) for blob in header[name]]
    return header, chunks, offset


def join_bulk(
    msg_type: str, header_body: Mapping[str, Any], payload: memoryview
) -> dict[str, Any]:
    """Inverse of :func:`split_bulk`: resolve references against ``payload``."""
    map_fields, list_fields = _bulk_spec(msg_type)
    body = dict(header_body)

    def deref(entry: list[int]) -> bytes:
        start, length = entry
        return bytes(payload[start : start + length])

    for name in map_fields:
        if name in body:
            body[name] = {
                key: (deref(entry) if entry is not None else None)
                for key, entry in body[name].items()
            }
    for name in list_fields:
        if name in body:
            body[name] = [deref(entry) for entry in body[name]]
    return body


# --------------------------------------------------------------------- #
# Storage-batch construction/parsing (the op <-> descriptor mapping)
# --------------------------------------------------------------------- #
def encode_storage_ops(ops: list[StorageOp]) -> StorageBatch:
    """Pack a group of storage ops into one :class:`StorageBatch` frame."""
    blobs: list[bytes] = []
    descriptors: list[dict[str, Any]] = []
    for op in ops:
        desc: dict[str, Any] = {"op": op.op, "keys": list(op.keys)}
        if op.prefix:
            desc["prefix"] = op.prefix
        if op.after:
            desc["after"] = list(op.after)
        if op.items is not None:
            indexes = []
            for key in op.keys:
                blobs.append(op.items[key])
                indexes.append(len(blobs) - 1)
            desc["v"] = indexes
        descriptors.append(desc)
    return StorageBatch(ops=descriptors, blobs=blobs)


def decode_storage_ops(batch: StorageBatch) -> list[StorageOp]:
    ops: list[StorageOp] = []
    for desc in batch.ops:
        keys = tuple(desc.get("keys", ()))
        items = None
        if "v" in desc:
            items = {key: bytes(batch.blobs[index]) for key, index in zip(keys, desc["v"])}
        ops.append(
            StorageOp(
                op=desc.get("op", "get"),
                keys=keys,
                items=items,
                prefix=desc.get("prefix", ""),
                after=tuple(desc.get("after", ())),
            )
        )
    return ops


def encode_storage_results(results: list[StorageOpResult]) -> StorageBatchResult:
    """Pack per-op outcomes (values / listings / errors) into one reply frame."""
    blobs: list[bytes] = []
    descriptors: list[dict[str, Any]] = []
    for result in results:
        if result.error is not None:
            descriptors.append({"error": error_to_wire(result.error)})
            continue
        desc: dict[str, Any] = {}
        if result.values is not None:
            keys, refs = [], []
            for key, value in result.values.items():
                keys.append(key)
                if value is None:
                    refs.append(None)
                else:
                    blobs.append(value)
                    refs.append(len(blobs) - 1)
            desc["keys"] = keys
            desc["v"] = refs
        if result.keys is not None:
            desc["listing"] = list(result.keys)
        descriptors.append(desc)
    return StorageBatchResult(results=descriptors, blobs=blobs)


def decode_storage_results(reply: StorageBatchResult) -> list[StorageOpResult]:
    results: list[StorageOpResult] = []
    for desc in reply.results:
        if "error" in desc:
            results.append(StorageOpResult(error=error_from_wire(desc["error"])))
            continue
        values = None
        if "v" in desc:
            values = {
                key: (bytes(reply.blobs[index]) if index is not None else None)
                for key, index in zip(desc.get("keys", ()), desc["v"])
            }
        listing = list(desc["listing"]) if "listing" in desc else None
        results.append(StorageOpResult(values=values, keys=listing))
    return results


# --------------------------------------------------------------------- #
# Error transport
# --------------------------------------------------------------------- #
#: Exception types that survive the wire round trip as themselves.  The far
#: side of an RPC re-raises the *same* class, so e.g. a fenced node's commit
#: failure surfaces as FencedNodeError three hops away from the fence.
_ERROR_KINDS: dict[str, type[Exception]] = {
    "fenced": errors.FencedNodeError,
    "transaction": errors.TransactionError,
    "unknown_transaction": errors.UnknownTransactionError,
    "transaction_aborted": errors.TransactionAbortedError,
    "transaction_committed": errors.TransactionAlreadyCommittedError,
    "atomic_read": errors.AtomicReadError,
    "storage": errors.StorageError,
    "node_stopped": errors.NodeStoppedError,
    "node_draining": errors.NodeDrainingError,
    "no_available_node": errors.NoAvailableNodeError,
    "aft": errors.AftError,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _ERROR_KINDS.items()}


def error_to_wire(exc: BaseException) -> dict[str, str]:
    """Encode an exception for an error reply frame."""
    for cls in type(exc).__mro__:
        kind = _KIND_BY_TYPE.get(cls)
        if kind is not None:
            return {"kind": kind, "message": str(exc)}
    return {"kind": "error", "message": f"{type(exc).__name__}: {exc}"}


def error_from_wire(payload: Mapping[str, str]) -> Exception:
    """Reconstruct the closest matching exception class from an error reply."""
    from repro.rpc.framing import RpcError

    kind = payload.get("kind", "error")
    message = payload.get("message", "remote error")
    cls = _ERROR_KINDS.get(kind)
    if cls is None:
        return RpcError(message)
    return cls(message)
