"""Wire frames and the multiplexed RPC connection.

Every frame is a 4-byte big-endian length followed by one frame body:

  ``[0x01][4B header len][header JSON][raw payload section]``

The header is the JSON envelope object —

  ``{"id": 7, "re": null, "type": "storage_batch", "body": {...}}``

— with every bulk field of the body (storage values, commit records)
replaced by compact ``[offset, length]`` references into the raw payload
section (:func:`repro.rpc.messages.split_bulk`).  Values cross the wire as
the bytes they are: no base64 inflation, no JSON string escaping, and the
decoder slices payloads straight out of the frame buffer.

A body that does not start with the ``0x01`` tag, an oversized length prefix
or an undecodable header is a protocol error: the reader fails every pending
request with that :class:`RpcError` and closes the connection.
``MAX_FRAME_BYTES`` is enforced on **both** sides: an oversized outgoing
frame raises :class:`FrameTooLargeError` locally instead of poisoning the
peer.

``id`` names a request awaiting a reply; a frame with ``re`` set is the
reply to the request of that id.  Frames with neither are one-way
notifications.  Error replies carry ``{"error": {"kind", "message"}}``
instead of a body and re-raise as the matching exception class on the
requesting side (:func:`repro.rpc.messages.error_from_wire`).

:class:`RpcConnection` multiplexes both directions over one TCP stream: a
single reader task resolves reply futures and dispatches incoming requests
to the connection's handler, each in its own task — so both peers can issue
concurrent requests over the same socket without head-of-line blocking on
the handlers.  A send is one ``write`` and one ``drain``; concurrent
senders each await their own ``drain`` (asyncio allows several waiters on
one writer), and every socket runs with ``TCP_NODELAY`` so small frames are
not parked by Nagle's algorithm.
"""

from __future__ import annotations

import asyncio
import ctypes
import itertools
import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.errors import AftError
from repro.rpc import messages
from repro.rpc.messages import WireMessage

#: Frames above this size are rejected — a corrupt length prefix otherwise
#: reads as a multi-gigabyte allocation.  Enforced on receive *and* send.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_HEADER_LEN = struct.Struct(">I")
#: First byte of every frame body.
_FRAME_TAG = b"\x01"

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> None:
    """Keep a socket read's scratch buffer on the heap, and the heap untrimmed.

    asyncio's selector transport reads every chunk into a fresh 256 KiB
    bytes object and shrinks it to the bytes received.  Under glibc's
    dynamic thresholds, whether that buffer is carved from the heap or
    mapped (and the freed tail trimmed back to the OS, to be faulted in
    again by the next read) depends on the heap layout the process happens
    to reach while starting up: an unrelated change to what a server
    imports or allocates can add two page faults to every frame it
    receives.  Fixed thresholds — allocations below 384 KiB come from the
    heap, the heap top is trimmed only above 1 MiB free — make a server's
    per-frame cost independent of that layout while leaving larger
    allocations mapped.  Called by the process entry points; a no-op where
    the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 384 * 1024)
    mallopt(_M_TRIM_THRESHOLD, 1024 * 1024)


class RpcError(AftError):
    """Transport-level failure (connection lost, malformed frame, timeout)."""


class ConnectionClosedError(RpcError):
    """The peer closed the connection while requests were outstanding."""


class FrameTooLargeError(RpcError):
    """An outgoing frame exceeds ``MAX_FRAME_BYTES``.

    Raised locally, *before* anything is written: the old behaviour shipped
    the frame and let the peer kill the connection with an opaque length
    error, failing every other request multiplexed on it.
    """


# --------------------------------------------------------------------- #
# Frame codecs
# --------------------------------------------------------------------- #
def frame_bytes(envelope: dict[str, Any]) -> bytes:
    """Encode one envelope into a length-prefixed frame.

    ``envelope["body"]`` is the canonical in-memory body (bulk fields hold
    raw bytes); this function moves them into the raw payload section.
    """
    msg_type = envelope.get("type", "")
    body = envelope.get("body")
    if body is not None:
        header_body, chunks, payload_size = messages.split_bulk(msg_type, body)
        header = {**envelope, "body": header_body}
    else:
        header, chunks, payload_size = envelope, [], 0
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    length = 1 + _HEADER_LEN.size + len(header_bytes) + payload_size
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"outgoing {msg_type or 'reply'} frame of {length} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte limit"
        )
    return b"".join(
        (_LENGTH.pack(length), _FRAME_TAG, _HEADER_LEN.pack(len(header_bytes)), header_bytes, *chunks)
    )


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one frame body (the bytes after the length prefix).

    Raises :class:`RpcError` on a body that is not a frame of this layout.
    """
    if data[:1] != _FRAME_TAG:
        raise RpcError(f"frame starts with tag {data[:1]!r}, expected {_FRAME_TAG!r}")
    try:
        (header_len,) = _HEADER_LEN.unpack_from(data, 1)
        header_end = 1 + _HEADER_LEN.size + header_len
        envelope = json.loads(data[1 + _HEADER_LEN.size : header_end].decode("utf-8"))
        body = envelope.get("body")
        if body is not None:
            payload = memoryview(data)[header_end:]
            envelope["body"] = messages.join_bulk(envelope.get("type", ""), body, payload)
    except (struct.error, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise RpcError(f"undecodable frame: {exc!r}") from exc
    return envelope


@dataclass
class ConnectionStats:
    """Per-connection wire counters (one direction pair per connection)."""

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Storage ops carried inside ``storage_batch`` frames, each way.
    batched_ops_sent: int = 0
    batched_ops_received: int = 0
    #: ``drain()`` calls on the writer: one per frame sent.
    drains: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "frames_out": self.frames_sent,
            "frames_in": self.frames_received,
            "bytes_out": self.bytes_sent,
            "bytes_in": self.bytes_received,
            "batched_ops_out": self.batched_ops_sent,
            "batched_ops_in": self.batched_ops_received,
            "drains": self.drains,
        }


#: Handler signature: ``async def handle(conn, message) -> WireMessage | None``.
Handler = Callable[["RpcConnection", WireMessage], Awaitable[WireMessage | None]]


class RpcConnection:
    """One bidirectional, multiplexed RPC stream over asyncio TCP."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        handler: Handler | None = None,
        name: str = "",
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._handler = handler
        self.name = name
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._handler_tasks: set[asyncio.Task] = set()
        self._closed = False
        #: Callback invoked once when the connection drops (router uses it to
        #: deregister the session).
        self.on_close: Callable[["RpcConnection"], None] | None = None
        self.stats = ConnectionStats()
        self._enable_nodelay()

    def _enable_nodelay(self) -> None:
        """Disable Nagle: RPC frames are latency-bound, not bandwidth-bound."""
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except (OSError, ValueError):  # pragma: no cover - non-TCP transport
                pass

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the reader task (idempotent)."""
        if self._reader_task is None:
            self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @property
    def is_closed(self) -> bool:
        return self._closed

    def peername(self) -> str:
        try:
            return str(self._writer.get_extra_info("peername"))
        except Exception:  # pragma: no cover - platform quirk
            return "?"

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    async def _send(self, envelope: dict[str, Any]) -> None:
        if self._closed:
            raise ConnectionClosedError(f"connection {self.name or self.peername()} is closed")
        data = frame_bytes(envelope)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(data)
        self._writer.write(data)
        self.stats.drains += 1
        await self._writer.drain()

    async def request(self, message: WireMessage, timeout: float | None = 30.0) -> WireMessage:
        """Send ``message`` and await the peer's (decoded) reply.

        Error replies re-raise as the matching exception class; a dropped
        connection fails every outstanding request with
        :class:`ConnectionClosedError`, a malformed incoming frame with the
        :class:`RpcError` that names it.
        """
        msg_type, body = messages.encode_body(message)
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._send({"id": request_id, "type": msg_type, "body": body})
            if timeout is not None:
                return await asyncio.wait_for(future, timeout)
            return await future
        except asyncio.TimeoutError:
            raise RpcError(
                f"request {msg_type!r} to {self.name or self.peername()} timed out"
            ) from None
        finally:
            self._pending.pop(request_id, None)

    async def notify(self, message: WireMessage) -> None:
        """Send a one-way message (no reply expected)."""
        msg_type, body = messages.encode_body(message)
        await self._send({"type": msg_type, "body": body})

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    async def _read_loop(self) -> None:
        error: RpcError | None = None
        try:
            while True:
                header = await self._reader.readexactly(_LENGTH.size)
                (length,) = _LENGTH.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise RpcError(
                        f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                    )
                payload = await self._reader.readexactly(length)
                self.stats.frames_received += 1
                self.stats.bytes_received += _LENGTH.size + length
                self._dispatch(decode_frame(payload))
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass
        except RpcError as exc:
            # A protocol error: the stream cannot be resynchronised, so the
            # connection closes and every pending request learns why.
            error = exc
        finally:
            self._shutdown(error)

    def _dispatch(self, envelope: dict[str, Any]) -> None:
        reply_to = envelope.get("re")
        if reply_to is not None:
            future = self._pending.pop(reply_to, None)
            if future is None or future.done():
                return
            error = envelope.get("error")
            if error is not None:
                future.set_exception(messages.error_from_wire(error))
            else:
                try:
                    future.set_result(
                        messages.decode_body(envelope.get("type", ""), envelope.get("body", {}))
                    )
                except Exception as exc:  # malformed reply
                    future.set_exception(RpcError(f"undecodable reply: {exc}"))
            return
        # Incoming request or notification: run the handler in its own task
        # so slow handlers never block the reader (and replies from both
        # directions keep flowing).
        task = asyncio.get_running_loop().create_task(self._handle(envelope))
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)

    async def _handle(self, envelope: dict[str, Any]) -> None:
        request_id = envelope.get("id")
        try:
            if self._handler is None:
                raise RpcError("peer sent a request but this side has no handler")
            message = messages.decode_body(envelope.get("type", ""), envelope.get("body", {}))
            result = await self._handler(self, message)
            if request_id is not None:
                reply = result if result is not None else messages.Ok()
                msg_type, body = messages.encode_body(reply)
                await self._send({"re": request_id, "type": msg_type, "body": body})
        except Exception as exc:
            if request_id is not None and not self._closed:
                try:
                    await self._send({"re": request_id, "error": messages.error_to_wire(exc)})
                except Exception:  # pragma: no cover - peer already gone
                    pass

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def _shutdown(self, error: RpcError | None = None) -> None:
        if self._closed:
            return
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error or ConnectionClosedError("connection lost"))
        self._pending.clear()
        try:
            self._writer.close()
        except Exception:  # pragma: no cover - already torn down
            pass
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(self)

    async def close(self) -> None:
        """Close the stream and stop the reader task."""
        self._shutdown()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
            self._reader_task = None
        try:
            await self._writer.wait_closed()
        except Exception:  # pragma: no cover - platform quirk
            pass


async def connect(
    host: str, port: int, handler: Handler | None = None, name: str = ""
) -> RpcConnection:
    """Open a client connection and start its reader task."""
    reader, writer = await asyncio.open_connection(host, port)
    conn = RpcConnection(reader, writer, handler=handler, name=name)
    conn.start()
    return conn
