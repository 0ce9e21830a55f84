"""Frame codec tests: one frame layout, and foreign frames fail loudly.

* **Codec oracle** — every registered message type round-trips through
  ``frame_bytes`` → ``decode_frame`` → ``decode_body`` (hypothesis-driven,
  bulk bytes included);
* bulk bytes travel verbatim in the payload section, not in the header;
* a frame body without the frame tag, an undecodable header or an oversized
  length prefix is a protocol error that fails the pending request with an
  :class:`RpcError` naming it — never a silently decoded reply;
* ``MAX_FRAME_BYTES`` is enforced on the **send** side with a clear local
  exception, not just by the peer;
* ``storage_batch`` op groups round-trip with per-op payloads and per-op
  errors intact;
* concurrent sends each write one whole frame, in call order, with one
  ``drain`` per frame.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.rpc import framing, messages as m
from repro.rpc.framing import (
    FrameTooLargeError,
    RpcConnection,
    RpcError,
    decode_frame,
    frame_bytes,
)
from repro.storage.base import StorageOp, StorageOpResult

# --------------------------------------------------------------------- #
# The frame codec oracle
# --------------------------------------------------------------------- #
_KEYS = st.text(max_size=12)
_BLOB = st.binary(max_size=128)


@st.composite
def _message(draw, cls):
    """An arbitrary instance of one wire-message dataclass.

    Field strategies are inferred from each field's default value — the
    schema rule that every field defaults (tested in test_rpc_messages)
    makes this total.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if f.name in cls.BYTES_MAP_FIELDS:
            kwargs[f.name] = draw(
                st.dictionaries(_KEYS, st.one_of(st.none(), _BLOB), max_size=4)
            )
        elif f.name in cls.BYTES_LIST_FIELDS:
            kwargs[f.name] = draw(st.lists(_BLOB, max_size=4))
        elif isinstance(default, bool):
            kwargs[f.name] = draw(st.booleans())
        elif isinstance(default, int):
            kwargs[f.name] = draw(st.integers(min_value=0, max_value=2**31))
        elif isinstance(default, float):
            kwargs[f.name] = draw(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
            )
        elif isinstance(default, str):
            kwargs[f.name] = draw(st.text(max_size=16))
        elif isinstance(default, list):
            kwargs[f.name] = draw(st.lists(st.text(max_size=8), max_size=4))
        elif isinstance(default, dict):
            kwargs[f.name] = draw(
                st.dictionaries(_KEYS, st.integers(min_value=0, max_value=999), max_size=3)
            )
        else:  # pragma: no cover - new field kinds must be added here
            raise AssertionError(f"no strategy for {cls.TYPE}.{f.name} (default {default!r})")
    return cls(**kwargs)


def _round_trip(message: m.WireMessage) -> m.WireMessage:
    """Encode through the full frame codec (length prefix included) and back."""
    msg_type, body = m.encode_body(message)
    data = frame_bytes({"id": 1, "type": msg_type, "body": body})
    envelope = decode_frame(data[4:])
    return m.decode_body(envelope["type"], envelope["body"])


@pytest.mark.parametrize("cls", sorted(m.MESSAGE_TYPES.values(), key=lambda c: c.TYPE), ids=lambda c: c.TYPE)
class TestCodecOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_json_and_binary_decode_identically(self, cls, data):
        """The JSON header and the binary payload section together give back
        exactly the message that went in."""
        message = data.draw(_message(cls))
        assert _round_trip(message) == message


class TestFrameSniffing:
    def test_binary_payload_is_raw_not_base64(self):
        blob = bytes(range(256)) * 8
        message = m.ClientValues(values={"key": blob})
        msg_type, body = m.encode_body(message)
        frame = frame_bytes({"re": 1, "type": msg_type, "body": body})
        assert blob in frame  # verbatim bytes, no inflation
        (header_len,) = struct.unpack_from(">I", frame, 5)
        assert len(frame) == 4 + 1 + 4 + header_len + len(blob)

    def test_error_reply_envelope_has_no_body(self):
        envelope = {"re": 9, "error": m.error_to_wire(errors.FencedNodeError("stale epoch"))}
        decoded = decode_frame(frame_bytes(envelope)[4:])
        assert decoded["re"] == 9
        assert decoded["error"]["kind"] == "fenced"

    @pytest.mark.parametrize(
        "reply, error",
        [
            # A JSON-object frame body, as an older build of this protocol
            # sent it: no frame tag.
            (json.dumps({"re": 1, "type": "ok", "v": 1, "body": {}}).encode(), r"tag b'\{'"),
            (b"\x01" + struct.pack(">I", 8) + b"not json", "undecodable frame"),
            (None, "exceeds the"),
        ],
        ids=["json-frame", "bad-header", "oversize-length"],
    )
    def test_malformed_reply_fails_the_pending_request(self, reply, error):
        async def scenario():
            async def fake_peer(reader, writer):
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                await reader.readexactly(length)  # the request itself
                if reply is None:
                    writer.write(struct.pack(">I", framing.MAX_FRAME_BYTES + 1))
                else:
                    writer.write(struct.pack(">I", len(reply)) + reply)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(fake_peer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = await framing.connect("127.0.0.1", port, name="client")
            try:
                with pytest.raises(RpcError, match=error) as raised:
                    await conn.request(m.Info(), timeout=5.0)
                assert not isinstance(raised.value, framing.ConnectionClosedError)
                assert conn.is_closed
            finally:
                await conn.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestSendSideLimit:
    def test_oversized_outgoing_frame_is_rejected_locally(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 512)
        message = m.ClientPut(txid="t1", items={"k": b"x" * 4096})
        msg_type, body = m.encode_body(message)
        with pytest.raises(FrameTooLargeError, match="exceeds the 512-byte limit"):
            frame_bytes({"id": 1, "type": msg_type, "body": body})

    def test_frames_under_the_limit_pass(self):
        message = m.Heartbeat(node_id="n0")
        msg_type, body = m.encode_body(message)
        assert frame_bytes({"type": msg_type, "body": body})


class TestStorageOpBatchCodec:
    def test_ops_round_trip_with_payloads(self):
        ops = [
            StorageOp(op="multi_put", keys=("a", "b"), items={"a": b"1", "b": b"22"}),
            StorageOp(op="get", keys=("c",)),
            StorageOp(op="multi_delete", keys=("d", "e"), after=(0, 1)),
            StorageOp(op="list", prefix="aft.commit"),
        ]
        back = m.decode_storage_ops(m.encode_storage_ops(ops))
        assert back == ops

    def test_results_round_trip_with_per_op_errors(self):
        results = [
            StorageOpResult(values={"a": b"1", "missing": None}),
            StorageOpResult(error=errors.FencedNodeError("stale epoch 3")),
            StorageOpResult(keys=["k1", "k2"]),
            StorageOpResult(),
        ]
        back = m.decode_storage_results(m.encode_storage_results(results))
        assert back[0].values == {"a": b"1", "missing": None}
        assert isinstance(back[1].error, errors.FencedNodeError)
        assert "stale epoch 3" in str(back[1].error)
        assert back[2].keys == ["k1", "k2"]
        assert back[3].values is None and back[3].error is None

    def test_batch_frames_survive_the_wire(self):
        ops = [StorageOp(op="put", keys=("k",), items={"k": b"\xff" * 32})]
        decoded = _round_trip(m.encode_storage_ops(ops))
        assert m.decode_storage_ops(decoded) == ops


class _FakeWriter:
    """StreamWriter stand-in: records writes, drains slowly."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        await asyncio.sleep(0.001)

    def get_extra_info(self, name):
        return None

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestSending:
    def test_concurrent_sends_each_write_one_whole_frame_in_order(self):
        async def scenario():
            writer = _FakeWriter()
            conn = RpcConnection(asyncio.StreamReader(), writer)
            messages = [m.Heartbeat(node_id=f"n{i}") for i in range(10)]
            await asyncio.gather(*(conn.notify(message) for message in messages))
            return writer, conn, messages

        writer, conn, messages = asyncio.run(scenario())
        # Each notify writes its own frame and awaits its own drain, even
        # while the slow drains of the others are in flight.
        assert conn.stats.frames_sent == 10
        assert conn.stats.drains == conn.stats.frames_sent
        assert len(writer.writes) == 10
        for chunk, message in zip(writer.writes, messages):
            (length,) = struct.unpack_from(">I", chunk)
            assert len(chunk) == 4 + length
            envelope = decode_frame(chunk[4:])
            assert m.decode_body(envelope["type"], envelope["body"]) == message
        assert sum(len(chunk) for chunk in writer.writes) == conn.stats.bytes_sent

    def test_counters_track_both_directions(self):
        async def scenario():
            server_conns = []

            async def handler(conn, msg):
                return m.Ok()

            async def accept(reader, writer):
                conn = RpcConnection(reader, writer, handler=handler, name="server")
                conn.start()
                server_conns.append(conn)

            server = await asyncio.start_server(accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = await framing.connect("127.0.0.1", port, name="client")
            for _ in range(3):
                await conn.request(m.Info(), timeout=5.0)
            stats = conn.stats
            await conn.close()
            server.close()
            await server.wait_closed()
            return stats

        stats = asyncio.run(scenario())
        assert stats.frames_sent == 3 and stats.frames_received == 3
        assert stats.bytes_sent > 0 and stats.bytes_received > 0
