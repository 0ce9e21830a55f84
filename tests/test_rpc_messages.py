"""Wire-schema tests: every message survives the codec round trip.

The codec contract under test:

* a message decodes back to an equal message (its header through real
  JSON, its bulk bytes through the payload section, not just dict passing);
* a body carrying *unknown* fields decodes with the extras dropped, and a
  body omitting fields decodes with their defaults;
* an unknown message *type* is rejected (a different protocol);
* exceptions ride error replies as their own class, so a fenced commit
  raises :class:`FencedNodeError` on the far side of the socket.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import errors
from repro.core.commit_set import CommitRecord
from repro.ids import TransactionId
from repro.rpc import messages as m

SAMPLES = [
    m.Hello(node_id="n0", kind="standby"),
    m.HelloAck(node_id="n0", epoch=7, lease_duration=2.5, heartbeat_interval=0.5),
    m.Heartbeat(node_id="n0"),
    m.Activate(node_id="s0", epoch=9),
    m.Ok(),
    m.DeliverCommits(records=[b"abc", b"def"]),
    m.StorageBatch(
        ops=[{"op": "put", "keys": ["k"], "v": [0]}, {"op": "get", "keys": ["a"]}],
        blobs=[b"v"],
    ),
    m.StorageBatchResult(
        results=[{}, {"keys": ["a"], "v": [0]}],
        blobs=[b"payload"],
    ),
    m.ClientStart(txid="t1"),
    m.ClientStarted(txid="t1", node_id="n2"),
    m.ClientGet(txid="t1", keys=["x"]),
    m.ClientValues(values={"x": None}),
    m.ClientPut(txid="t1", items={"x": b"v"}),
    m.ClientCommit(txid="t1"),
    m.ClientCommitted(txid="t1", commit_token="1.5|abc"),
    m.ClientAbort(txid="t1"),
    m.Info(),
    m.InfoReply(nodes=["n0"], standbys=["s0"], epoch=3, commits=12, wire={"n0": {"frames_out": 4}}),
    m.Nemesis(node_id="n0", pause_heartbeats=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", SAMPLES, ids=lambda s: s.TYPE)
    def test_json_round_trip(self, message):
        msg_type, body = m.encode_body(message)
        # The header crosses as JSON; bulk bytes ride beside it as raw chunks.
        header, chunks, _ = m.split_bulk(msg_type, body)
        wire = json.loads(json.dumps(header))
        decoded = m.decode_body(
            msg_type, m.join_bulk(msg_type, wire, memoryview(b"".join(chunks)))
        )
        assert type(decoded) is type(message)
        assert decoded == message

    def test_every_type_is_registered_and_unique(self):
        assert {s.TYPE for s in SAMPLES} == set(m.MESSAGE_TYPES)

    def test_records_round_trip_as_bytes(self):
        record = CommitRecord(
            txid=TransactionId(timestamp=4.5, uuid="u1"),
            write_set={"k": "aft.data/k/t"},
            committed_at=4.5,
            node_id="n0",
            epoch=3,
        )
        [blob] = m.encode_records([record])
        [back] = m.decode_records([blob])
        assert back == record
        assert back.epoch == 3


class TestForwardCompatibility:
    def test_unknown_fields_are_dropped(self):
        body = {"node_id": "n0", "kind": "node", "zone": "us-east-1b", "shard_map": [1, 2]}
        decoded = m.decode_body("hello", body)
        assert decoded == m.Hello(node_id="n0", kind="node")

    def test_missing_fields_take_defaults(self):
        decoded = m.decode_body("hello_ack", {"node_id": "n0"})
        assert decoded.epoch == 0
        assert decoded.lease_duration == 5.0

    def test_unknown_type_is_rejected(self):
        with pytest.raises(errors.AftError, match="unknown wire message type"):
            m.decode_body("quantum_entangle", {})

    def test_every_field_has_a_default(self):
        """New fields must default — the rule that makes omission safe."""
        for sample in SAMPLES:
            for f in dataclasses.fields(sample):
                assert (
                    f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                ), f"{sample.TYPE}.{f.name} has no default"


class TestErrorTransport:
    @pytest.mark.parametrize(
        "exc_type",
        [
            errors.FencedNodeError,
            errors.UnknownTransactionError,
            errors.TransactionAbortedError,
            errors.StorageError,
            errors.NoAvailableNodeError,
        ],
    )
    def test_known_errors_round_trip_as_themselves(self, exc_type):
        payload = m.error_to_wire(exc_type("boom"))
        back = m.error_from_wire(json.loads(json.dumps(payload)))
        assert type(back) is exc_type
        assert "boom" in str(back)

    def test_subclass_maps_to_nearest_registered_ancestor(self):
        payload = m.error_to_wire(errors.KeyNotFoundError("gone"))
        assert payload["kind"] == "storage"
        assert isinstance(m.error_from_wire(payload), errors.StorageError)

    def test_unregistered_exception_degrades_to_rpc_error(self):
        from repro.rpc.framing import RpcError

        payload = m.error_to_wire(ValueError("odd"))
        assert payload["kind"] == "error"
        assert isinstance(m.error_from_wire(payload), RpcError)
