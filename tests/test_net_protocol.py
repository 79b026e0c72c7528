"""Property and unit tests for the network tier's frame protocol."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_digraph
from repro.net import ShardClient, protocol
from repro.utils.canonical import canonical_json, checksum


def _json_scalars() -> st.SearchStrategy:
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=20),
    )


def _json_payloads() -> st.SearchStrategy:
    """JSON-object payloads of bounded depth (the envelope requires objects)."""
    values = st.recursive(
        _json_scalars(),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=10), children, max_size=4),
        ),
        max_leaves=12,
    )
    return st.dictionaries(st.text(max_size=10), values, max_size=5)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        op=st.sampled_from(protocol.REQUEST_OPS),
        request_id=st.text(min_size=1, max_size=32),
        payload=_json_payloads(),
    )
    def test_request_encode_decode_identity(self, op, request_id, payload):
        frame = protocol.encode_request(request_id, op, payload)
        message = protocol.decode_frame_bytes(frame)
        assert message["op"] == op
        assert message["request_id"] == request_id
        assert message["payload"] == payload
        assert message["protocol_version"] == protocol.PROTOCOL_VERSION
        assert message["checksum"] == checksum(payload)

    @settings(max_examples=60, deadline=None)
    @given(
        status=st.sampled_from(protocol.RESPONSE_STATUSES),
        request_id=st.text(min_size=1, max_size=32),
        payload=_json_payloads(),
    )
    def test_response_encode_decode_identity(self, status, request_id, payload):
        frame = protocol.encode_response(request_id, payload, status=status)
        message = protocol.decode_frame_bytes(frame)
        assert message["status"] == status
        assert message["request_id"] == request_id
        assert message["payload"] == payload

    @settings(max_examples=60, deadline=None)
    @given(payload=_json_payloads(), data=st.data())
    def test_any_truncation_is_rejected(self, payload, data):
        frame = protocol.encode_request("rid", "solve", payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(ProtocolError):
            protocol.decode_frame_bytes(frame[:cut])

    @settings(max_examples=60, deadline=None)
    @given(payload=_json_payloads(), trailing=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_are_rejected(self, payload, trailing):
        frame = protocol.encode_request("rid", "ping", payload)
        with pytest.raises(ProtocolError):
            protocol.decode_frame_bytes(frame + trailing)


def _frame_raw(message: dict) -> bytes:
    """Frame an arbitrary message dict, bypassing encode-side validation."""
    body = json.dumps(message).encode("utf-8")
    return struct.pack("!I", len(body)) + body


class TestStrictDecode:
    def test_version_mismatch_is_rejected(self):
        frame = protocol.encode_request("rid", "ping", {"a": 1})
        message = protocol.decode_frame_bytes(frame)
        message["protocol_version"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol version"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_corrupt_payload_fails_checksum(self):
        frame = protocol.encode_request("rid", "ping", {"a": 1})
        message = protocol.decode_frame_bytes(frame)
        message["payload"]["a"] = 2  # checksum still covers {"a": 1}
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_corrupt_checksum_is_rejected(self):
        frame = protocol.encode_request("rid", "ping", {"a": 1})
        message = protocol.decode_frame_bytes(frame)
        message["checksum"] = "0" * 64
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_body_must_be_json(self):
        body = b"not json at all"
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_frame_bytes(struct.pack("!I", len(body)) + body)

    def test_body_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_frame_bytes(_frame_raw([1, 2, 3]))

    def test_missing_request_id_is_rejected(self):
        frame = protocol.encode_request("rid", "ping", {})
        message = protocol.decode_frame_bytes(frame)
        del message["request_id"]
        with pytest.raises(ProtocolError, match="request_id"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_op_and_status_are_mutually_exclusive(self):
        frame = protocol.encode_request("rid", "ping", {})
        message = protocol.decode_frame_bytes(frame)
        message["status"] = "ok"
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.decode_frame_bytes(_frame_raw(message))
        del message["status"]
        del message["op"]
        with pytest.raises(ProtocolError, match="exactly one"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_unknown_op_and_status_are_rejected(self):
        frame = protocol.encode_request("rid", "ping", {})
        message = protocol.decode_frame_bytes(frame)
        message["op"] = "explode"
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.decode_frame_bytes(_frame_raw(message))

    @pytest.mark.parametrize("op", ["warm", "shutdown"])
    def test_dropped_ops_are_refused_as_unknown(self, op):
        # The frame an older peer sends: canonical, checksummed, version 3.
        head = {"protocol_version": protocol.PROTOCOL_VERSION, "request_id": "rid", "op": op}
        frame = protocol._encode_message(head, {})
        with pytest.raises(ProtocolError, match=f"unknown op '{op}'"):
            protocol.decode_frame_bytes(frame)
        with pytest.raises(ProtocolError, match="unknown request op"):
            protocol.encode_request("rid", op, {})

    def test_oversized_length_prefix_is_corruption(self):
        frame = struct.pack("!I", protocol.MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.decode_frame_bytes(frame)

    def test_encode_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown request op"):
            protocol.encode_request("rid", "explode", {})

    def test_encode_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.encode_request("rid", "ping", [1, 2])

    def test_encode_rejects_unserialisable_payload(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.encode_request("rid", "ping", {"bad": {1, 2}})

    def test_encode_rejects_unknown_status(self):
        with pytest.raises(ProtocolError, match="unknown response status"):
            protocol.encode_response("rid", {}, status="maybe")


#: One lane of one entry with its own budget, under a lane budget, by
#: fingerprint alone (no graph document), as ``ShardClient.solve_lane``
#: frames it under request id ``golden-1``: version 3, and no ``flow``
#: document in the payload.
GOLDEN_SOLVE_REQUEST = (
    b'\x00\x00\x01d{"checksum":"31ea63f7b92c1b29f439ef52906acf6591f187c1aedc8de85fe474869c014335",'
    b'"op":"solve","payload":{"deadline_ms":1000.0,"entries":[[0,{"deadline_ms":250,'
    b'"method":"core-exact","query":"densest"}]],'
    b'"fingerprint":"abababababababababababababababababababababababababababababababab",'
    b'"graph":null,"graph_key":"g"},"protocol_version":3,"request_id":"golden-1"}'
)

#: A daemon's lane message for that lane, with fixed timings.
GOLDEN_LANE_MESSAGE = {
    "executions": [
        {
            "index": 0,
            "kind": "densest",
            "seconds": 0.5,
            "cpu_seconds": 0.25,
            "payload": {
                "density": 1.5,
                "is_exact": True,
                "method": "core-exact",
                "s_size": 2,
                "t_size": 2,
            },
        }
    ],
    "stats": {"flow_calls": 3, "queries": 1},
    "store": {},
    "session_cache_hit": False,
}

#: :data:`GOLDEN_LANE_MESSAGE` framed as the ``ok`` response to ``golden-1``.
GOLDEN_SOLVE_RESPONSE = (
    b'\x00\x00\x01\x83{"checksum":"dfde379279fd8a7694b1940899af4a413a7beb609af6c80284799e74a8c70a89",'
    b'"payload":{"executions":[{"cpu_seconds":0.25,"index":0,"kind":"densest","payload":'
    b'{"density":1.5,"is_exact":true,"method":"core-exact","s_size":2,"t_size":2},"seconds":0.5}],'
    b'"session_cache_hit":false,"stats":{"flow_calls":3,"queries":1},"store":{}},'
    b'"protocol_version":3,"request_id":"golden-1","status":"ok"}'
)


class TestGoldenFrames:
    """The exact bytes of one version-3 ``solve`` exchange."""

    def test_solve_request_bytes(self, monkeypatch):
        sent = []
        monkeypatch.setattr(
            ShardClient,
            "request",
            lambda self, op, payload, **_: sent.append(protocol.encode_request("golden-1", op, payload)),
        )
        entries = [(0, {"query": "densest", "method": "core-exact", "deadline_ms": 250})]
        ShardClient("127.0.0.1", 9).solve_lane("g", "ab" * 32, entries, deadline_ms=1000)
        assert sent == [GOLDEN_SOLVE_REQUEST]
        message = protocol.decode_frame_bytes(GOLDEN_SOLVE_REQUEST)
        assert message["protocol_version"] == protocol.PROTOCOL_VERSION == 3
        assert "flow" not in message["payload"]

    def test_ok_response_bytes(self):
        frame = protocol.encode_response("golden-1", GOLDEN_LANE_MESSAGE)
        assert frame == GOLDEN_SOLVE_RESPONSE
        assert protocol.decode_frame_bytes(frame)["payload"] == GOLDEN_LANE_MESSAGE

    @pytest.mark.parametrize("frame", [GOLDEN_SOLVE_REQUEST, GOLDEN_SOLVE_RESPONSE])
    def test_version_2_frame_is_refused_by_name(self, frame):
        stamped = frame.replace(b'"protocol_version":3', b'"protocol_version":2')
        assert len(stamped) == len(frame)
        with pytest.raises(ProtocolError, match="protocol version 2; this build speaks 3"):
            protocol.decode_frame_bytes(stamped)


class TestOneSerialisation:
    """A frame's payload is serialised once to encode and not at all to decode."""

    def test_encode_serialises_the_payload_once_and_decode_never(self, monkeypatch):
        payload = {"entries": [[0, {"query": "summary"}]], "graph": None}
        dumped: list = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda value, **kw: dumped.append(value) or dumps(value, **kw))
        frame = protocol.encode_request("rid", "solve", payload)
        carrying = [value for value in dumped if value is payload or value.get("payload") is payload]
        assert carrying == [payload]
        del dumped[:]
        assert protocol.decode_frame_bytes(frame)["payload"] == payload
        # Only the envelope around the payload is serialised, to find it.
        assert dumped and all("payload" not in value and "entries" not in value for value in dumped)

    def test_a_damaged_byte_in_a_canonical_payload_fails_the_checksum(self):
        damaged = GOLDEN_SOLVE_REQUEST.replace(b'"graph_key":"g"', b'"graph_key":"h"')
        assert len(damaged) == len(GOLDEN_SOLVE_REQUEST)
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.decode_frame_bytes(damaged)

    def test_a_body_not_laid_out_canonically_fails_the_checksum(self):
        message = protocol.decode_frame_bytes(GOLDEN_SOLVE_REQUEST)
        with pytest.raises(ProtocolError, match="fails its integrity checksum"):
            protocol.decode_frame_bytes(_frame_raw(message))

    def test_a_canonical_body_without_a_checksum_fails_it(self):
        message = protocol.decode_frame_bytes(GOLDEN_SOLVE_REQUEST)
        del message["checksum"]
        body = canonical_json(message).encode("utf-8")
        with pytest.raises(ProtocolError, match="fails its integrity checksum"):
            protocol.decode_frame_bytes(struct.pack("!I", len(body)) + body)


def _document(labels, starts, targets, *, allow_self_loops=False, fingerprint=None) -> dict:
    """A CSR wire document, fingerprinted as the graph it describes unless told otherwise."""
    if fingerprint is None:
        graph = DiGraph.from_csr_arrays(labels, starts, targets, allow_self_loops=allow_self_loops)
        fingerprint = graph.content_fingerprint()
    return {
        "labels": labels,
        "starts": starts,
        "targets": targets,
        "allow_self_loops": allow_self_loops,
        "fingerprint": fingerprint,
    }


class TestGraphOnTheWire:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_graph_round_trip_preserves_fingerprint(self, seed):
        graph = gnm_random_digraph(12, 30, seed=seed)
        rebuilt = protocol.graph_from_wire(protocol.graph_to_wire(graph))
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()
        assert rebuilt.num_nodes == graph.num_nodes
        assert rebuilt.num_edges == graph.num_edges

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), allow_self_loops=st.booleans())
    def test_csr_document_round_trips_isolated_nodes_loops_and_label_order(
        self, data, allow_self_loops
    ):
        labels = data.draw(
            st.lists(
                st.one_of(st.integers(-5, 50), st.text(max_size=3), st.booleans(), st.none()),
                unique=True,
                max_size=9,
            )
        )
        edges = []
        if labels:
            endpoint = st.sampled_from(labels)
            edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=25))
        # Nodes keep the drawn (unsorted) order, and those on no edge stay.
        graph = DiGraph.from_edges(edges, nodes=labels, allow_self_loops=allow_self_loops)
        document = protocol.graph_to_wire(graph)
        assert json.loads(json.dumps(document)) == document
        assert document["labels"] == labels
        assert len(document["starts"]) == len(labels) + 1
        rebuilt = protocol.graph_from_wire(json.loads(json.dumps(document)))
        assert rebuilt.nodes() == graph.nodes()
        assert [type(label) for label in rebuilt.nodes()] == [type(label) for label in labels]
        assert sorted(rebuilt.edge_indices()) == sorted(graph.edge_indices())
        assert rebuilt.allow_self_loops == allow_self_loops
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()

    def test_string_labels_round_trip(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        rebuilt = protocol.graph_from_wire(protocol.graph_to_wire(graph))
        assert set(rebuilt.edges()) == set(graph.edges())
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()

    def test_non_json_native_labels_refuse_to_serialise(self):
        graph = DiGraph.from_edges([((0, 1), (2, 3))])
        with pytest.raises(ProtocolError, match="JSON round trip"):
            protocol.graph_to_wire(graph)

    def test_tampered_edges_fail_verification(self):
        graph = gnm_random_digraph(8, 16, seed=3)
        document = protocol.graph_to_wire(graph)
        # Point the last edge elsewhere: a well-formed graph, but not the sender's.
        last = document["targets"][-1]
        row = next(
            row for row in range(8) if document["starts"][row + 1] == len(document["targets"])
        )
        row_targets = document["targets"][document["starts"][row] :]
        document["targets"][-1] = next(
            node for node in range(8) if node != row and node not in row_targets and node != last
        )
        with pytest.raises(ProtocolError, match="fingerprint"):
            protocol.graph_from_wire(document)

    def test_shape_mismatch_is_rejected(self):
        document = protocol.graph_to_wire(gnm_random_digraph(8, 16, seed=4))
        document["starts"].append(document["starts"][-1])  # one row more than labels
        with pytest.raises(ProtocolError, match="malformed wire graph"):
            protocol.graph_from_wire(document)

    @pytest.mark.parametrize(
        "document",
        [
            # row starts that decrease
            _document(["a", "b", "c"], [0, 2, 1, 3], [1, 2, 0], fingerprint="f" * 64),
            # a target beyond the last node
            _document(["a", "b"], [0, 1, 1], [2], fingerprint="f" * 64),
            # a label listed twice
            _document(["a", "a"], [0, 0, 0], [], fingerprint="f" * 64),
            # one edge listed twice
            _document(["a", "b"], [0, 2, 2], [1, 1], fingerprint="f" * 64),
            # a self-loop the loop policy forbids
            _document(["a", "b"], [0, 1, 1], [0], fingerprint="f" * 64),
            # a well-formed graph under another graph's fingerprint
            _document(
                ["a", "b"],
                [0, 1, 1],
                [1],
                fingerprint=DiGraph.from_edges([("b", "a")]).content_fingerprint(),
            ),
        ],
        ids=[
            "non-monotone-starts",
            "out-of-range-target",
            "duplicate-label",
            "duplicate-edge",
            "forbidden-loop",
            "fingerprint-mismatch",
        ],
    )
    def test_damaged_csr_document_is_refused(self, document):
        with pytest.raises(ProtocolError):
            protocol.graph_from_wire(document)

    def test_malformed_document_is_rejected(self):
        with pytest.raises(ProtocolError, match="wire graph"):
            protocol.graph_from_wire({"nodes": [1], "edges": "oops"})
        with pytest.raises(ProtocolError, match="wire graph"):
            protocol.graph_from_wire(_document([1], "oops", [], fingerprint="f" * 64))
        with pytest.raises(ProtocolError):
            protocol.graph_from_wire("not a document")
