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
from repro.net import protocol


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
        assert message["checksum"] == protocol.payload_checksum(payload)

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
