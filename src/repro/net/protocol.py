"""The wire protocol of the network tier: length-prefixed JSON frames.

Every message between a :class:`~repro.net.client.ShardClient` and a
:class:`~repro.net.daemon.ShardDaemon` is one *frame*::

    [ 4 bytes ]  payload length, unsigned big-endian (network byte order)
    [ N bytes ]  UTF-8 JSON message body

and every message body is a checksummed envelope::

    {"protocol_version": 3,
     "request_id":       "<caller-chosen echo token>",
     "op":               "solve" | "warm" | "inventory" | "ping" | "shutdown",
     "checksum":         sha256(canonical-json(payload)),
     "payload":          {...}}

Responses replace ``"op"`` with ``"status": "ok" | "error"`` and echo the
request id, so a client can verify it is reading the answer to the question
it asked.  The checksum is the session store's — SHA-256 over the canonical
(sorted-keys, compact-separator) JSON text of the payload, both defined once
in :mod:`repro.utils.canonical` — so a store entry and a wire payload are
verified by the same arithmetic.

Decoding is **strict**: a truncated frame, an oversized length prefix, a
body that is not a JSON object, a missing envelope field, a version
mismatch, or a checksum failure each raise
:class:`~repro.exceptions.ProtocolError` naming the defect.  A damaged
frame is never partially interpreted — the retry ladder in
:mod:`repro.net.client` treats it exactly like a dropped connection.

Graphs cross the wire through :func:`graph_to_wire` /
:func:`graph_from_wire` as a CSR index document::

    {"labels":           [<node label>, ...],        # index order
     "starts":           [0, ..., <edge count>],     # one more than labels
     "targets":          [<node index>, ...],        # row i: starts[i]:starts[i + 1]
     "allow_self_loops": true | false,
     "fingerprint":      "<sender's content fingerprint>"}

The receiver rebuilds the graph with :meth:`DiGraph.from_csr_arrays
<repro.graph.digraph.DiGraph.from_csr_arrays>` — the constructor unpickling
uses too — and re-fingerprints it, so a document that decodes to any other
graph is refused.  Labels that would not survive a JSON round trip refuse
to serialise (:class:`~repro.exceptions.ProtocolError`); the executor runs
such lanes inline instead of shipping a lossy approximation.

A graph crosses once per sender and daemon: the daemon keeps the graphs it
receives, so a ``solve`` payload's ``"graph"`` is ``null`` whenever the
sender has shipped that fingerprint to it before, and a daemon that has
since dropped the graph answers
:class:`~repro.exceptions.GraphNotResidentError` for the sender to resend
it.

What deliberately never crosses the wire: a session's warm state (cached
results, cores and derived arrays).  It lives behind the daemon in its
resident sessions and its :class:`~repro.service.store.SessionStore`
shard, which is the whole point of routing each graph to exactly one
daemon.
"""

from __future__ import annotations

import json
import socket
import struct
import uuid
from typing import Any

from repro.core.results import json_native_label
from repro.exceptions import GraphError, ProtocolError
from repro.graph.digraph import DiGraph
from repro.utils.canonical import canonical_json, checksum

#: Version of the frame envelope and the documents it carries.  Bump on any
#: incompatible change; a frame speaking a different version is refused
#: outright.  Version 2 carries graphs as CSR index documents.  Version 3's
#: ``solve`` payload has no ``flow`` document: a query's budget is its own
#: ``deadline_ms`` field and a lane's is the payload's ``deadline_ms``, so a
#: version-2 sender's session-wide budget has nowhere to go.
PROTOCOL_VERSION = 3

#: Request operations a :class:`~repro.net.daemon.ShardDaemon` understands.
#: ``drain`` (graceful stop-accepting/finish-in-flight/flush/exit) is additive
#: — an op name, not a message-shape change — so it bumped no version.
REQUEST_OPS = ("solve", "warm", "inventory", "ping", "shutdown", "drain")

#: Response statuses: ``"ok"`` carries a result payload, ``"error"`` carries
#: ``{"error": <exception type name>, "message": <text>}``.
RESPONSE_STATUSES = ("ok", "error")

#: Frame length prefix: 4-byte unsigned big-endian (network byte order).
_HEADER = struct.Struct("!I")

#: Hard cap on a single frame body.  A length prefix above this is treated
#: as corruption, not as a request to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def payload_checksum(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON text of ``payload``.

    The store's checksum (:func:`repro.utils.canonical.checksum`), except
    that a payload that is not JSON-serialisable raises
    :class:`~repro.exceptions.ProtocolError` — the encode paths surface that
    as a protocol defect, never as a bare ``TypeError`` mid-frame.
    """
    try:
        return checksum(payload)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"payload is not JSON-serialisable: {error}")


def new_request_id() -> str:
    """A fresh unique request id (UUID4 hex)."""
    return uuid.uuid4().hex


def _encode_message(message: dict[str, Any]) -> bytes:
    """Serialise an already-enveloped message into one framed byte string."""
    try:
        body = canonical_json(message).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"message is not JSON-serialisable: {error}")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body)) + body


def encode_request(request_id: str, op: str, payload: dict[str, Any]) -> bytes:
    """Frame one request message (length prefix included).

    ``op`` must be one of :data:`REQUEST_OPS`; the payload must be a JSON
    object.  Raises :class:`~repro.exceptions.ProtocolError` on either
    violation — a malformed request must fail on the client, not on the
    daemon.
    """
    if op not in REQUEST_OPS:
        raise ProtocolError(f"unknown request op {op!r}; expected one of {REQUEST_OPS}")
    if not isinstance(payload, dict):
        raise ProtocolError(f"request payload must be an object, got {type(payload).__name__}")
    return _encode_message(
        {
            "protocol_version": PROTOCOL_VERSION,
            "request_id": str(request_id),
            "op": op,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
    )


def encode_response(
    request_id: str, payload: dict[str, Any], *, status: str = "ok"
) -> bytes:
    """Frame one response message echoing ``request_id``."""
    if status not in RESPONSE_STATUSES:
        raise ProtocolError(
            f"unknown response status {status!r}; expected one of {RESPONSE_STATUSES}"
        )
    if not isinstance(payload, dict):
        raise ProtocolError(f"response payload must be an object, got {type(payload).__name__}")
    return _encode_message(
        {
            "protocol_version": PROTOCOL_VERSION,
            "request_id": str(request_id),
            "status": status,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
    )


def decode_message(body: bytes) -> dict[str, Any]:
    """Strictly decode one frame *body* (no length prefix) into its message.

    Verifies the envelope shape, the protocol version, the op/status
    vocabulary, and the payload checksum.  Raises
    :class:`~repro.exceptions.ProtocolError` naming the first defect found.
    """
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    version = message.get("protocol_version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"frame speaks protocol version {version!r}; this build speaks {PROTOCOL_VERSION}"
        )
    if not isinstance(message.get("request_id"), str):
        raise ProtocolError("frame is missing its request_id")
    is_request = "op" in message
    is_response = "status" in message
    if is_request == is_response:
        raise ProtocolError("frame must carry exactly one of 'op' (request) or 'status' (response)")
    if is_request and message["op"] not in REQUEST_OPS:
        raise ProtocolError(f"frame carries unknown op {message['op']!r}")
    if is_response and message["status"] not in RESPONSE_STATUSES:
        raise ProtocolError(f"frame carries unknown status {message['status']!r}")
    if "payload" not in message or not isinstance(message["payload"], dict):
        raise ProtocolError("frame is missing its payload object")
    if message.get("checksum") != payload_checksum(message["payload"]):
        raise ProtocolError("frame payload fails its integrity checksum")
    return message


def decode_frame_bytes(frame: bytes) -> dict[str, Any]:
    """Decode one complete framed byte string (prefix + body), strictly.

    Exactly one whole frame must be present: a short prefix, a truncated
    body, trailing garbage, or an oversized length each raise
    :class:`~repro.exceptions.ProtocolError`.  The socket paths use
    :func:`read_frame`; this form exists for tests and in-memory transports.
    """
    if len(frame) < _HEADER.size:
        raise ProtocolError(
            f"truncated frame: {len(frame)} bytes cannot hold the {_HEADER.size}-byte length prefix"
        )
    (length,) = _HEADER.unpack(frame[: _HEADER.size])
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    body = frame[_HEADER.size :]
    if len(body) != length:
        raise ProtocolError(
            f"truncated frame: length prefix promises {length} bytes, got {len(body)}"
        )
    return decode_message(bytes(body))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or ``None`` on EOF before the first byte.

    EOF *inside* a frame (after at least one byte arrived) is a truncation
    and raises :class:`~repro.exceptions.ProtocolError` — the peer died
    mid-sentence, which the retry ladder must see as a failure, not as a
    clean close.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received} of {count} bytes received)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[dict[str, Any], int] | None:
    """Read and decode one frame from ``sock``.

    Returns ``(message, bytes_read)``, or ``None`` when the peer closed the
    connection cleanly between frames.  Timeouts (``socket.timeout``) and
    transport errors propagate as-is — the caller owns the retry policy.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between the length prefix and the body")
    return decode_message(body), _HEADER.size + length


def write_frame(sock: socket.socket, frame: bytes) -> int:
    """Send one already-framed byte string; returns the bytes written."""
    sock.sendall(frame)
    return len(frame)


# ----------------------------------------------------------------------
# graphs on the wire
# ----------------------------------------------------------------------
def graph_to_wire(graph: DiGraph) -> dict[str, Any]:
    """Serialise ``graph`` into a JSON-ready CSR index document.

    Node labels travel in index order (the order :meth:`content_fingerprint
    <repro.graph.digraph.DiGraph.content_fingerprint>` hashes) beside the
    integer row starts and targets of :meth:`DiGraph.csr_arrays
    <repro.graph.digraph.DiGraph.csr_arrays>`, so the receiver's rebuild
    reproduces the fingerprint bit for bit.  Labels that would not survive
    a JSON round trip raise :class:`~repro.exceptions.ProtocolError`, as
    any payload JSON cannot encode does — the caller keeps such lanes local
    instead of shipping a lossy graph.
    """
    labels = graph.nodes()
    for label in labels:
        if not json_native_label(label):
            raise ProtocolError(
                f"graph label {label!r} of type {type(label).__name__} does not survive "
                "a JSON round trip; this graph cannot cross the wire losslessly"
            )
    starts, targets = graph.csr_arrays()
    return {
        "labels": labels,
        "starts": starts,
        "targets": targets,
        "allow_self_loops": graph.allow_self_loops,
        "fingerprint": graph.content_fingerprint(),
    }


def graph_from_wire(document: dict[str, Any]) -> DiGraph:
    """Rebuild a :class:`~repro.graph.digraph.DiGraph` from its wire document.

    :meth:`DiGraph.from_csr_arrays
    <repro.graph.digraph.DiGraph.from_csr_arrays>` refuses malformed arrays
    (row starts that decrease or miss the target count, out-of-range
    targets, duplicate labels or edges, a loop the policy forbids), and —
    the cross-machine bit-identity guarantee — the rebuilt graph's
    fingerprint must equal the sender's.  Every defect raises
    :class:`~repro.exceptions.ProtocolError`.
    """
    if not isinstance(document, dict):
        raise ProtocolError(f"wire graph must be an object, got {type(document).__name__}")
    try:
        labels = document["labels"]
        starts = document["starts"]
        targets = document["targets"]
        allow_self_loops = document["allow_self_loops"]
        fingerprint = document["fingerprint"]
    except KeyError as error:
        raise ProtocolError(f"malformed wire graph: missing field {error}")
    if not all(isinstance(column, list) for column in (labels, starts, targets)) or not isinstance(
        allow_self_loops, bool
    ):
        raise ProtocolError(
            "malformed wire graph: labels, starts and targets must be lists and "
            "allow_self_loops a boolean"
        )
    try:
        graph = DiGraph.from_csr_arrays(
            labels, starts, targets, allow_self_loops=allow_self_loops
        )
    except (TypeError, ValueError, GraphError) as error:
        raise ProtocolError(f"malformed wire graph: {error!r}")
    if graph.content_fingerprint() != fingerprint:
        raise ProtocolError(
            "wire graph failed verification: rebuilt fingerprint does not match "
            "the sender's (labels, edges, or loop policy were damaged in transit)"
        )
    return graph
