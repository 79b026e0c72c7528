"""The network tier: shard daemons serving DDS answers over sockets.

``repro.net`` sits above the service tier (layer "4.5"): it moves the
batch executor's graph-affine lane model across the machine boundary.  A
:class:`~repro.net.daemon.ShardDaemon` owns one session-store shard plus
an LRU of live sessions; a :class:`~repro.net.client.ShardClient` speaks
the length-prefixed, checksummed frame protocol of
:mod:`repro.net.protocol` with a retry/backoff ladder; and
``BatchExecutor(remote_hosts=[...])`` routes lanes to daemons by the
fingerprint :class:`~repro.service.planner.ShardMap` —
``process_pool=True`` does the same with daemons it starts in local child
processes for each batch.  Warm state — cached results, cores — never
crosses the wire: only graphs, query specs, and schema-2 result dicts do.
"""

from repro.net.client import (
    CircuitBreaker,
    CircuitOpenError,
    RemoteOpError,
    ShardClient,
    ShardClientPool,
    parse_host_port,
)
from repro.net.daemon import DEFAULT_MAX_SESSIONS, ShardDaemon
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    RESPONSE_STATUSES,
    decode_frame_bytes,
    decode_message,
    encode_request,
    encode_response,
    graph_from_wire,
    graph_to_wire,
    new_request_id,
    read_frame,
    write_frame,
)

__all__ = [
    "DEFAULT_MAX_SESSIONS",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "RESPONSE_STATUSES",
    "CircuitBreaker",
    "CircuitOpenError",
    "RemoteOpError",
    "ShardClient",
    "ShardClientPool",
    "ShardDaemon",
    "decode_frame_bytes",
    "decode_message",
    "encode_request",
    "encode_response",
    "graph_from_wire",
    "graph_to_wire",
    "new_request_id",
    "parse_host_port",
    "read_frame",
    "write_frame",
]
