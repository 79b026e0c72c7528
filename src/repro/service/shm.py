"""Shared-memory graph segments: publish a graph's CSR once, attach anywhere.

The process-pool executor (:mod:`repro.service.executor`) cannot pickle a
:class:`~repro.graph.digraph.DiGraph` per worker — that would copy every
adjacency set through a pipe for every lane.  Instead the parent *publishes*
each lane's graph into one named :class:`multiprocessing.shared_memory`
segment and workers *attach* to it by name: the CSR arrays are read in place
through zero-copy ``memoryview.cast("q")`` views (the same flat int64/float64
layout :meth:`repro.flow.network.FlowNetwork.numpy_csr` serves to the
vectorised backend), so the only per-worker materialisation is the Python
set representation ``DiGraph`` itself requires.

Segment layout (little-endian, all integers int64)::

    [ 0:64)                      header: MAGIC, VERSION, n, m, labels_bytes,
                                 allow_self_loops, 2 reserved words
    [64 : 64+8(n+1))             CSR row starts over the out-adjacency
    [.. : +8m)                   CSR targets (node indices)
    [.. : +8n)                   out-degree of every node
    [.. : +8n)                   in-degree of every node
    [.. : +labels_bytes)         pickled node-label list (insertion order)
    [.. : +64)                   ``content_fingerprint`` hex digest (ascii)

Degrees ride along so workers can seed their sessions
(:meth:`repro.session.DDSSession.seed_derived`) without an O(n + m) recompute
per lane; the trailing fingerprint lets :func:`attach_graph` verify — by
rebuilding and re-fingerprinting — that the attached bytes reproduce the
published graph bit for bit before any query runs on it.

What is deliberately *not* shared: decision networks and their residual
flows.  Their cache keys embed
:attr:`DiGraph.state_token <repro.graph.digraph.DiGraph.state_token>` — a
process-local counter — and ``retune`` mutates capacities in place, so
sharing them across processes would either alias mutable solver state or
require a cross-process token protocol.  Warm state crosses processes
through the :class:`~repro.service.store.SessionStore` instead, which is
already fingerprint-keyed and ``fcntl``-locked.

Hygiene: every published segment is tracked in a module registry until it is
unlinked, so tests (and operators) can assert a run left nothing behind in
``/dev/shm`` — see :func:`active_segment_names`.
"""

from __future__ import annotations

import os
import pickle
import secrets
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import StoreError
from repro.graph.digraph import DiGraph

try:  # pragma: no cover - exercised via the degradation lane
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without POSIX shm
    _shared_memory = None

try:  # pragma: no cover - exercised via the degradation lane
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    _fcntl = None

#: Environment knob forcing the no-shared-memory degradation path (the CI
#: lane sets it; operators can too, e.g. on a locked-down /dev/shm).
NO_SHM_ENV = "DDS_REPRO_NO_SHARED_MEMORY"

#: First header word of every segment ("DDSR" as an int64).
SEGMENT_MAGIC = 0x52534444

#: Bump on any layout change; attach refuses mismatched versions.
SEGMENT_VERSION = 1

_HEADER_WORDS = 8
_HEADER_BYTES = _HEADER_WORDS * 8
_FINGERPRINT_BYTES = 64

#: Registry of segments this process published and has not yet unlinked:
#: ``name -> GraphSegment``.  The hygiene invariant is that it is empty
#: whenever no batch is in flight.
_ACTIVE_SEGMENTS: dict[str, "GraphSegment"] = {}


def shared_memory_available() -> bool:
    """Whether named shared-memory segments can be used in this process."""
    return _shared_memory is not None and not os.environ.get(NO_SHM_ENV)


def fcntl_available() -> bool:
    """Whether ``fcntl`` advisory locks (the store's writer locks) exist."""
    return _fcntl is not None


def process_pool_available(*, need_store_locks: bool = False) -> tuple[bool, str | None]:
    """Gate of the executor's degradation ladder.

    Returns ``(True, None)`` when the process-pool path can run, else
    ``(False, reason)`` with a human-readable reason the executor records in
    its report before falling back to the thread/serial path.
    ``need_store_locks`` additionally requires ``fcntl`` — multiple worker
    processes writing one store shard are only safe under its per-graph
    advisory locks.
    """
    if _shared_memory is None:
        return False, "multiprocessing.shared_memory is unavailable on this platform"
    if os.environ.get(NO_SHM_ENV):
        return False, f"shared memory disabled by {NO_SHM_ENV}"
    if need_store_locks and not fcntl_available():
        return False, "fcntl advisory locks are unavailable (store writes would race)"
    return True, None


def active_segment_names() -> list[str]:
    """Names of segments published here and not yet unlinked (sorted)."""
    return sorted(_ACTIVE_SEGMENTS)


@dataclass
class GraphSegment:
    """A published graph: the parent-side handle to one shm segment."""

    name: str
    size: int
    fingerprint: str
    num_nodes: int
    num_edges: int
    _shm: Any = field(repr=False, default=None)
    _closed: bool = field(repr=False, default=False)
    _unlinked: bool = field(repr=False, default=False)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays alive)."""
        if self._shm is not None and not self._closed:
            self._shm.close()
            self._closed = True

    def unlink(self) -> None:
        """Close and remove the segment from the system; idempotent."""
        self.close()
        _ACTIVE_SEGMENTS.pop(self.name, None)
        if self._shm is not None and not self._unlinked:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - external cleanup
                pass
            self._unlinked = True


def publish_graph(graph: DiGraph, *, name_prefix: str = "dds") -> GraphSegment:
    """Map ``graph`` into a fresh named shared-memory segment.

    Returns the parent-side :class:`GraphSegment`; the caller owns the
    segment's lifetime and must :meth:`~GraphSegment.unlink` it (the
    executor does so in a ``finally``).  Raises
    :class:`~repro.exceptions.StoreError` when shared memory is unavailable
    — callers on the degradation ladder check
    :func:`process_pool_available` first.
    """
    if not shared_memory_available():
        raise StoreError("shared memory is unavailable; cannot publish graph segments")
    n = graph.num_nodes
    out_adj = graph.out_adj
    starts = [0] * (n + 1)
    targets: list[int] = []
    for index, row in enumerate(out_adj):
        targets.extend(row)
        starts[index + 1] = len(targets)
    m = len(targets)
    labels_blob = pickle.dumps(graph.nodes(), protocol=pickle.HIGHEST_PROTOCOL)
    fingerprint = graph.content_fingerprint().encode("ascii")
    if len(fingerprint) != _FINGERPRINT_BYTES:
        raise StoreError(
            f"unexpected fingerprint width {len(fingerprint)} (wanted {_FINGERPRINT_BYTES})"
        )
    size = (
        _HEADER_BYTES
        + 8 * (n + 1)
        + 8 * m
        + 8 * n
        + 8 * n
        + len(labels_blob)
        + _FINGERPRINT_BYTES
    )
    name = f"{name_prefix}-{os.getpid():x}-{secrets.token_hex(4)}"
    shm = _shared_memory.SharedMemory(name=name, create=True, size=size)
    try:
        buf = shm.buf
        buf[:_HEADER_BYTES] = struct.pack(
            "<8q",
            SEGMENT_MAGIC,
            SEGMENT_VERSION,
            n,
            m,
            len(labels_blob),
            1 if graph.allow_self_loops else 0,
            0,
            0,
        )
        offset = _HEADER_BYTES
        for chunk in (starts, targets):
            packed = struct.pack(f"<{len(chunk)}q", *chunk)
            buf[offset : offset + len(packed)] = packed
            offset += len(packed)
        for degrees in (graph.out_degrees(), graph.in_degrees()):
            packed = struct.pack(f"<{len(degrees)}q", *degrees)
            buf[offset : offset + len(packed)] = packed
            offset += len(packed)
        buf[offset : offset + len(labels_blob)] = labels_blob
        offset += len(labels_blob)
        buf[offset : offset + _FINGERPRINT_BYTES] = fingerprint
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    segment = GraphSegment(
        name=shm.name,  # the kernel may normalise the requested name
        size=size,
        fingerprint=fingerprint.decode("ascii"),
        num_nodes=n,
        num_edges=m,
        _shm=shm,
    )
    _ACTIVE_SEGMENTS[segment.name] = segment
    return segment


@dataclass
class AttachedGraph:
    """A worker-side view of a published graph segment.

    ``graph`` is rebuilt from the mapped CSR; ``derived`` maps
    :meth:`~repro.session.DDSSession.seed_derived` keyword names to the
    segment's degree views, ready for ``DDSSession.from_seeded``.  Call
    :meth:`close` when done — it releases the zero-copy views *before*
    dropping the mapping, which is the order ``memoryview`` requires.
    """

    graph: DiGraph
    derived: dict[str, Any]
    fingerprint: str
    _shm: Any = field(repr=False, default=None)
    _views: list[Any] = field(repr=False, default_factory=list)

    def close(self) -> None:
        """Release all exported views, then drop the mapping; idempotent."""
        for view in self._views:
            view.release()
        self._views.clear()
        self.derived = {}
        if self._shm is not None:
            self._shm.close()
            self._shm = None


def _attach_untracked(name: str):
    """Attach to a named segment without resource-tracker registration.

    CPython registers *attaching* processes with the shared-memory resource
    tracker too (bpo-39959): under ``spawn`` each worker's fresh tracker
    would then unlink the parent's live segments when the worker exits, and
    under ``fork`` a worker-side unregister would erase the parent's crash
    cleanup entry.  Ownership here is strictly parental, so workers attach
    with registration suppressed.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip(*args: Any, **kwargs: Any) -> None:
        """Swallow the attach-side registration of this one constructor."""

    resource_tracker.register = _skip
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_graph(name: str, *, verify: bool = True) -> AttachedGraph:
    """Attach to a segment published by :func:`publish_graph`.

    Rebuilds the :class:`~repro.graph.digraph.DiGraph` through zero-copy
    int64 views over the mapped CSR and returns it with the seeded degree
    arrays.  With ``verify=True`` (the default, and what workers use) the
    rebuilt graph's :meth:`content_fingerprint
    <repro.graph.digraph.DiGraph.content_fingerprint>` must equal the
    published one — the cross-process bit-identity guarantee starts with the
    graph itself.  Raises :class:`~repro.exceptions.StoreError` on a missing
    segment, malformed header, or fingerprint mismatch.
    """
    if not shared_memory_available():
        raise StoreError("shared memory is unavailable; cannot attach graph segments")
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        raise StoreError(f"no shared-memory segment named {name!r} (already unlinked?)")
    views: list[Any] = []
    try:
        buf = shm.buf
        if len(buf) < _HEADER_BYTES:
            raise StoreError(f"segment {name!r} is too small to hold a header")
        magic, version, n, m, labels_bytes, loops, _, _ = struct.unpack(
            "<8q", bytes(buf[:_HEADER_BYTES])
        )
        if magic != SEGMENT_MAGIC:
            raise StoreError(f"segment {name!r} is not a graph segment (bad magic)")
        if version != SEGMENT_VERSION:
            raise StoreError(
                f"segment {name!r} has layout version {version}, expected {SEGMENT_VERSION}"
            )
        offset = _HEADER_BYTES

        def int64_view(count: int):
            """Zero-copy int64 view over the next ``count`` words."""
            nonlocal offset
            view = buf[offset : offset + 8 * count].cast("q")
            views.append(view)
            offset += 8 * count
            return view

        starts = int64_view(n + 1)
        targets = int64_view(m)
        out_degrees = int64_view(n)
        in_degrees = int64_view(n)
        labels = pickle.loads(bytes(buf[offset : offset + labels_bytes]))
        offset += labels_bytes
        fingerprint = bytes(buf[offset : offset + _FINGERPRINT_BYTES]).decode("ascii")
        graph = DiGraph.from_csr_arrays(
            labels, starts, targets, allow_self_loops=bool(loops)
        )
        if verify and graph.content_fingerprint() != fingerprint:
            raise StoreError(
                f"segment {name!r} failed verification: rebuilt graph fingerprint "
                "does not match the published one"
            )
        return AttachedGraph(
            graph=graph,
            derived={"out_degrees": out_degrees, "in_degrees": in_degrees},
            fingerprint=fingerprint,
            _shm=shm,
            _views=views,
        )
    except BaseException:
        for view in views:
            view.release()
        shm.close()
        raise
