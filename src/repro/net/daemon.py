"""``ShardDaemon``: one store shard served over sockets, sessions kept live.

A daemon is the network tier's unit of ownership: it holds one
:class:`~repro.service.store.SessionStore` shard plus an LRU of live
:class:`~repro.session.DDSSession` objects keyed by graph
:meth:`content_fingerprint
<repro.graph.digraph.DiGraph.content_fingerprint>`, and answers the
protocol ops of :mod:`repro.net.protocol` over TCP.  The batch executor
routes every graph to exactly one daemon (the fingerprint
:class:`~repro.service.planner.ShardMap`), so a daemon's store shard has a
single network writer and its resident sessions accumulate warm state —
cached results and cores — across requests the way a lane session does
across queries.  That state never crosses the
wire: requests carry query specs in, schema-2 result dicts come back out,
and everything expensive stays resident behind the socket.

Graphs cross once.  Besides its sessions, a daemon keeps the
:class:`~repro.graph.digraph.DiGraph` of every graph it has received, in a
second LRU keyed by fingerprint and bounded by :data:`KEPT_GRAPH_EDGES`
total edges, so a session evicted from the session LRU is rebuilt from the
kept graph rather than from a resent document.  A solve request may
therefore name its graph by fingerprint alone; only a daemon that holds
neither a session nor a kept graph for it answers
:class:`~repro.exceptions.GraphNotResidentError`, and the caller resends
the lane with the graph document.

Concurrency model
-----------------
One *selector loop* thread owns every socket: it accepts connections and
watches them for readability.  A readable connection is unregistered and
handed to a small worker-thread pool, which reads exactly one frame,
serves it, writes the response, and hands the socket back to the loop (via
a self-pipe wakeup) for the next request.  Two requests for the *same*
graph serialise on the session's lock — sessions are single-threaded by
contract — while requests for distinct graphs run concurrently, which is
the same graph-affinity rule the batch executor's lanes follow.

Instrumentation: :meth:`ShardDaemon.daemon_stats` exposes per-op request
counts, session-LRU hits/misses, sessions resident/evicted, graphs kept and
graph misses, bytes in/out, connection counts, and errors; the ``ping`` and
``inventory`` ops serve the same numbers remotely.

The ``fault_injection`` hook makes partition handling deterministically
testable: ``{"op": "solve", "kind": "close" | "exit", "times": N}`` drops
the connection without a response on the first ``N`` matching requests
(``"close"``), or additionally kills the whole daemon (``"exit"`` — the
loopback stand-in for SIGKILL / a severed machine), which is what the
client retry ladder and the executor's inline fallback are tested against.
"""

from __future__ import annotations

import collections
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import strip_solver_name
from repro.exceptions import (
    ConfigError,
    GraphNotResidentError,
    NetError,
    ProtocolError,
    ReproError,
)
from repro.graph.digraph import DiGraph
from repro.net import protocol
from repro.runtime import Deadline
from repro.service.queries import run_batch_query, run_lane
from repro.service.store import SessionStore
from repro.session import DDSSession
from repro.session.session import DEFAULT_RESULT_CACHE_SIZE

#: Fault kinds the daemon's chaos hook understands.
DAEMON_FAULT_KINDS = ("close", "exit")

#: Default capacity of the resident-session LRU.
DEFAULT_MAX_SESSIONS = 8

#: Total edges of the graphs a daemon keeps for rebuilding evicted sessions
#: (least recently used dropped first).  A kept ``DiGraph`` costs about 143
#: bytes per edge, so the bound is about 70 MB.
KEPT_GRAPH_EDGES = 500_000

#: Default seconds a drain waits for in-flight requests before stopping anyway.
DEFAULT_DRAIN_GRACE = 10.0

#: Seconds granted to each daemon-owned thread at shutdown before it is
#: declared unjoined (a hygiene failure surfaced in ``daemon_stats()``).
THREAD_JOIN_TIMEOUT = 10.0


@dataclass
class _SessionEntry:
    """One resident session: the session, its serving lock, pending counters."""

    session: DDSSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Store-warm counters from session creation, reported (once) by the
    #: first solve that serves this session.
    pending_warm: dict[str, int] = field(default_factory=dict)


class ShardDaemon:
    """Serve one store shard's DDS answers over the frame protocol.

    Parameters
    ----------
    store:
        The shard this daemon owns: a :class:`~repro.service.store.
        SessionStore`, a path to open one at, or ``None`` for a storeless
        daemon (sessions still cache in memory; nothing persists).
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port; read the real
        one from :attr:`port` after :meth:`start`.
    max_sessions:
        Capacity of the resident-session LRU.  Evicted sessions are saved
        to the store (when one is attached) before being dropped; their
        graphs stay kept (up to :data:`KEPT_GRAPH_EDGES` total edges), so a
        later request rebuilds the session without a graph document.
    max_workers:
        Width of the per-request worker-thread pool.
    flow:
        A solver name, ``"auto"`` or ``"dinic"``, kept for callers that
        still pass one; it selects nothing
        (:func:`~repro.core.config.strip_solver_name`).
    result_cache_size:
        Result-cache capacity of each resident session.
    read_timeout:
        Per-connection receive timeout (seconds) of the worker threads.
    fault_injection:
        Chaos/test hook — see the module docstring.
    """

    def __init__(
        self,
        store: SessionStore | str | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        max_workers: int = 4,
        flow: str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        read_timeout: float = 60.0,
        fault_injection: dict[str, Any] | None = None,
    ) -> None:
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = SessionStore(store)
        if not isinstance(max_sessions, int) or max_sessions < 1:
            raise ConfigError(f"max_sessions must be a positive int, got {max_sessions!r}")
        if not isinstance(max_workers, int) or max_workers < 1:
            raise ConfigError(f"max_workers must be a positive int, got {max_workers!r}")
        if fault_injection is not None:
            fault_injection = dict(fault_injection)
            if fault_injection.get("kind") not in DAEMON_FAULT_KINDS:
                raise ConfigError(
                    f"fault_injection kind must be one of {DAEMON_FAULT_KINDS}, "
                    f"got {fault_injection.get('kind')!r}"
                )
        self._store = store
        self._host = host
        self._requested_port = port
        self._max_sessions = max_sessions
        self._max_workers = max_workers
        strip_solver_name(flow)
        self._result_cache_size = result_cache_size
        self._read_timeout = read_timeout
        self._fault = fault_injection
        self._fault_budget = int(fault_injection.get("times", 1)) if fault_injection else 0

        self._sessions: collections.OrderedDict[str, _SessionEntry] = collections.OrderedDict()
        # Kept graphs with the edge count each was charged when kept, guarded
        # (with ``_kept_edges``, their running total) by ``_sessions_lock``.
        self._graphs: collections.OrderedDict[str, tuple[DiGraph, int]] = (
            collections.OrderedDict()
        )
        self._kept_edges = 0
        self._sessions_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters: dict[str, Any] = {
            "requests": {},
            "errors": 0,
            "session_cache_hits": 0,
            "session_cache_misses": 0,
            "sessions_evicted": 0,
            "sessions_flushed": 0,
            "graph_misses": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "connections_accepted": 0,
            "deadline_hits": 0,
            "deadline_rejections": 0,
            "unjoined_threads": 0,
        }
        self._in_flight = 0

        self._stop = threading.Event()
        self._draining = threading.Event()
        self._thread: threading.Thread | None = None
        self._listen: socket.socket | None = None
        self._bound_port: int | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: set[socket.socket] = set()
        self._reregister: collections.deque[socket.socket] = collections.deque()
        self._waker_recv: socket.socket | None = None
        self._waker_send: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._bound_port is None:
            raise NetError("daemon is not started; no port is bound yet")
        return self._bound_port

    @property
    def address(self) -> str:
        """``host:port`` of the bound socket."""
        return f"{self.host}:{self.port}"

    def start(self) -> tuple[str, int]:
        """Bind, spawn the selector loop in a background thread, return the address."""
        if self._thread is not None:
            raise NetError("daemon is already started")
        self._listen = socket.create_server(
            (self._host, self._requested_port), reuse_port=False
        )
        self._listen.setblocking(False)
        self._bound_port = self._listen.getsockname()[1]
        self._waker_recv, self._waker_send = socket.socketpair()
        self._waker_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ)
        self._selector.register(self._waker_recv, selectors.EVENT_READ)
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="dds-shard-worker"
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._serve_loop, name=f"dds-shard-daemon-{self._bound_port}", daemon=True
        )
        self._thread.start()
        return self._host, self._bound_port

    def serve_forever(self) -> None:
        """Blocking serve: :meth:`start` (if needed) then wait for shutdown."""
        if self._thread is None:
            self.start()
        self.join()

    def join(self, timeout: float | None = None) -> None:
        """Wait until the selector loop exits (after :meth:`shutdown`)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def shutdown(self) -> None:
        """Stop serving and release every socket and the store's connection; idempotent and thread-safe.

        Threads that fail to join within :data:`THREAD_JOIN_TIMEOUT` are
        counted as ``unjoined_threads`` in :meth:`daemon_stats` — the E6
        hygiene gate's signal that a daemon is leaking threads at shutdown.
        """
        self._request_stop()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=THREAD_JOIN_TIMEOUT)
            if thread.is_alive():
                self._count("unjoined_threads")

    def drain(self, grace_s: float = DEFAULT_DRAIN_GRACE) -> None:
        """Begin a graceful drain; returns immediately (``join`` observes the exit).

        The drain contract: stop accepting new connections, let in-flight
        requests finish (up to ``grace_s`` seconds), flush the resident
        sessions to the store, release every socket, and let
        :meth:`serve_forever` return — the CLI then exits 0.  Idempotent;
        also the target of the ``serve`` sub-command's SIGINT/SIGTERM
        handlers and of the remote ``drain`` op.
        """
        if isinstance(grace_s, bool) or not isinstance(grace_s, (int, float)) or not grace_s > 0:
            raise ConfigError(f"drain grace must be a positive number of seconds, got {grace_s!r}")
        if self._draining.is_set():
            return
        self._draining.set()
        self._wake()
        threading.Thread(
            target=self._await_drain, args=(float(grace_s),), name="dds-shard-drain", daemon=True
        ).start()

    def _await_drain(self, grace_s: float) -> None:
        """Wait (monotonic clock) for in-flight work, then stop the loop."""
        give_up_at = time.monotonic() + grace_s
        while time.monotonic() < give_up_at:
            with self._stats_lock:
                busy = self._in_flight
            if busy <= 0:
                break
            time.sleep(0.02)
        self._request_stop()

    def __enter__(self) -> "ShardDaemon":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _request_stop(self) -> None:
        """Set the stop flag and poke the selector loop awake."""
        self._stop.set()
        self._wake()

    def _wake(self) -> None:
        """Nudge the selector loop (self-pipe write); safe from any thread."""
        waker = self._waker_send
        if waker is not None:
            try:
                waker.send(b"x")
            except OSError:  # pragma: no cover - loop already tearing down
                pass

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def daemon_stats(self) -> dict[str, Any]:
        """A snapshot of the daemon's serving counters.

        Keys: ``requests`` (per-op counts), ``errors`` (error responses
        sent), ``session_cache_hits`` / ``session_cache_misses`` (resident-
        session LRU), ``sessions_resident`` / ``sessions_evicted`` /
        ``sessions_flushed`` (teardown saves to the store), ``graphs_kept``
        (graphs held for rebuilding evicted sessions), ``graph_misses``
        (requests answered :class:`~repro.exceptions.GraphNotResidentError`),
        ``bytes_in`` /
        ``bytes_out`` (frame bytes over all connections),
        ``connections_accepted``, ``open_connections``, ``in_flight``,
        ``draining``, ``deadline_hits`` (entries answered with anytime
        payloads), ``deadline_rejections`` (entries the lane budget left no
        time for), and ``unjoined_threads`` (shutdown hygiene — threads
        alive after their :data:`THREAD_JOIN_TIMEOUT` join).
        """
        with self._stats_lock:
            snapshot = {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self._counters.items()
            }
            snapshot["open_connections"] = len(self._conns)
            snapshot["in_flight"] = self._in_flight
        snapshot["draining"] = self._draining.is_set()
        with self._sessions_lock:
            snapshot["sessions_resident"] = len(self._sessions)
            snapshot["graphs_kept"] = len(self._graphs)
        return snapshot

    def open_connections(self) -> int:
        """How many client connections are currently open (hygiene probe)."""
        with self._stats_lock:
            return len(self._conns)

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] += amount

    def _count_request(self, op: str) -> None:
        with self._stats_lock:
            requests = self._counters["requests"]
            requests[op] = requests.get(op, 0) + 1

    # ------------------------------------------------------------------
    # the selector loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        """Accept connections and dispatch readable ones to worker threads."""
        assert self._selector is not None and self._listen is not None
        try:
            while not self._stop.is_set():
                if self._draining.is_set():
                    self._close_listener()
                events = self._selector.select(timeout=0.2)
                for key, _ in events:
                    sock = key.fileobj
                    if sock is self._listen:
                        self._accept()
                    elif sock is self._waker_recv:
                        self._drain_waker()
                    else:
                        # One request at a time per connection: the socket
                        # leaves the selector while a worker owns it.
                        try:
                            self._selector.unregister(sock)
                        except (KeyError, ValueError):  # pragma: no cover
                            continue
                        assert self._pool is not None
                        self._pool.submit(self._serve_one, sock)
        finally:
            self._teardown()

    def _close_listener(self) -> None:
        """Stop accepting new connections (drain): close the listening socket.

        Runs on the selector thread only, so it cannot race :meth:`_accept`;
        established connections stay registered and keep being served.
        """
        listen = self._listen
        if listen is None:
            return
        self._listen = None
        assert self._selector is not None
        try:
            self._selector.unregister(listen)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        listen.close()

    def _accept(self) -> None:
        """Accept one pending connection and register it for reads."""
        assert self._listen is not None and self._selector is not None
        try:
            conn, _ = self._listen.accept()
        except OSError:  # pragma: no cover - raced with shutdown
            return
        conn.settimeout(self._read_timeout)
        with self._stats_lock:
            self._conns.add(conn)
            self._counters["connections_accepted"] += 1
        self._selector.register(conn, selectors.EVENT_READ)

    def _drain_waker(self) -> None:
        """Consume wakeup bytes and re-register sockets workers handed back."""
        assert self._waker_recv is not None and self._selector is not None
        try:
            while self._waker_recv.recv(4096):
                pass
        except BlockingIOError:
            pass
        while self._reregister:
            sock = self._reregister.popleft()
            if self._stop.is_set():
                self._close_conn(sock)
                continue
            try:
                self._selector.register(sock, selectors.EVENT_READ)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                self._close_conn(sock)

    def _teardown(self) -> None:
        """Stop the pool, flush resident sessions, close the store and every socket (loop thread only)."""
        assert self._selector is not None
        if self._pool is not None:
            # Bounded join with per-thread accounting instead of a blocking
            # shutdown(wait=True): a worker stuck past the timeout (e.g. on a
            # dead peer's read) is *counted*, not waited on forever.
            self._pool.shutdown(wait=False)
            for worker in list(self._pool._threads):
                worker.join(timeout=THREAD_JOIN_TIMEOUT)
                if worker.is_alive():
                    self._count("unjoined_threads")
        self._flush_sessions()
        if self._store is not None:
            try:
                self._store.close()  # a later use of the store opens it again
            except ReproError:  # pragma: no cover - keep tearing down
                pass
        self._selector.close()
        if self._listen is not None:
            self._listen.close()
        with self._stats_lock:
            conns = list(self._conns)
        for conn in conns:
            self._close_conn(conn)
        for waker in (self._waker_recv, self._waker_send):
            if waker is not None:
                waker.close()

    def _flush_sessions(self) -> None:
        """Save every resident session's warm state to the store (best effort).

        The second half of the drain contract: residency is only a cache, so
        nothing a resident session learned may die with the daemon when a
        store is attached.  Runs after the worker pool has stopped, so no
        request can be mutating a session mid-save.
        """
        if self._store is None:
            return
        with self._sessions_lock:
            entries = list(self._sessions.values())
        for entry in entries:
            with entry.lock:
                try:
                    self._store.save_session(entry.session)
                except ReproError:  # pragma: no cover - keep tearing down
                    continue
            self._count("sessions_flushed")

    def _close_conn(self, sock: socket.socket) -> None:
        """Close one client connection and forget it."""
        with self._stats_lock:
            self._conns.discard(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------
    # per-request serving (worker threads)
    # ------------------------------------------------------------------
    def _take_fault(self, op: str) -> str | None:
        """Consume one unit of the chaos budget for ``op``; returns the kind."""
        if self._fault is None:
            return None
        with self._stats_lock:
            if self._fault_budget <= 0:
                return None
            if self._fault.get("op", "solve") != op:
                return None
            self._fault_budget -= 1
            return str(self._fault["kind"])

    def _serve_one(self, sock: socket.socket) -> None:
        """Read one frame from ``sock``, serve it, write back, hand back."""
        try:
            framed = protocol.read_frame(sock)
        except (ProtocolError, OSError):
            # A damaged or half-closed connection: drop it.  The client's
            # retry ladder opens a fresh one.
            self._close_conn(sock)
            return
        if framed is None:  # clean EOF between frames
            self._close_conn(sock)
            return
        message, bytes_in = framed
        self._count("bytes_in", bytes_in)
        op = message.get("op")
        request_id = message["request_id"]
        if op is None:
            # A response frame sent at a daemon: protocol misuse; drop it.
            self._close_conn(sock)
            return
        self._count_request(op)
        with self._stats_lock:
            self._in_flight += 1
        try:
            self._serve_request(sock, op, request_id, message)
        finally:
            with self._stats_lock:
                self._in_flight -= 1

    def _serve_request(
        self, sock: socket.socket, op: str, request_id: str, message: dict[str, Any]
    ) -> None:
        """Dispatch, respond, and hand the socket back (in-flight already counted)."""
        fault = self._take_fault(op)
        if fault is not None:
            # Simulated partition: vanish without a response.  ``exit``
            # additionally takes the whole daemon down — the loopback
            # equivalent of SIGKILL on a remote box.
            self._close_conn(sock)
            if fault == "exit":
                self._request_stop()
            return
        try:
            payload = self._dispatch(op, message["payload"])
            frame = protocol.encode_response(request_id, payload)
        except ReproError as error:
            self._count("errors")
            frame = protocol.encode_response(
                request_id,
                {"error": type(error).__name__, "message": str(error)},
                status="error",
            )
        except Exception as error:  # noqa: BLE001 - a bug must not kill serving
            self._count("errors")
            frame = protocol.encode_response(
                request_id,
                {"error": type(error).__name__, "message": str(error)},
                status="error",
            )
        # Count before sending: a client can read the reply and snapshot
        # daemon_stats() before this thread is scheduled again, and the
        # counter must already reflect the frame it just received.
        self._count("bytes_out", len(frame))
        try:
            protocol.write_frame(sock, frame)
        except OSError:
            self._close_conn(sock)
            return
        if op == "shutdown":
            self._close_conn(sock)
            self._request_stop()
            return
        self._reregister.append(sock)
        self._wake()

    def _dispatch(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Route one request payload to its op handler."""
        if op == "ping":
            return self._op_ping(payload)
        if op == "solve":
            return self._op_solve(payload)
        if op == "warm":
            return self._op_warm(payload)
        if op == "inventory":
            return self._op_inventory(payload)
        if op == "drain":
            return self._op_drain(payload)
        if op == "shutdown":
            return {"stopping": True}
        raise NetError(f"unhandled op {op!r}")  # pragma: no cover - decode rejects these

    # ------------------------------------------------------------------
    # resident sessions
    # ------------------------------------------------------------------
    def _session_for(
        self, fingerprint: str, wire_graph: dict[str, Any] | None
    ) -> tuple[_SessionEntry, bool]:
        """The resident session of ``fingerprint``, built on a miss.

        Returns ``(entry, cache_hit)``.  A miss builds the session from the
        kept graph of ``fingerprint`` when there is one whose fingerprint
        still matches, else from the request's graph document (decoded,
        verified, and then kept).  A miss with neither raises
        :class:`~repro.exceptions.GraphNotResidentError` — the client must
        resend with the graph inline.  The kept graph and the session share
        one ``DiGraph``: daemon sessions never apply updates.  Evicted LRU
        sessions are saved to the store first, so residency is a cache,
        never the only copy.
        """
        evicted: _SessionEntry | None = None
        with self._sessions_lock:
            entry = self._sessions.get(fingerprint)
            if entry is not None:
                self._sessions.move_to_end(fingerprint)
                self._keep_graph(fingerprint, entry.session.graph)
                self._count("session_cache_hits")
                return entry, True
            self._count("session_cache_misses")
            kept = self._graphs.get(fingerprint)
            if kept is not None and kept[0].content_fingerprint() != fingerprint:
                # The kept graph changed since it was verified: treat it as absent.
                del self._graphs[fingerprint]
                self._kept_edges -= kept[1]
                kept = None
            if kept is not None:
                graph = kept[0]
            elif wire_graph is not None:
                graph = protocol.graph_from_wire(wire_graph)
                if graph.content_fingerprint() != fingerprint:
                    raise NetError(
                        "solve request fingerprint does not match the graph document it carries"
                    )
            else:
                self._count("graph_misses")
                raise GraphNotResidentError(
                    f"graph {fingerprint[:12]}... is not resident on this daemon and "
                    "the request carried no graph document"
                )
            self._keep_graph(fingerprint, graph)
            session = DDSSession(graph, result_cache_size=self._result_cache_size)
            entry = _SessionEntry(session=session)
            if self._store is not None:
                entry.pending_warm = dict(self._store.warm_session(session))
            self._sessions[fingerprint] = entry
            if len(self._sessions) > self._max_sessions:
                _, evicted = self._sessions.popitem(last=False)
                self._count("sessions_evicted")
        if evicted is not None and self._store is not None:
            # Save outside the dict lock: an in-flight request may still
            # hold the evicted entry's lock for a long solve.
            with evicted.lock:
                self._store.save_session(evicted.session)
        return entry, False

    def _keep_graph(self, fingerprint: str, graph: DiGraph) -> None:
        """Mark ``graph`` most recently used in the kept-graph LRU (lock held).

        Least recently used graphs are dropped until the kept total is back
        within :data:`KEPT_GRAPH_EDGES`; a graph larger than the whole
        budget is not kept at all.
        """
        if fingerprint in self._graphs:
            self._graphs.move_to_end(fingerprint)
            return
        self._graphs[fingerprint] = (graph, graph.num_edges)
        self._kept_edges += graph.num_edges
        while self._kept_edges > KEPT_GRAPH_EDGES:
            _, (_, edges) = self._graphs.popitem(last=False)
            self._kept_edges -= edges

    # ------------------------------------------------------------------
    # op handlers
    # ------------------------------------------------------------------
    def _op_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Health check: protocol version, residency, and echo."""
        with self._sessions_lock:
            resident = len(self._sessions)
        return {
            "pong": True,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "sessions_resident": resident,
            "echo": payload.get("echo"),
        }

    def _op_solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve one lane: a list of batch entries against one graph.

        Payload: ``{"graph_key", "fingerprint", "entries": [[index, spec],
        ...], "graph": <wire document> | null, "deadline_ms": <lane budget>}``
        (``"deadline_ms"`` only when the lane has a budget); ``"graph"`` may
        be null whenever this daemon holds the graph (see
        :meth:`_session_for`).  Every entry is checked before the
        first one runs.  The lane itself is served by
        :func:`~repro.service.queries.run_lane`, so the response is the lane
        message the executor's thread lanes produce too —
        per-entry executions with schema-2 result payloads, the session's
        cache-stats snapshot, and store counters — plus
        ``session_cache_hit``.
        """
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise NetError("solve payload requires a 'fingerprint' string")
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise NetError("solve payload requires an 'entries' list")
        lane: list[tuple[int, dict[str, Any]]] = []
        for item in entries:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise NetError(f"solve entry must be an [index, spec] pair, got {item!r}")
            index, spec = item
            if not isinstance(spec, dict):
                raise NetError(f"solve entry {index!r} spec must be an object")
            lane.append((int(index), spec))
        lane_deadline_ms = payload.get("deadline_ms")
        if lane_deadline_ms is not None:
            if (
                isinstance(lane_deadline_ms, bool)
                or not isinstance(lane_deadline_ms, (int, float))
                or not lane_deadline_ms > 0
            ):
                raise NetError(
                    f"solve 'deadline_ms' must be a positive number, got {lane_deadline_ms!r}"
                )
        # The lane budget starts at acceptance: session residency lookup,
        # graph decode, and queueing behind another request for the same
        # graph all spend it, exactly like local executor lanes.
        lane_deadline = (
            Deadline(float(lane_deadline_ms)) if lane_deadline_ms is not None else None
        )
        entry, cache_hit = self._session_for(fingerprint, payload.get("graph"))
        with entry.lock:
            store_counters = entry.pending_warm
            entry.pending_warm = {}
            message = run_lane(
                entry.session,
                lane,
                deadline=lane_deadline,
                store=self._store,
                store_counters=store_counters,
                on_deadline=lambda rejected: self._count(
                    "deadline_rejections" if rejected else "deadline_hits"
                ),
                # Resolved in this module at call time, so substituting
                # ``daemon.run_batch_query`` changes what the daemon serves
                # (the benchmark self-test does, to prove its oracle catches
                # a wrong remote answer).
                run_query=run_batch_query,
            )
        message["session_cache_hit"] = cache_hit
        return message

    def _op_warm(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Precompute warm state for a pushed graph (the remote ``warm``).

        Payload: ``{"graph": <wire document>, "methods": [...], "max_core":
        bool}``.  Results land in the resident session and — when a store
        is attached — on disk, exactly like ``dds-repro warm`` run on the
        daemon's box.
        """
        wire_graph = payload.get("graph")
        if not isinstance(wire_graph, dict):
            raise NetError("warm payload requires a 'graph' document")
        fingerprint = wire_graph.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise ProtocolError("wire graph is missing its fingerprint")
        methods = payload.get("methods") or ["auto"]
        entry, cache_hit = self._session_for(fingerprint, wire_graph)
        with entry.lock:
            computed: dict[str, Any] = {}
            for method in methods:
                result = entry.session.densest_subgraph(str(method))
                computed[str(method)] = {"method": result.method, "density": result.density}
            if payload.get("max_core"):
                core = entry.session.max_xy_core()
                computed["max-core"] = {"x": core.x, "y": core.y}
            saved = (
                self._store.save_session(entry.session) if self._store is not None else {}
            )
        return {
            "fingerprint": fingerprint,
            "computed": computed,
            "saved": saved,
            "session_cache_hit": cache_hit,
        }

    def _op_inventory(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The daemon's counters plus its store shard's inventory rows."""
        return {
            "daemon": self.daemon_stats(),
            "store_root": str(self._store.root) if self._store is not None else None,
            "store": self._store.inventory() if self._store is not None else None,
        }

    def _op_drain(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Acknowledge, then drain: the response leaves before serving stops.

        Payload: ``{"grace_s": <seconds> | absent}``.  The reported
        ``in_flight`` excludes this drain request itself.
        """
        grace = payload.get("grace_s", DEFAULT_DRAIN_GRACE)
        if isinstance(grace, bool) or not isinstance(grace, (int, float)) or not grace > 0:
            raise NetError(f"drain 'grace_s' must be a positive number, got {grace!r}")
        with self._stats_lock:
            in_flight = self._in_flight
        self.drain(float(grace))
        return {"draining": True, "grace_s": float(grace), "in_flight": max(in_flight - 1, 0)}
