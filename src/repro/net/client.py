"""``ShardClient``: the calling side of the frame protocol, with retries.

A client keeps the connections it opens.  A request that is answered —
with ``status="ok"`` or ``"error"`` alike — leaves its connection idle, and
the next request is sent on the most recently used idle connection rather
than on a new one, so a run of requests to one daemon costs one TCP
connect and one daemon accept instead of one each.  Lanes sharing a client
on several threads each take their own connection; a connection serves one
request at a time.

*The stale-connection rule.*  A daemon that stops, restarts or starts
draining closes its idle connections, and the client may not notice until
it next looks.  So
before reusing an idle connection the client polls it without blocking: a
daemon sends nothing unasked, and a connection with anything to read (its
end of file, typically) is closed and dropped, and the next idle one, or a
new one, is taken instead.  That costs no retry, no backoff and no breaker
change.

The retry ladder is the batch executor's crash containment, for local
and remote daemons alike: once a request's frame is sent, a *transport*
failure (timeout, reset, a connection closed unanswered, a damaged frame —
a killed daemon's connections close with it), like a failed connect, is one
attempt of the ladder, and is retried on a *fresh* connection, never an
idle one, up to ``max_retries`` times with bounded exponential backoff
plus jitter, after which :class:`~repro.exceptions.NetError` is raised and
the executor falls back to solving the lane inline.  A connection that
failed is closed, never reused.  A
*semantic* failure — the daemon answered, but with ``status="error"`` —
is raised immediately as :class:`RemoteOpError` and never retried: the
daemon is healthy and re-asking the same malformed question would get the
same answer.  The one exception is the batch executor's, one level up: a
solve sent by fingerprint alone that meets a
:class:`~repro.exceptions.GraphNotResidentError` is asked again once, with
the graph document.

:meth:`ShardClient.close` closes the idle connections (the client stays
usable: a later request opens a new one), and so does a client that is
garbage-collected without it.  :class:`ShardClientPool` holds one client
per daemon of a shard set, aggregates their counters and closes them
together; the executor drives it with the fingerprint
:class:`~repro.service.planner.ShardMap`, so each graph's requests always
land on the daemon that owns its store shard.
"""

from __future__ import annotations

import collections
import random
import socket
import threading
import time
import weakref
from typing import Any

from repro.exceptions import ConfigError, NetError, ProtocolError
from repro.net import protocol

#: Base of the exponential backoff schedule, in seconds.
BACKOFF_BASE_S = 0.05

#: Cap on a single backoff sleep, in seconds.
BACKOFF_MAX_S = 2.0

#: Seconds an open breaker waits before letting one half-open probe through.
BREAKER_COOLDOWN_S = 5.0


def parse_host_port(text: str) -> tuple[str, int]:
    """Parse ``"host:port"`` to a pair.

    Raises :class:`~repro.exceptions.ConfigError` on anything else;
    bracketed IPv6 literals are not supported by this tier.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"expected 'host:port', got {text!r}")
    text = text.strip()
    host, _, port_text = text.rpartition(":")
    if not host:
        raise ConfigError(f"expected 'host:port', got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"port in {text!r} is not an integer") from None
    if not 0 < port < 65536:
        raise ConfigError(f"port {port} in {text!r} is out of range")
    return host, port


def _quiet(sock: socket.socket) -> bool:
    """Whether an idle connection has nothing to read, polled without blocking.

    A daemon sends nothing unasked, so an idle connection that is readable
    holds its end of file (the daemon closed it), a reset, or bytes nobody
    asked for: it is not reused.
    """
    timeout = sock.gettimeout()
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)
    return False


def _close_all(idle: collections.deque[socket.socket]) -> None:
    """Close every connection in ``idle`` (a client's, at close or collection)."""
    while True:
        try:
            idle.pop().close()
        except IndexError:
            return


class RemoteOpError(NetError):
    """A daemon answered with ``status="error"``: the op itself failed.

    Carries the remote exception's type name (``remote_type``) and message
    (``remote_message``).  Never retried — the transport is healthy.
    """

    def __init__(self, op: str, address: str, remote_type: str, remote_message: str) -> None:
        super().__init__(
            f"remote {op} on {address} failed with {remote_type}: {remote_message}"
        )
        self.op = op
        self.address = address
        self.remote_type = remote_type
        self.remote_message = remote_message


class CircuitOpenError(NetError):
    """Fast-fail: the host's circuit breaker is open, no connection was tried.

    A :class:`~repro.exceptions.NetError` subclass on purpose — callers with
    an inline-fallback path for transport failures (the batch executor)
    handle it with the code they already have, just without paying the
    connect-timeout-times-retry-ladder tax per lane.
    """

    def __init__(self, address: str, state: str) -> None:
        super().__init__(f"circuit breaker for {address} is {state}; failing fast")
        self.address = address
        self.state = state


class CircuitBreaker:
    """Per-host health gate: closed → open on a failure, half-open probe after cooldown.

    The breaker watches whole retry *ladders*, not individual connection
    attempts: :meth:`record_failure` means the client exhausted
    ``max_retries + 1`` attempts against the host, which is already a run
    of failures, so one exhausted ladder opens the breaker.  While it is
    open :meth:`admit` fails fast (no socket is touched) until
    :data:`BREAKER_COOLDOWN_S` has elapsed on the monotonic clock; then
    exactly one request is admitted as the *half-open probe* — its success
    recloses the breaker, its failure re-opens it for another cooldown.
    Concurrent requests during the probe keep failing fast, so a dead host
    absorbs at most one ladder per cooldown period.

    ``clock`` is injectable (monotonic by contract — wall-clock jumps must
    not re-admit a dead host early or pin a healthy one open).
    """

    #: The three classic states; ``state`` is always one of these.
    STATES = ("closed", "open", "half-open")

    def __init__(self, *, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self._opened_at = 0.0
        self._counters = {
            "breaker_opens": 0,
            "breaker_fast_failures": 0,
            "breaker_half_open_probes": 0,
            "breaker_reclosures": 0,
        }

    def stats(self) -> dict[str, int]:
        """Transition counters (ints only — summable across a pool)."""
        with self._lock:
            return dict(self._counters)

    def admit(self, address: str) -> None:
        """Gate one request; raises :class:`CircuitOpenError` unless admitted.

        In the open state, the first caller after the cooldown becomes the
        half-open probe; everyone else fails fast until the probe reports.
        """
        with self._lock:
            if self.state == "closed":
                return
            if self.state == "open" and self._clock() - self._opened_at >= BREAKER_COOLDOWN_S:
                self.state = "half-open"
                self._counters["breaker_half_open_probes"] += 1
                return
            self._counters["breaker_fast_failures"] += 1
            raise CircuitOpenError(address, self.state)

    def record_success(self) -> None:
        """The admitted request reached the daemon: reclose if not closed."""
        with self._lock:
            if self.state != "closed":
                self.state = "closed"
                self._counters["breaker_reclosures"] += 1

    def record_failure(self) -> None:
        """An admitted request exhausted its ladder: open (or re-open)."""
        with self._lock:
            if self.state != "open":
                self.state = "open"
                self._opened_at = self._clock()
                self._counters["breaker_opens"] += 1


class ShardClient:
    """Talk to one :class:`~repro.net.daemon.ShardDaemon`.

    Parameters
    ----------
    host / port:
        The daemon's address.  ``host`` may be ``"host:port"`` with
        ``port`` omitted.
    connect_timeout / read_timeout:
        Seconds allowed for TCP connect and for reading a response frame
        (``read_timeout=None`` waits as long as the answer takes).
    max_retries:
        How many *fresh-connection* retries a transport failure earns
        before :class:`~repro.exceptions.NetError` (``max_retries + 1``
        attempts in total; the first may reuse an idle connection) — the
        batch executor's ``max_retries``.  Retry ``n`` (0-based) first
        sleeps ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2**n)`` scaled by
        jitter in ``[0.5, 1.0]``.
    breaker:
        The per-host :class:`CircuitBreaker` guarding this client; a default
        one when omitted.  Tests pass one with a deterministic clock.
    """

    def __init__(
        self,
        host: str,
        port: int | None = None,
        *,
        connect_timeout: float = 5.0,
        read_timeout: float | None = 60.0,
        max_retries: int = 2,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if port is None:
            host, port = parse_host_port(host)
        if not isinstance(max_retries, int) or max_retries < 0:
            raise ConfigError(f"max_retries must be a non-negative int, got {max_retries!r}")
        self.host = host
        self.port = port
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._max_retries = max_retries
        self._jitter = random.Random()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # Lanes of the remote executor share one client per host, so the
        # counters take a lock.  Idle connections wait in a deque (its
        # append and pop are thread-safe), most recently used last; a
        # request owns its connection until it is answered.
        self._idle: collections.deque[socket.socket] = collections.deque()
        weakref.finalize(self, _close_all, self._idle)
        self._counters_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "retries": 0,
            "failures": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
        }

    @property
    def address(self) -> str:
        """``host:port`` this client targets."""
        return f"{self.host}:{self.port}"

    def stats(self) -> dict[str, int]:
        """A snapshot of this client's transport and breaker counters."""
        with self._counters_lock:
            stats = dict(self._counters)
        stats.update(self.breaker.stats())
        return stats

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += amount

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        _close_all(self._idle)

    def backoff_delay(self, attempt: int) -> float:
        """The jittered sleep before retry ``attempt`` (0-based)."""
        return min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2**attempt) * (0.5 + 0.5 * self._jitter.random())

    # ------------------------------------------------------------------
    # the retry ladder
    # ------------------------------------------------------------------
    def request(
        self, op: str, payload: dict[str, Any], *, request_id: str | None = None
    ) -> dict[str, Any]:
        """Send one request, retrying transport failures on fresh connections.

        Returns the response payload of an ``"ok"`` answer.  The first
        attempt reuses an idle connection the daemon has not closed, if
        there is one (see the module docstring).  The frame is
        encoded once, before the ladder, and every attempt resends the same
        bytes and request id; a payload that cannot be encoded raises
        :class:`~repro.exceptions.ProtocolError` at once — a local defect,
        so no socket, no retry and no breaker change.  Raises
        :class:`CircuitOpenError` without touching the network while the
        host's breaker is open, :class:`RemoteOpError` on a semantic
        failure (no retry), and :class:`~repro.exceptions.NetError` once
        the ladder is exhausted.
        """
        rid = request_id if request_id is not None else protocol.new_request_id()
        frame = protocol.encode_request(rid, op, payload)
        self.breaker.admit(self.address)
        try:
            result = self._request_with_retries(op, rid, frame)
        except RemoteOpError:
            # The daemon answered — the transport is healthy; only the op
            # failed.  That must reclose a half-open breaker, not trip it.
            self.breaker.record_success()
            raise
        except NetError:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def _request_with_retries(self, op: str, rid: str, frame: bytes) -> dict[str, Any]:
        """The retry ladder itself (breaker accounting lives in ``request``)."""
        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
            if attempt:
                self._bump("retries")
                time.sleep(self.backoff_delay(attempt - 1))
            try:
                return self._request_once(op, rid, frame, reuse=not attempt)
            except RemoteOpError:
                raise
            except (ProtocolError, OSError) as error:
                last_error = error
        self._bump("failures")
        raise NetError(
            f"{op} to {self.address} failed after {self._max_retries + 1} attempts "
            f"on fresh connections: {last_error}"
        )

    def _request_once(
        self, op: str, rid: str, frame: bytes, *, reuse: bool
    ) -> dict[str, Any]:
        """One attempt: the encoded ``frame`` out, one frame back.

        Sent on an idle connection when ``reuse`` finds one, else on a new
        one.  A connection that answered is kept idle for the next request;
        one that failed in any way is closed.
        """
        sock = self._idle_connection() if reuse else None
        if sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self._connect_timeout
            )
            sock.settimeout(self._read_timeout)
        try:
            self._bump("bytes_sent", protocol.write_frame(sock, frame))
            framed = protocol.read_frame(sock)
            if framed is None:
                raise ProtocolError(
                    f"daemon at {self.address} closed the connection without responding"
                )
            message, bytes_received = framed
            self._bump("bytes_received", bytes_received)
            self._bump("requests")
            if message.get("request_id") != rid:
                raise ProtocolError(
                    f"daemon at {self.address} answered request "
                    f"{message.get('request_id')!r}, expected {rid!r}"
                )
        except BaseException:
            sock.close()
            raise
        self._idle.append(sock)
        if message.get("status") != "ok":
            error_payload = message.get("payload", {})
            raise RemoteOpError(
                op,
                self.address,
                str(error_payload.get("error", "ReproError")),
                str(error_payload.get("message", "")),
            )
        return message["payload"]

    def _idle_connection(self) -> socket.socket | None:
        """The most recently used idle connection still open, or ``None``.

        Idle connections the daemon has closed are closed and dropped on
        the way (the stale-connection rule of the module docstring).
        """
        while True:
            try:
                sock = self._idle.pop()
            except IndexError:
                return None
            if _quiet(sock):
                return sock
            sock.close()

    # ------------------------------------------------------------------
    # op conveniences
    # ------------------------------------------------------------------
    def ping(self, *, echo: Any = None) -> dict[str, Any]:
        """Health-check the daemon."""
        return self.request("ping", {"echo": echo})

    def solve_lane(
        self,
        graph_key: str,
        fingerprint: str,
        entries: list[tuple[int, dict[str, Any]]],
        *,
        graph: dict[str, Any] | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Solve one lane: ``entries`` are ``(plan_index, spec)`` pairs.

        ``graph`` is the wire document from :func:`~repro.net.protocol.
        graph_to_wire`; it may be omitted when the daemon has received the
        graph before, since it keeps received graphs (in a resident session
        or its kept-graph LRU).  A daemon holding neither answers with a
        :class:`RemoteOpError` whose ``remote_type`` is
        ``"GraphNotResidentError"``; resend with the graph.  ``deadline_ms``
        is the lane's remaining budget: the daemon enforces it across the
        lane's entries and answers entries it had no budget left for with
        anytime payloads.
        """
        payload: dict[str, Any] = {
            "graph_key": graph_key,
            "fingerprint": fingerprint,
            "entries": [[index, spec] for index, spec in entries],
            "graph": graph,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        return self.request("solve", payload)

    def inventory(self) -> dict[str, Any]:
        """The daemon's counters and its store shard's inventory."""
        return self.request("inventory", {})

    def drain(self, *, grace_s: float | None = None) -> dict[str, Any]:
        """Ask the daemon to drain: finish in-flight work, flush, exit cleanly.

        ``grace_s`` goes out as given, so the daemon's check, not a
        conversion here, decides what it accepts.
        """
        return self.request("drain", {} if grace_s is None else {"grace_s": grace_s})


class ShardClientPool:
    """One :class:`ShardClient` per daemon of a shard set.

    The pool is the executor-facing surface: ``client_for(shard)`` maps a
    shard index to its host's client, and :meth:`aggregate_stats` sums the
    transport counters across hosts for ``BatchReport.executor_stats``.  A
    ``None`` host is a vacant slot — a local daemon that never reported its
    port — whose ``client_for`` is ``None``.
    """

    def __init__(self, hosts: list[str | None], **client_options: Any) -> None:
        if not hosts:
            raise ConfigError("ShardClientPool requires at least one host")
        self._clients = [
            ShardClient(host, **client_options) if host is not None else None for host in hosts
        ]

    def __len__(self) -> int:
        return len(self._clients)

    @property
    def addresses(self) -> list[str | None]:
        """``host:port`` per pool slot (``None`` when vacant), in shard order."""
        return [client.address if client else None for client in self._clients]

    def client_for(self, shard: int) -> ShardClient | None:
        """The client owning shard index ``shard`` (``None`` for a vacant slot)."""
        return self._clients[shard % len(self._clients)]

    def aggregate_stats(self) -> dict[str, int]:
        """Transport and breaker counters summed across every client in the pool."""
        totals: dict[str, int] = {}
        for client in filter(None, self._clients):
            for key, value in client.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def close(self) -> None:
        """Close the idle connections of every client in the pool."""
        for client in filter(None, self._clients):
            client.close()

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per host address (not summable, hence separate)."""
        return {client.address: client.breaker.state for client in filter(None, self._clients)}
