"""``ShardClient``: the calling side of the frame protocol, with retries.

A client is deliberately connectionless at the request granularity: every
request opens a fresh TCP connection, sends one frame, reads one frame,
and closes.  That makes the retry ladder trivial to reason about — a
retry can never be poisoned by a half-written frame on a reused socket —
and matches the batch executor's lane granularity, where a lane is one
solve request and amortising connection setup would save microseconds
against solves measured in milliseconds.

The retry ladder is the batch executor's crash containment, for local
and remote daemons alike: a *transport* failure (connect refused, timeout,
reset, damaged frame — a killed daemon's connections close with it) is
retried on a fresh connection up to ``max_retries`` times with bounded
exponential backoff plus jitter, after which
:class:`~repro.exceptions.NetError` is raised and the executor falls back
to solving the lane inline.  A
*semantic* failure — the daemon answered, but with ``status="error"`` —
is raised immediately as :class:`RemoteOpError` and never retried: the
daemon is healthy and re-asking the same malformed question would get the
same answer.  The one exception is the batch executor's, one level up: a
solve sent by fingerprint alone that meets a
:class:`~repro.exceptions.GraphNotResidentError` is asked again once, with
the graph document.

:class:`ShardClientPool` holds one client per daemon of a shard set and
aggregates their counters; the executor drives it with the fingerprint
:class:`~repro.service.planner.ShardMap`, so each graph's requests always
land on the daemon that owns its store shard.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any

from repro.exceptions import ConfigError, NetError, ProtocolError
from repro.net import protocol

#: Default cap on a single backoff sleep, in seconds.
DEFAULT_BACKOFF_MAX = 2.0

#: Default base of the exponential backoff schedule, in seconds.
DEFAULT_BACKOFF_BASE = 0.05

#: Consecutive exhausted retry ladders that open a host's circuit breaker.
#: One is the right default: an exhausted ladder already represents
#: ``max_retries + 1`` fresh-connection failures in a row.
DEFAULT_BREAKER_THRESHOLD = 1

#: Seconds an open breaker waits before letting one half-open probe through.
DEFAULT_BREAKER_COOLDOWN = 5.0


def parse_host_port(text: str, *, default_port: int | None = None) -> tuple[str, int]:
    """Parse ``"host:port"`` (or bare ``"host"`` with a default) to a pair.

    Raises :class:`~repro.exceptions.ConfigError` on anything else;
    bracketed IPv6 literals are not supported by this tier.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"expected 'host:port', got {text!r}")
    text = text.strip()
    if ":" not in text:
        if default_port is None:
            raise ConfigError(f"expected 'host:port', got {text!r}")
        return text, default_port
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
    """Per-host health gate: closed → open on failures, half-open probe after cooldown.

    The breaker watches whole retry *ladders*, not individual connection
    attempts: :meth:`record_failure` means the client exhausted
    ``max_retries + 1`` fresh connections against the host.  After
    ``failure_threshold`` consecutive exhausted ladders the breaker opens
    and :meth:`admit` fails fast (no socket is touched) until ``cooldown_s``
    has elapsed on the monotonic clock; then exactly one request is admitted
    as the *half-open probe* — its success recloses the breaker, its failure
    re-opens it for another cooldown.  Concurrent requests during the probe
    keep failing fast, so a dead host absorbs at most one ladder per
    cooldown period.

    ``clock`` is injectable (monotonic by contract — wall-clock jumps must
    not re-admit a dead host early or pin a healthy one open).
    """

    #: The three classic states; ``state`` is always one of these.
    STATES = ("closed", "open", "half-open")

    def __init__(
        self,
        *,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_s: float = DEFAULT_BREAKER_COOLDOWN,
        clock=time.monotonic,
    ) -> None:
        if not isinstance(failure_threshold, int) or failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be an int >= 1, got {failure_threshold!r}"
            )
        if not cooldown_s > 0:
            raise ConfigError(f"cooldown_s must be > 0, got {cooldown_s!r}")
        self._threshold = failure_threshold
        self._cooldown = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
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
            if self.state == "open" and (
                self._opened_at is None
                or self._clock() - self._opened_at >= self._cooldown
            ):
                self.state = "half-open"
                self._counters["breaker_half_open_probes"] += 1
                return
            self._counters["breaker_fast_failures"] += 1
            raise CircuitOpenError(address, self.state)

    def record_success(self) -> None:
        """The admitted request reached the daemon: reclose if not closed."""
        with self._lock:
            self._consecutive_failures = 0
            if self.state != "closed":
                self.state = "closed"
                self._opened_at = None
                self._counters["breaker_reclosures"] += 1

    def record_failure(self) -> None:
        """An admitted request exhausted its ladder: open (or re-open)."""
        with self._lock:
            self._consecutive_failures += 1
            if self.state == "half-open" or (
                self.state == "closed" and self._consecutive_failures >= self._threshold
            ):
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
        attempts in total) — the batch executor's ``max_retries``.
    backoff_base / backoff_max:
        The bounded exponential schedule: attempt ``n`` sleeps
        ``min(backoff_max, backoff_base * 2**n)`` scaled by jitter in
        ``[0.5, 1.0]``.
    rng:
        Jitter source (a ``random.Random``); injectable for deterministic
        tests.
    breaker:
        The per-host :class:`CircuitBreaker` guarding this client; a default
        one when omitted.  Pass an instance to set its threshold and
        cooldown, or to inject a deterministic clock in tests.
    """

    def __init__(
        self,
        host: str,
        port: int | None = None,
        *,
        connect_timeout: float = 5.0,
        read_timeout: float | None = 60.0,
        max_retries: int = 2,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        rng: random.Random | None = None,
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
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._rng = rng if rng is not None else random.Random()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # Lanes of the remote executor share one client per host, so the
        # counters take a lock; the sockets themselves are per-request.
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

    def backoff_delay(self, attempt: int) -> float:
        """The jittered sleep before retry ``attempt`` (0-based)."""
        ceiling = min(self._backoff_max, self._backoff_base * (2**attempt))
        return ceiling * (0.5 + 0.5 * self._rng.random())

    # ------------------------------------------------------------------
    # the retry ladder
    # ------------------------------------------------------------------
    def request(
        self, op: str, payload: dict[str, Any], *, request_id: str | None = None
    ) -> dict[str, Any]:
        """Send one request, retrying transport failures on fresh connections.

        Returns the response payload of an ``"ok"`` answer.  The frame is
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
                return self._request_once(op, rid, frame)
            except RemoteOpError:
                raise
            except (ProtocolError, OSError) as error:
                last_error = error
        self._bump("failures")
        raise NetError(
            f"{op} to {self.address} failed after {self._max_retries + 1} attempts "
            f"on fresh connections: {last_error}"
        )

    def _request_once(self, op: str, rid: str, frame: bytes) -> dict[str, Any]:
        """One attempt: fresh connection, the encoded ``frame`` out, one frame back."""
        with socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout
        ) as sock:
            sock.settimeout(self._read_timeout)
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
        if message.get("status") != "ok":
            error_payload = message.get("payload", {})
            raise RemoteOpError(
                op,
                self.address,
                str(error_payload.get("error", "ReproError")),
                str(error_payload.get("message", "")),
            )
        return message["payload"]

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

    def warm(
        self,
        graph: dict[str, Any],
        *,
        methods: list[str] | None = None,
        max_core: bool = False,
    ) -> dict[str, Any]:
        """Push a graph and precompute warm state on the daemon."""
        return self.request(
            "warm",
            {"graph": graph, "methods": list(methods or []), "max_core": max_core},
        )

    def inventory(self) -> dict[str, Any]:
        """The daemon's counters and its store shard's inventory."""
        return self.request("inventory", {})

    def shutdown_daemon(self) -> dict[str, Any]:
        """Ask the daemon to stop serving after acknowledging."""
        return self.request("shutdown", {})

    def drain(self, *, grace_s: float | None = None) -> dict[str, Any]:
        """Ask the daemon to drain: finish in-flight work, flush, exit cleanly."""
        payload: dict[str, Any] = {}
        if grace_s is not None:
            payload["grace_s"] = float(grace_s)
        return self.request("drain", payload)


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

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per host address (not summable, hence separate)."""
        return {client.address: client.breaker.state for client in filter(None, self._clients)}
