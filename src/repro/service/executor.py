"""Concurrent batch executor: a pool of graph-affine sessions serving a plan.

The executor turns a :class:`~repro.service.planner.BatchPlan` into results.
Its unit of concurrency is the planner's *lane* — all queries for one graph,
in plan order.  Each lane gets its own :class:`~repro.session.DDSSession`
and runs sequentially on one worker; distinct lanes run concurrently.
Sessions are therefore **graph-affine**: no session, and none of its caches
(results, cores, derived state), is ever touched by two workers, so the
session layer needs no locks.

Lanes run in one of two places:

* **Threads** (the default): cheap, in-process, but GIL-bound — lanes are
  pure-Python compute, so thread concurrency buys isolation and scheduling
  rather than parallel speed-up (four thread lanes ran a four-graph batch
  only 1.03× faster than one lane on a 2-CPU VM).
* **Shard daemons**, the one scale-out path.  Lanes are routed to
  :class:`~repro.net.daemon.ShardDaemon` processes by content fingerprint
  (:class:`~repro.service.planner.ShardMap`): each graph's answers live on
  exactly one daemon, which owns that graph's store shard.  A graph crosses
  as a CSR index document (:func:`~repro.net.protocol.graph_to_wire`) and
  answers come back as the schema-2 result dicts a thread lane produces; a
  session's warm state never crosses at all.  The daemons are either

  - **remote** (``remote_hosts=[...]``), the cross-machine path: ownership
    is pinned by :meth:`ShardMap.shard_of
    <repro.service.planner.ShardMap.shard_of>` over the host list, so a
    graph lands on the same daemon across batches and its resident session
    keeps paying off.  The executor remembers which graphs it has shipped
    to which host and sends later lanes for them by fingerprint alone; a
    daemon that no longer holds the graph answers
    :class:`~repro.exceptions.GraphNotResidentError`, and the lane is
    resent once with the document (``graph_resends``); or
  - **local** (``process_pool=True``), the single-machine path: lanes are
    routed to at most ``max_workers`` slots by
    :meth:`ShardMap.assign(collapse=True)
    <repro.service.planner.ShardMap.assign>`, one daemon per non-empty slot
    is started in a child process for this batch only (``fork`` where the
    platform has it, else ``spawn``), and each daemon's lanes run one after
    another, so a batch never has two lanes on one daemon while another
    idles.  Every child is stopped and joined before
    :meth:`BatchExecutor.execute` returns or raises.

  Both share crash containment: a transport failure is retried on fresh
  connections up to ``max_retries`` times (the client's ladder), after
  which the lane runs inline, marked degraded, with the failure counted in
  ``executor_stats["remote_failures"]``, and the host's circuit breaker
  sends its other lanes inline without a connection until a half-open
  probe succeeds.  A killed local daemon's sockets close with it, so its
  lanes fail over at once; local lanes have no read timeout, so a long
  lane is answered once, never resent and re-run.

With a :class:`~repro.service.store.SessionStore` attached, each lane warms
its session from disk before the first query and persists the session's
state after the last one — the full compute-once/serve-everywhere loop.
Local daemons open the same store root themselves; the fingerprint routing
gives each daemon sole ownership of its graphs' rows within a run, and the
store's SQLite transactions keep concurrent executors safe on top.

Every path serves a lane through :func:`~repro.service.queries.run_lane`.

Instrumentation: every query is individually timed, each lane's
:meth:`~repro.session.DDSSession.cache_stats` snapshot is kept, and the
report aggregates them into the payload ``dds-repro batch`` prints.  Daemon
runs additionally fill :attr:`BatchReport.executor_stats` (``mode``,
``hosts``, ``lanes_remote``, ``lanes_inline``, ``remote_failures``,
``degraded_lanes``, the client's transport counters, ...).
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.core.config import strip_solver_name
from repro.exceptions import (
    BatchQueryError,
    ConfigError,
    GraphNotResidentError,
    NetError,
    ProtocolError,
)
from repro.runtime import Deadline
from repro.graph.digraph import DiGraph
from repro.service.planner import BatchPlan, PlannedQuery, ShardMap
from repro.service.queries import run_lane
from repro.service.store import SessionStore
from repro.session import DDSSession
from repro.session.session import DEFAULT_RESULT_CACHE_SIZE

#: Source of graphs for lane sessions: a mapping or a ``key -> DiGraph`` callable.
GraphProvider = Callable[[str], DiGraph]

#: Budget (ms) a remote lane sends once its own has run out: the daemon
#: rejects a non-positive budget, but expires this one at once.
_SPENT_BUDGET_MS = 1e-3


@dataclass
class QueryExecution:
    """One executed query: where it ran, what it returned, how long it took.

    ``seconds`` is the query's wall time and ``cpu_seconds`` the CPU time
    of the thread that answered it, wherever that ran (0.0 for a row that
    does not carry it).  ``worker`` is the index of the daemon — local, or
    remote shard — that produced the result (``None`` on the thread/serial
    paths and for inline fallbacks), ``attempts`` counts how many times the
    owning lane was dispatched, and ``degraded`` marks lanes that ran
    inline after the daemon path gave up on them.
    """

    index: int
    graph_key: str
    kind: str
    seconds: float
    payload: Any
    worker: int | None = None
    attempts: int = 1
    degraded: bool = False
    cpu_seconds: float = 0.0


@dataclass
class BatchReport:
    """Everything a batch run produced, in both input and execution order."""

    executions: list[QueryExecution]
    session_stats: dict[str, dict[str, Any]]
    store_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    executor_stats: dict[str, Any] = field(default_factory=dict)

    def results_in_input_order(self) -> list[Any]:
        """Query payloads re-assembled in the order of the input file."""
        return [execution.payload for execution in sorted(self.executions, key=lambda e: e.index)]

    def aggregate_stats(self) -> dict[str, Any]:
        """Session cache counters summed across every lane.

        Keys match :meth:`DDSSession.cache_stats
        <repro.session.DDSSession.cache_stats>`, so single-session consumers
        (the CLI's historical ``"session"`` payload block) read the
        aggregate exactly like one session's counters.

        The merge iterates lanes (and counters within a lane) in sorted
        order, **not** completion order: float summation is not
        associative-commutative at the bit level, and pool completion order
        is nondeterministic — across daemons especially so.  Sorting makes
        the aggregate a pure function of the per-lane snapshots, pinned by
        the determinism test in ``tests/test_service_procpool.py``.
        """
        totals: dict[str, Any] = {}
        for _, stats in sorted(self.session_stats.items()):
            for key, value in sorted(stats.items()):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))

    def timings(self) -> list[dict[str, Any]]:
        """Per-query timing rows in execution order (for ``--explain``).

        Every row has ``index``, ``graph``, ``query``, wall ``seconds`` and
        thread ``cpu_seconds``; a daemon row's wall time also counts GIL and
        queue waits, its CPU time does not.  Rows gain ``worker`` when a
        daemon served the query and ``degraded``/``attempts`` when the
        owning lane ran inline after the daemon path gave up on it.
        """
        rows: list[dict[str, Any]] = []
        for execution in self.executions:
            row: dict[str, Any] = {
                "index": execution.index,
                "graph": execution.graph_key,
                "query": execution.kind,
                "seconds": round(execution.seconds, 6),
                "cpu_seconds": round(execution.cpu_seconds, 6),
            }
            if execution.worker is not None:
                row["worker"] = execution.worker
            if execution.degraded:
                row["degraded"] = True
                row["attempts"] = execution.attempts
            rows.append(row)
        return rows

    def cpu_by_kind(self) -> dict[str, dict[str, Any]]:
        """Query count and thread CPU per query kind, summed over :meth:`timings`.

        ``{kind: {"queries", "cpu_seconds"}}``, kinds in sorted order.  On a
        daemon batch the CPU is the daemons' (see :meth:`timings`), so this
        is the daemon CPU split by query kind.
        """
        totals: dict[str, dict[str, Any]] = {}
        for row in self.timings():
            kind = totals.setdefault(row["query"], {"queries": 0, "cpu_seconds": 0.0})
            kind["queries"] += 1
            kind["cpu_seconds"] += row["cpu_seconds"]
        return {
            kind: {"queries": total["queries"], "cpu_seconds": round(total["cpu_seconds"], 6)}
            for kind, total in sorted(totals.items())
        }


def _executions(
    graph_key: str, rows: list[dict[str, Any]], worker: int | None = None
) -> list[QueryExecution]:
    """One lane message's execution rows as :class:`QueryExecution` records."""
    return [
        QueryExecution(
            index=row["index"],
            graph_key=graph_key,
            kind=row["kind"],
            seconds=row["seconds"],
            cpu_seconds=row.get("cpu_seconds", 0.0),
            payload=row["payload"],
            worker=worker,
        )
        for row in rows
    ]


def _start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _serve_local_shard(conn: Any, store_root: str | None, result_cache_size: int) -> None:
    """Entry point of one local shard daemon's child process.

    Starts a :class:`~repro.net.daemon.ShardDaemon` on an ephemeral
    loopback port over the store at ``store_root`` (none when ``None``),
    reports the port over ``conn``, and serves until the parent's stop word
    — or the end of the pipe, when the parent is gone — arrives on it; the
    daemon then shuts down, flushing its sessions to the store.
    """
    # Keep whatever a forked child inherited out of its collections: a
    # full collection walks every object and so copies the parent's heap
    # page by page.  Receiving two of the large-tier graphs took a forked
    # worker 200-260 ms with that walk and 45-90 ms without (2-CPU VM).
    gc.freeze()
    from repro.net.daemon import ShardDaemon

    daemon = ShardDaemon(store_root, result_cache_size=result_cache_size)
    try:
        conn.send(daemon.start()[1])
        conn.recv()
    except (EOFError, OSError):
        pass
    finally:
        daemon.shutdown()
        conn.close()


@contextmanager
def _local_daemons(
    count: int, store_root: str | None, result_cache_size: int
) -> Iterator[list[str | None]]:
    """Start ``count`` local shard daemons and yield their ``host:port`` addresses.

    Every child starts before any port is read, so they come up in
    parallel.  A child that dies before reporting its port yields ``None``
    in its slot.  On exit every child is sent its stop word and joined —
    killed if it has not stopped within 10 seconds — whatever happened in
    the block.
    """
    ctx = multiprocessing.get_context(_start_method())
    children: list[tuple[Any, Any]] = []
    try:
        for index in range(count):
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_serve_local_shard,
                args=(child_conn, store_root, result_cache_size),
                name=f"dds-local-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # the child owns the other end now
            children.append((process, conn))
        addresses: list[str | None] = []
        for _, conn in children:
            try:
                addresses.append(f"127.0.0.1:{conn.recv()}")
            except EOFError:
                addresses.append(None)
        yield addresses
    finally:
        for _, conn in children:
            try:
                conn.send(None)
            except OSError:
                pass  # that child is gone already
            conn.close()
        for process, _ in children:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=10)


class BatchExecutor:
    """Run batch plans over a pool of per-graph sessions.

    Parameters
    ----------
    graphs:
        Where lane sessions get their graphs: a mapping ``graph_key ->
        DiGraph`` or a callable performing the lookup (e.g. the dataset
        registry's ``load_dataset``).  An unknown key raises
        :class:`~repro.exceptions.BatchQueryError` naming the lane.
    flow:
        A solver name, ``"auto"`` or ``"dinic"``, kept for callers that
        still pass one; it selects nothing
        (:func:`~repro.core.config.strip_solver_name`).
    result_cache_size:
        Result-cache capacity of each lane session, local daemons' included.
    max_workers:
        Pool width: threads, or local daemons; defaults to one per lane.
        On the thread path a single-lane batch executes inline on the
        calling thread.
    store:
        Optional :class:`~repro.service.store.SessionStore`; when given,
        lanes warm from it before their first query and save back afterwards.
    process_pool:
        Run lanes on shard daemons started in local child processes for
        each batch (the GIL-free scale-out path; see the module docstring).
    remote_hosts:
        Route lanes to :class:`~repro.net.daemon.ShardDaemon` addresses
        (``["host:port", ...]``) by fingerprint shard instead of running
        them locally — the cross-machine path; see the module docstring.
        Mutually exclusive with ``process_pool``.
    max_retries:
        How many fresh-connection retries a request to a daemon, local or
        remote, earns on a transport failure before its lane falls back to
        running inline.  ``0`` falls back after the first failure.
    deadline_ms:
        Per-*lane* wall-clock budget.  Each lane arms a fresh monotonic
        :class:`~repro.runtime.Deadline` and every query receives the
        budget still remaining when it starts; a query the budget has no
        time left for is answered ``{"deadline_exceeded": true}`` without
        running.  On a daemon the budget ships in the solve request and the
        daemon enforces it (queueing and decode spend it too); a lane
        resent with its graph carries what is left of it, while an inline
        fallback lane re-arms a fresh budget, since the daemon attempt
        consumed the original one.  Deadline hits are counted in
        ``executor_stats["deadline_hit_queries"]``.
    """

    def __init__(
        self,
        graphs: GraphProvider | Mapping[str, DiGraph],
        *,
        flow: str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        max_workers: int | None = None,
        store: SessionStore | None = None,
        process_pool: bool = False,
        remote_hosts: list[str] | None = None,
        max_retries: int = 1,
        deadline_ms: float | None = None,
    ) -> None:
        if isinstance(graphs, Mapping):
            table = dict(graphs)

            def provider(key: str) -> DiGraph:
                """Mapping-backed lookup with a batch-flavoured error."""
                try:
                    return table[key]
                except KeyError:
                    raise BatchQueryError(f"batch references unknown graph {key!r}")

            self._provider: GraphProvider = provider
        else:
            self._provider = graphs
        if max_workers is not None and (not isinstance(max_workers, int) or max_workers < 1):
            raise ConfigError(f"max_workers must be a positive int or None, got {max_workers!r}")
        if not isinstance(max_retries, int) or max_retries < 0:
            raise ConfigError(f"max_retries must be a non-negative int, got {max_retries!r}")
        if remote_hosts is not None:
            if process_pool:
                raise ConfigError("remote_hosts and process_pool are mutually exclusive")
            from repro.net.client import parse_host_port

            remote_hosts = [host for host in remote_hosts if str(host).strip()]
            if not remote_hosts:
                raise ConfigError("remote_hosts must name at least one 'host:port'")
            remote_hosts = [
                "%s:%d" % parse_host_port(str(host)) for host in remote_hosts
            ]
        strip_solver_name(flow)
        self._result_cache_size = result_cache_size
        self._max_workers = max_workers
        self._store = store
        self._process_pool = bool(process_pool)
        self._remote_hosts = remote_hosts
        self._max_retries = max_retries
        if deadline_ms is not None:
            # Deadline's own validation rejects non-positive/non-finite
            # budgets; constructing one here fails fast at configure time.
            Deadline(deadline_ms)
            deadline_ms = float(deadline_ms)
        self._deadline_ms = deadline_ms
        # Remote path: the fingerprints shipped to each host address, so a
        # later lane for the same graph goes out without its document.  Read
        # and written under ``_lane_lock``, which also guards each daemon
        # run's stats.
        self._shipped: dict[str, set[str]] = {}
        self._lane_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _run_lane(
        self, graph_key: str, lane: list[PlannedQuery]
    ) -> tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]:
        """One worker's whole job: session up, warm, serve the lane, save."""
        session = DDSSession(self._provider(graph_key), result_cache_size=self._result_cache_size)
        warm = self._store.warm_session(session) if self._store is not None else {}
        message = run_lane(
            session,
            [(entry.index, entry.spec) for entry in lane],
            deadline=Deadline(self._deadline_ms) if self._deadline_ms is not None else None,
            store=self._store,
            store_counters=warm,
        )
        executions = _executions(graph_key, message["executions"])
        return graph_key, executions, message["stats"], message["store"]

    def _width(self, lanes: int) -> int:
        """Pool width for ``lanes`` lanes: ``max_workers``, capped at one per lane."""
        return min(lanes, self._max_workers if self._max_workers is not None else lanes)

    def _fan_out(self, run: Callable[[str], Any], groups: list[list[str]]) -> list[Any]:
        """``run(key)`` for every key, each group's keys in turn on one thread.

        Results come back group by group, in order; a single group runs
        inline on the calling thread.
        """
        if len(groups) == 1:
            return [run(key) for key in groups[0]]
        with ThreadPoolExecutor(max_workers=self._width(len(groups))) as pool:
            futures = [pool.submit(lambda keys: [run(key) for key in keys], keys) for keys in groups]
            return [outcome for future in futures for outcome in future.result()]

    # ------------------------------------------------------------------
    # the daemon path
    # ------------------------------------------------------------------
    def _execute_remote(
        self, lanes: dict[str, list[PlannedQuery]]
    ) -> tuple[list[tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]], dict[str, Any]]:
        """Route every lane to its owning daemon; returns (outcomes, stats).

        Remote shard ownership is pinned by ``ShardMap.shard_of`` over the
        full host list — deliberately *not* collapsed to the distinct
        fingerprints of this batch — so a graph always lands on the same
        daemon across batches and its resident session keeps paying off.
        Local daemons live for this batch only, so their slots are
        anonymous: ``ShardMap.assign(collapse=True)`` spreads colliding
        fingerprints over idle slots, one daemon is started per non-empty
        slot, each daemon's lanes run one after another on one thread, and
        the clients wait as long as a lane takes.

        A lane whose daemon stays unreachable through the client's
        retry/backoff ladder — or a local daemon that never reported its
        port — falls back to an inline solve (degraded, counted in
        ``remote_failures``) *and* trips that host's circuit breaker —
        subsequent lanes for the host fast-fail straight to inline
        (``breaker_skipped_lanes``) until a half-open probe succeeds.  A
        lane whose *query* fails on the daemon is re-run inline so the
        genuine typed error surfaces locally with thread-path semantics
        (first error aborts the batch after every lane drains).  Graphs with
        labels that cannot cross the wire losslessly, or whose solve
        request would exceed the frame cap, run inline once, counted in
        ``unwirable_lanes``.  ``stats["breaker_states"]`` snapshots each
        host's breaker after the batch.

        A lane carries its graph document only the first time this executor
        sends that graph to its host (``graphs_shipped`` counts the lanes
        answered with one).  Later lanes go out by fingerprint; the one
        daemon failure retried is
        :class:`~repro.exceptions.GraphNotResidentError`, answered by one
        resend with the document and the lane's remaining budget
        (``graph_resends``) — no inline fallback, no ``remote_failures``.
        """
        from repro.net import protocol as net_protocol
        from repro.net.client import CircuitOpenError, RemoteOpError, ShardClientPool

        graphs = {key: self._provider(key) for key in lanes}
        fingerprints = {key: graph.content_fingerprint() for key, graph in graphs.items()}
        local = self._remote_hosts is None
        if local:
            shards = ShardMap(self._width(len(lanes))).assign(fingerprints, collapse=True)
            groups = [keys for _, keys in sorted(shards.items())]
            slots = {key: slot for slot, keys in enumerate(groups) for key in keys}
            daemons = _local_daemons(
                len(groups),
                str(self._store.root) if self._store is not None else None,
                self._result_cache_size,
            )
            shipped: dict[str, set[str]] = {}
        else:
            shard_map = ShardMap(len(self._remote_hosts))
            groups = [[key] for key in lanes]
            slots = {key: shard_map.shard_of(fingerprints[key]) for key in lanes}
            daemons = nullcontext(self._remote_hosts)
            shipped = self._shipped
        stats: dict[str, Any] = {
            "mode": "process-pool" if local else "remote",
            "hosts": [],
            "shards": 0,
            "lanes_remote": 0,
            "lanes_inline": 0,
            "remote_failures": 0,
            "breaker_skipped_lanes": 0,
            "unwirable_lanes": 0,
            "graphs_shipped": 0,
            "graph_resends": 0,
            "degraded_lanes": [],
        }
        degraded: set[str] = set()
        first_error: Exception | None = None
        lock = self._lane_lock

        def inline(
            graph_key: str, *, remote_attempted: bool
        ) -> tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]] | None:
            """Solve one lane locally after the daemon path gave up on it."""
            nonlocal first_error
            with lock:
                stats["lanes_inline"] += 1
                degraded.add(graph_key)
            try:
                outcome = self._run_lane(graph_key, lanes[graph_key])
            except Exception as error:  # noqa: BLE001 - re-raised after drain
                with lock:
                    if first_error is None:
                        first_error = error
                return None
            for execution in outcome[1]:
                execution.degraded = True
                execution.attempts = 2 if remote_attempted else 1
            return outcome

        def run(
            graph_key: str,
        ) -> tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]] | None:
            """One lane: ask its daemon (with the graph unless already shipped there), else inline."""
            fingerprint = fingerprints[graph_key]
            slot = slots[graph_key]
            client = pool.client_for(slot)
            if client is None:
                with lock:
                    stats["remote_failures"] += 1
                return inline(graph_key, remote_attempted=True)
            entries = [(entry.index, entry.spec) for entry in lanes[graph_key]]
            lane_deadline = Deadline(self._deadline_ms) if self._deadline_ms is not None else None

            def solve(wire: dict[str, Any] | None) -> dict[str, Any]:
                """One solve request for this lane, with what is left of its budget."""
                budget = None
                if lane_deadline is not None:
                    # A spent budget still ships as a positive one, so the
                    # daemon answers the entries as deadline hits instead of
                    # rejecting the request.
                    budget = max(lane_deadline.remaining_ms(), _SPENT_BUDGET_MS)
                payload = client.solve_lane(
                    graph_key, fingerprint, entries, graph=wire, deadline_ms=budget
                )
                if wire is not None:
                    with lock:
                        stats["graphs_shipped"] += 1
                return payload

            with lock:
                already_shipped = fingerprint in shipped.get(client.address, ())
            try:
                wire = None if already_shipped else net_protocol.graph_to_wire(graphs[graph_key])
                try:
                    payload = solve(wire)
                except RemoteOpError as error:
                    if wire is not None or error.remote_type != GraphNotResidentError.__name__:
                        raise
                    # The daemon no longer holds the graph this executor
                    # shipped: resend once, with the document.
                    with lock:
                        stats["graph_resends"] += 1
                    payload = solve(net_protocol.graph_to_wire(graphs[graph_key]))
            except RemoteOpError:
                # The daemon is healthy but the lane failed for a genuine
                # (typed) reason: re-run inline so the original exception
                # reproduces locally and aborts the batch like a thread
                # lane's would.
                return inline(graph_key, remote_attempted=True)
            except CircuitOpenError:
                # The host's breaker is open: no connection was even
                # attempted, so this lane routes inline immediately instead
                # of burning a retry ladder against a known-dead daemon.
                with lock:
                    stats["breaker_skipped_lanes"] += 1
                return inline(graph_key, remote_attempted=True)
            except ProtocolError:
                # The request never left: its labels do not survive JSON or
                # its frame would exceed MAX_FRAME_BYTES (the client encodes
                # before any socket or breaker is touched).
                with lock:
                    stats["unwirable_lanes"] += 1
                return inline(graph_key, remote_attempted=False)
            except NetError:
                with lock:
                    stats["remote_failures"] += 1
                return inline(graph_key, remote_attempted=True)
            executions = _executions(graph_key, payload["executions"], slot)
            with lock:
                stats["lanes_remote"] += 1
                shipped.setdefault(client.address, set()).add(fingerprint)
            return graph_key, executions, payload["stats"], payload.get("store") or {}

        with daemons as hosts:
            # A killed local daemon's sockets close with it, so its clients
            # need no read timeout: a lane that runs long is answered once,
            # never resent and then re-run inline.
            pool = ShardClientPool(
                hosts, max_retries=self._max_retries, **({"read_timeout": None} if local else {})
            )
            stats["hosts"], stats["shards"] = list(hosts), len(hosts)
            collected = {outcome[0]: outcome for outcome in self._fan_out(run, groups) if outcome}
        if first_error is not None:
            raise first_error
        stats["degraded_lanes"] = sorted(degraded)
        stats["client"] = pool.aggregate_stats()
        stats["breaker_states"] = pool.breaker_states()
        return [collected[key] for key in lanes if key in collected], stats

    # ------------------------------------------------------------------
    def execute(self, plan: BatchPlan) -> BatchReport:
        """Execute ``plan`` and return its :class:`BatchReport`.

        Lanes run concurrently; queries within a lane run in plan order on
        the lane's session.  The first failing query aborts the batch: its
        error is re-raised here after every already-running lane has
        finished (lanes are independent, so letting them drain keeps the
        store consistent).  With ``process_pool=True`` or ``remote_hosts``
        lanes run on shard daemons; local ones are all stopped before this
        returns or raises.
        """
        lanes = plan.lanes
        if not lanes:
            return BatchReport(executions=[], session_stats={})
        if self._remote_hosts is not None or self._process_pool:
            return self._assemble(*self._execute_remote(lanes))
        outcomes = self._fan_out(lambda key: self._run_lane(key, lanes[key]), [[key] for key in lanes])
        return self._assemble(outcomes, {})

    def _assemble(
        self,
        outcomes: list[tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]],
        executor_stats: dict[str, Any],
    ) -> BatchReport:
        """Fold per-lane outcomes (in lane order) into a :class:`BatchReport`."""
        executions: list[QueryExecution] = []
        session_stats: dict[str, dict[str, Any]] = {}
        store_stats: dict[str, dict[str, int]] = {}
        # ``outcomes`` is collected in lane order and each lane is already
        # sequential, so ``executions`` ends up in plan order.
        for graph_key, lane_executions, stats, store_counters in outcomes:
            executions.extend(lane_executions)
            session_stats[graph_key] = stats
            if store_counters:
                store_stats[graph_key] = store_counters
        if self._deadline_ms is not None:
            executor_stats = dict(executor_stats)
            executor_stats["deadline_ms"] = self._deadline_ms
            executor_stats["deadline_hit_queries"] = sum(
                1
                for execution in executions
                if isinstance(execution.payload, dict)
                and execution.payload.get("deadline_exceeded")
            )
        return BatchReport(
            executions=executions,
            session_stats=session_stats,
            store_stats=store_stats,
            executor_stats=executor_stats,
        )
