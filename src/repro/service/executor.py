"""Concurrent batch executor: a pool of graph-affine sessions serving a plan.

The executor turns a :class:`~repro.service.planner.BatchPlan` into results.
Its unit of concurrency is the planner's *lane* — all queries for one graph,
in plan order.  Each lane gets its own :class:`~repro.session.DDSSession`
and runs sequentially on one worker; distinct lanes run concurrently.
Sessions are therefore **graph-affine**: no session, and none of its caches
(results, cores, derived state), is ever touched by two workers, so the
session layer needs no locks.

Three pool flavours share that lane contract:

* **Threads** (the default): cheap, in-process, but GIL-bound — lanes are
  pure-Python compute, so thread concurrency buys isolation and scheduling
  rather than parallel speed-up (four thread lanes ran a four-graph batch
  only 1.03× faster than one lane on a 2-CPU VM).
* **Processes** (``process_pool=True``): the scale-out path.  The parent
  routes lanes to workers by content fingerprint
  (:class:`~repro.service.planner.ShardMap` — each worker owns its graphs'
  store shard), starts every worker of the round, and then sends each one
  the ``DiGraph``s of its lanes, pickled as flat CSR arrays, over its own
  duplex pipe.  A worker checks each graph against the fingerprint its lane
  was routed by, builds its sessions as a thread lane does, and streams
  schema-2 result dicts back over the same pipe.  Per-worker pipes plus
  ``Process.sentinel`` waiting make crash detection deadlock-free: a
  SIGKILLed worker can never strand the batch the way a shared queue's
  poisoned write lock would.  Crashed or poisoned lanes are retried on
  fresh workers up to ``max_retries`` times, then fall back to an inline
  (serial) run; lanes that needed any of that are marked *degraded* in the
  report's timings.
* **Remote daemons** (``remote_hosts=[...]``): the cross-machine path.
  Lanes are routed to :class:`~repro.net.daemon.ShardDaemon` processes by
  the same fingerprint :class:`~repro.service.planner.ShardMap` the
  process pool uses — each graph's answers live on exactly one daemon,
  which owns that graph's store shard and keeps its session resident
  between batches.  A graph crosses the wire as a JSON document
  (:func:`~repro.net.protocol.graph_to_wire`) once per executor and
  daemon: the executor remembers which graphs it has shipped to which
  host and sends later lanes for them by fingerprint alone, and the daemon
  keeps the graphs it receives.  A daemon that no longer holds the graph
  answers :class:`~repro.exceptions.GraphNotResidentError`, and the lane
  is resent once with the document (``graph_resends``).  Answers come back
  as the same schema-2 result dicts the process workers pipe home, and a
  session's warm state never crosses at all.  A
  daemon that stays unreachable through the client's retry/backoff ladder
  costs only its lanes: they fall back to solving inline, marked degraded,
  with the failure counted in ``executor_stats["remote_failures"]``.

With a :class:`~repro.service.store.SessionStore` attached, each lane warms
its session from disk before the first query and persists the session's
state after the last one — the full compute-once/serve-everywhere loop.
Process workers open the same store root themselves; the fingerprint
routing gives each worker sole ownership of its graphs' rows within a run,
and the store's SQLite transactions keep concurrent executors safe on top.

All three serve a lane through :func:`~repro.service.queries.run_lane`.

Instrumentation: every query is individually timed, each lane's
:meth:`~repro.session.DDSSession.cache_stats` snapshot is kept, and the
report aggregates them into the payload ``dds-repro batch`` prints.  Process
runs additionally fill :attr:`BatchReport.executor_stats` with the worker
lifecycle counters (``workers_spawned``, ``worker_crashes``,
``worker_retries``, ``degraded_lanes``).
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from repro.core.config import FlowConfig, strip_solver_name
from repro.exceptions import BatchQueryError, ConfigError, GraphNotResidentError, NetError
from repro.runtime import Deadline
from repro.graph.digraph import DiGraph
from repro.service.planner import BatchPlan, PlannedQuery, ShardMap
from repro.service.queries import run_lane
from repro.service.store import SessionStore
from repro.session import DDSSession
from repro.session.session import DEFAULT_RESULT_CACHE_SIZE

#: Source of graphs for lane sessions: a mapping or a ``key -> DiGraph`` callable.
GraphProvider = Callable[[str], DiGraph]

#: Fault kinds the chaos hook understands (see ``fault_injection``).
FAULT_KINDS = ("sigkill", "error")

#: Budget (ms) a remote lane sends once its own has run out: the daemon
#: rejects a non-positive budget, but expires this one at once.
_SPENT_BUDGET_MS = 1e-3


@dataclass
class QueryExecution:
    """One executed query: where it ran, what it returned, how long it took.

    ``seconds`` is the query's wall time and ``cpu_seconds`` the CPU time
    of the thread that answered it, wherever that ran (0.0 for a row that
    does not carry it).  ``worker`` is the process-pool worker id — or
    remote shard index — that produced the result (``None`` on the
    thread/serial paths and for inline fallbacks), ``attempts`` counts how
    many times the owning lane was dispatched, and ``degraded`` marks lanes
    that needed a retry or an inline fallback.
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
        is nondeterministic — process pools especially so.  Sorting makes
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
        process-pool worker or a daemon served the query and
        ``degraded``/``attempts`` when the owning lane needed a retry or an
        inline fallback.
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
        remote batch the CPU is the daemons' (see :meth:`timings`), so this
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


def _inject_fault(fault: Mapping[str, Any] | None, graph_key: str, index: int) -> None:
    """Trigger the chaos hook when this query is its target (worker side)."""
    if not fault or fault.get("graph_key") != graph_key:
        return
    target = fault.get("index")
    if target is not None and target != index:
        return
    if fault.get("kind") == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise BatchQueryError(f"injected fault on lane {graph_key!r} query {index}")


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


def _process_worker_main(conn: Any, assignment: dict[str, Any]) -> None:
    """Entry point of one pool worker process.

    First reads the ``{graph_key: DiGraph}`` dict of its lanes' graphs from
    ``conn`` (the parent sends it once every worker of the round has
    started).  Then serves every lane in ``assignment`` sequentially: check
    the graph against the fingerprint the lane was routed by, build a
    session, warm it from the store shard this worker owns, answer the
    lane's entries through :func:`~repro.service.queries.run_lane` (which
    saves back), and send the lane message — plain dicts, nothing
    process-local — up the pipe.  A lane that raises is reported as
    ``("lane-error", ...)`` and the worker moves on; lifecycle messages are
    ``("lane", ...)`` per finished lane and one ``("done", worker_id)``
    before a clean exit.  The parent detects anything harsher through the
    process sentinel.
    """
    # Keep whatever a forked worker inherited out of its collections: a
    # full collection walks every object and so copies the parent's heap
    # page by page.  Receiving two of the large-tier graphs took a forked
    # worker 200-260 ms with that walk and 45-90 ms without (2-CPU VM).
    gc.freeze()
    store_root = assignment.get("store_root")
    fault = assignment.get("fault")
    deadline_ms = assignment.get("deadline_ms")
    try:
        graphs = conn.recv()
        store = SessionStore(store_root) if store_root is not None else None
        for lane in assignment["lanes"]:
            graph_key = lane["graph_key"]
            try:
                graph = graphs[graph_key]
                if graph.content_fingerprint() != lane["fingerprint"]:
                    raise BatchQueryError(
                        f"lane {graph_key!r} received a graph whose fingerprint does not "
                        "match the one it was routed by"
                    )
                session = DDSSession(
                    graph,
                    flow=assignment.get("flow"),
                    result_cache_size=assignment["result_cache_size"],
                )
                warm = store.warm_session(session) if store is not None else {}
                message = run_lane(
                    session,
                    lane["entries"],
                    deadline=Deadline(deadline_ms) if deadline_ms is not None else None,
                    store=store,
                    store_counters=warm,
                    before_query=partial(_inject_fault, fault, graph_key),
                )
                conn.send(("lane", graph_key, message))
            except Exception as error:  # noqa: BLE001 - forwarded to the parent
                conn.send(("lane-error", graph_key, type(error).__name__, str(error)))
        conn.send(("done", assignment["worker_id"]))
    except (EOFError, OSError):  # pragma: no cover - parent went away
        pass
    finally:
        conn.close()


class _WorkerHandle:
    """Parent-side bookkeeping for one live pool worker."""

    __slots__ = ("worker_id", "process", "conn", "lane_keys", "handled", "eof")

    def __init__(self, worker_id: int, process: Any, conn: Any, lane_keys: list[str]) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.lane_keys = lane_keys
        #: lanes this worker has reported (result or error) — anything else
        #: at exit time was lost to a crash.
        self.handled: set[str] = set()
        self.eof = False


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
        Session-wide :class:`~repro.core.config.FlowConfig` applied to every
        lane session (a solver name selects nothing:
        :func:`~repro.core.config.strip_solver_name`).
    result_cache_size:
        Result-cache capacity of each lane session.
    max_workers:
        Pool width (threads or processes); defaults to one worker per lane.
        On the thread path a single-lane batch executes inline on the
        calling thread.
    store:
        Optional :class:`~repro.service.store.SessionStore`; when given,
        lanes warm from it before their first query and save back afterwards.
    process_pool:
        Run lanes in worker *processes*, each sent its lanes' graphs over
        its pipe (the GIL-free scale-out path; see the module docstring).
    remote_hosts:
        Route lanes to :class:`~repro.net.daemon.ShardDaemon` addresses
        (``["host:port", ...]``) by fingerprint shard instead of running
        them locally — the cross-machine path; see the module docstring.
        Mutually exclusive with ``process_pool``.
    max_retries:
        Process-pool only: how many times a lane lost to a worker crash or
        error is re-dispatched on a fresh worker before the executor falls
        back to running it inline.  ``0`` retries straight to inline.  On
        the remote path the same number caps each request's
        fresh-connection retries before its lane falls back inline.
    mp_start_method:
        Process-pool only: override the multiprocessing start method
        (defaults to ``fork`` where available, else ``spawn``).  Both hand
        graphs over the same pipe, so answers do not depend on it.
    fault_injection:
        Chaos/test hook: ``{"graph_key": ..., "index": ..., "kind":
        "sigkill" | "error", "times": N}`` makes the first ``N`` workers
        dispatched with the target lane fail at the matching query, so the
        crash-recovery ladder is deterministically testable.  Never triggers
        on the inline fallback path.
    deadline_ms:
        Per-*lane* wall-clock budget.  Each lane arms a fresh monotonic
        :class:`~repro.runtime.Deadline` and every query receives the
        budget still remaining when it starts; a query the budget has no
        time left for is answered ``{"deadline_exceeded": true}`` without
        running.  On the remote path the budget ships in the solve request
        and the daemon enforces it (queueing and decode spend it too); a
        lane resent with its graph carries what is left of it, while an
        inline fallback lane re-arms a fresh budget, since the remote
        attempt consumed the original one.  Deadline hits are counted in
        ``executor_stats["deadline_hit_queries"]``.
    """

    def __init__(
        self,
        graphs: GraphProvider | Mapping[str, DiGraph],
        *,
        flow: FlowConfig | str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        max_workers: int | None = None,
        store: SessionStore | None = None,
        process_pool: bool = False,
        remote_hosts: list[str] | None = None,
        max_retries: int = 1,
        mp_start_method: str | None = None,
        fault_injection: Mapping[str, Any] | None = None,
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
        if mp_start_method is not None and mp_start_method not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                f"unknown start method {mp_start_method!r}; this platform offers "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        if fault_injection is not None:
            fault_injection = dict(fault_injection)
            if fault_injection.get("kind") not in FAULT_KINDS:
                raise ConfigError(
                    f"fault_injection kind must be one of {FAULT_KINDS}, "
                    f"got {fault_injection.get('kind')!r}"
                )
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
        self._flow = strip_solver_name(flow)
        self._result_cache_size = result_cache_size
        self._max_workers = max_workers
        self._store = store
        self._process_pool = bool(process_pool)
        self._remote_hosts = remote_hosts
        self._max_retries = max_retries
        self._mp_start_method = mp_start_method
        self._fault = fault_injection
        if deadline_ms is not None:
            # Deadline's own validation rejects non-positive/non-finite
            # budgets; constructing one here fails fast at configure time.
            Deadline(deadline_ms)
            deadline_ms = float(deadline_ms)
        self._deadline_ms = deadline_ms
        # Remote path: the fingerprints shipped to each host address, so a
        # later lane for the same graph goes out without its document.  Read
        # and written under ``_lane_lock``, which also guards each remote
        # run's stats.
        self._shipped: dict[str, set[str]] = {}
        self._lane_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _run_lane(
        self, graph_key: str, lane: list[PlannedQuery]
    ) -> tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]:
        """One worker's whole job: session up, warm, serve the lane, save."""
        session = DDSSession(
            self._provider(graph_key),
            flow=self._flow,
            result_cache_size=self._result_cache_size,
        )
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

    def _fan_out(self, run: Callable[[str], Any], keys: list[str]) -> list[Any]:
        """``run(key)`` for every key, in order: inline for one, else on a thread pool."""
        if len(keys) == 1:
            return [run(keys[0])]
        with ThreadPoolExecutor(max_workers=self._width(len(keys))) as pool:
            futures = [pool.submit(run, key) for key in keys]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # process-pool path
    # ------------------------------------------------------------------
    def _resolve_start_method(self) -> str:
        """The configured start method, defaulting to fork-where-possible."""
        if self._mp_start_method is not None:
            return self._mp_start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"

    def _spawn_worker(
        self,
        ctx: Any,
        worker_id: int,
        lane_keys: list[str],
        lanes: dict[str, list[PlannedQuery]],
        fingerprints: dict[str, str],
        fault: Mapping[str, Any] | None,
    ) -> _WorkerHandle:
        """Start one worker process serving ``lane_keys`` and return its handle.

        The assignment carries no graph: the worker waits for its graphs on
        the pipe (see :func:`_process_worker_main`).
        """
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        assignment = {
            "worker_id": worker_id,
            "lanes": [
                {
                    "graph_key": key,
                    "fingerprint": fingerprints[key],
                    "entries": [(entry.index, entry.spec) for entry in lanes[key]],
                }
                for key in lane_keys
            ],
            "flow": self._flow,
            "result_cache_size": self._result_cache_size,
            "store_root": str(self._store.root) if self._store is not None else None,
            "fault": dict(fault) if fault else None,
            "deadline_ms": self._deadline_ms,
        }
        process = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, assignment),
            name=f"dds-batch-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns the other end now
        return _WorkerHandle(worker_id, process, parent_conn, list(lane_keys))

    def _execute_process_pool(
        self, lanes: dict[str, list[PlannedQuery]]
    ) -> tuple[list[tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]], dict[str, Any]]:
        """Run every lane in worker processes; returns (outcomes, executor stats).

        Every worker of a round is started before any graph is sent, so the
        workers start up in parallel while the parent pickles graphs into
        their pipes one after another; a worker re-dispatched for a retry
        gets its graph right after it starts.  A worker that died before
        reading its graphs makes that send fail; its sentinel then reports
        the crash like any other.

        The event loop multiplexes per-worker pipes *and* process sentinels
        through :func:`multiprocessing.connection.wait`, so both clean
        results and abrupt deaths wake it — there is no shared queue whose
        internal lock a dying worker could poison.  Lanes lost to a crash
        or reported as errors are re-dispatched on fresh workers while
        their retry budget lasts, then run inline; the first genuinely
        failing inline lane aborts the batch (after all workers drain) with
        its original error, matching the thread path's semantics.
        """
        from multiprocessing import connection as mp_connection

        ctx = multiprocessing.get_context(self._resolve_start_method())
        graphs = {key: self._provider(key) for key in lanes}
        fingerprints = {key: graph.content_fingerprint() for key, graph in graphs.items()}
        # Worker slots are anonymous here, so empty shards collapse away:
        # a width-4 pool with two colliding fingerprints still gets two
        # workers, and ``workers_spawned`` counts real lanes, not slots.
        shards = ShardMap(self._width(len(lanes))).assign(fingerprints, collapse=True)
        stats: dict[str, Any] = {
            "mode": "process-pool",
            "start_method": self._resolve_start_method(),
            "shards": len(shards),
            "workers_spawned": 0,
            "worker_crashes": 0,
            "worker_retries": 0,
            "degraded_lanes": [],
        }
        results: dict[str, tuple[list[QueryExecution], dict[str, Any], dict[str, int]]] = {}
        attempts = {key: 0 for key in lanes}
        degraded: set[str] = set()
        fault = dict(self._fault) if self._fault else None
        fault_budget = int(fault.get("times", 1)) if fault else 0
        first_error: Exception | None = None
        active: dict[int, _WorkerHandle] = {}
        next_worker_id = 0

        def take_fault(lane_keys: list[str]) -> Mapping[str, Any] | None:
            """Attach the chaos fault to this dispatch if budget remains."""
            nonlocal fault_budget
            if fault is None or fault_budget <= 0:
                return None
            if fault.get("graph_key") not in lane_keys:
                return None
            fault_budget -= 1
            return fault

        def dispatch(lane_keys: list[str]) -> _WorkerHandle:
            """Spawn a fresh worker for ``lane_keys`` and track it."""
            nonlocal next_worker_id
            worker_id = next_worker_id
            next_worker_id += 1
            for key in lane_keys:
                attempts[key] += 1
            handle = self._spawn_worker(
                ctx, worker_id, lane_keys, lanes, fingerprints, take_fault(lane_keys)
            )
            active[worker_id] = handle
            stats["workers_spawned"] += 1
            return handle

        def send_graphs(handle: _WorkerHandle) -> None:
            """Hand a started worker the graphs of its lanes."""
            try:
                handle.conn.send({key: graphs[key] for key in handle.lane_keys})
            except OSError:
                pass  # it died before reading them: its sentinel reports the crash

        def lane_failed(graph_key: str) -> None:
            """Retry a lost lane on a fresh worker, or run it inline."""
            nonlocal first_error
            degraded.add(graph_key)
            if attempts[graph_key] <= self._max_retries:
                stats["worker_retries"] += 1
                send_graphs(dispatch([graph_key]))
                return
            attempts[graph_key] += 1
            try:
                _, executions, session_stats, store_counters = self._run_lane(
                    graph_key, lanes[graph_key]
                )
            except Exception as error:  # noqa: BLE001 - re-raised after drain
                if first_error is None:
                    first_error = error
                return
            results[graph_key] = (executions, session_stats, store_counters)

        def drain(handle: _WorkerHandle) -> None:
            """Consume every buffered message from one worker's pipe."""
            while not handle.eof:
                try:
                    if not handle.conn.poll():
                        return
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    handle.eof = True
                    return
                kind = message[0]
                if kind == "lane":
                    _, graph_key, payload = message
                    handle.handled.add(graph_key)
                    results[graph_key] = (
                        _executions(graph_key, payload["executions"], handle.worker_id),
                        payload["stats"],
                        payload["store"],
                    )
                elif kind == "lane-error":
                    _, graph_key, _, _ = message
                    handle.handled.add(graph_key)
                    lane_failed(graph_key)
                # "done" needs no action: the sentinel drives reaping.

        try:
            for handle in [dispatch(lane_keys) for _, lane_keys in sorted(shards.items())]:
                send_graphs(handle)
            while active:
                waitables: list[Any] = []
                by_waitable: dict[Any, _WorkerHandle] = {}
                for handle in active.values():
                    waitables.append(handle.conn)
                    by_waitable[handle.conn] = handle
                    waitables.append(handle.process.sentinel)
                    by_waitable[handle.process.sentinel] = handle
                ready = mp_connection.wait(waitables)
                exited: list[_WorkerHandle] = []
                for waitable in ready:
                    handle = by_waitable[waitable]
                    drain(handle)
                    if waitable == handle.process.sentinel and handle.worker_id in active:
                        exited.append(handle)
                        del active[handle.worker_id]
                for handle in exited:
                    handle.process.join()
                    drain(handle)  # messages can race the sentinel
                    handle.conn.close()
                    lost = [key for key in handle.lane_keys if key not in handle.handled]
                    if lost:
                        stats["worker_crashes"] += 1
                        for key in lost:
                            lane_failed(key)
            if first_error is not None:
                raise first_error
            stats["degraded_lanes"] = sorted(degraded)
            outcomes = []
            for graph_key in lanes:
                executions, session_stats, store_counters = results[graph_key]
                for execution in executions:
                    execution.attempts = attempts[graph_key]
                    execution.degraded = graph_key in degraded
                outcomes.append((graph_key, executions, session_stats, store_counters))
            return outcomes, stats
        finally:
            for handle in active.values():
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover - already torn down
                    pass
                if handle.process.is_alive():
                    handle.process.terminate()
                handle.process.join(timeout=10)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(timeout=10)

    # ------------------------------------------------------------------
    # remote path
    # ------------------------------------------------------------------
    def _execute_remote(
        self, lanes: dict[str, list[PlannedQuery]]
    ) -> tuple[list[tuple[str, list[QueryExecution], dict[str, Any], dict[str, int]]], dict[str, Any]]:
        """Route every lane to its owning daemon; returns (outcomes, stats).

        Shard ownership is pinned by ``ShardMap.shard_of`` over the full
        host list — deliberately *not* collapsed to the distinct
        fingerprints of this batch — so a graph always lands on the same
        daemon across batches and its resident session keeps paying off.
        A lane whose daemon stays unreachable through the client's
        retry/backoff ladder falls back to an inline solve (degraded,
        counted in ``remote_failures``) *and* trips that host's circuit
        breaker — subsequent lanes for the host fast-fail straight to
        inline (``breaker_skipped_lanes``) until a half-open probe
        succeeds.  A lane whose *query* fails remotely is re-run inline so
        the genuine typed error surfaces locally with thread-path
        semantics (first error aborts the batch after every lane drains).
        Graphs with labels that cannot cross the wire losslessly run
        inline too, counted separately.  ``stats["breaker_states"]``
        snapshots each host's breaker after the batch.

        A lane carries its graph document only the first time this executor
        sends that graph to its host (``graphs_shipped`` counts the lanes
        that carried one).  Later lanes go out by fingerprint; the one
        remote failure retried is the daemon's
        :class:`~repro.exceptions.GraphNotResidentError`, answered by one
        resend with the document and the lane's remaining budget
        (``graph_resends``) — no inline fallback, no ``remote_failures``.
        """
        from repro.net import protocol as net_protocol
        from repro.net.client import CircuitOpenError, RemoteOpError, ShardClientPool

        assert self._remote_hosts is not None
        graphs = {key: self._provider(key) for key in lanes}
        fingerprints = {key: graph.content_fingerprint() for key, graph in graphs.items()}
        shard_map = ShardMap(len(self._remote_hosts))
        pool = ShardClientPool(self._remote_hosts, max_retries=self._max_retries)
        # Ship this executor's flow configuration with every solve so a
        # daemon building the session applies what the inline fallback (and
        # any local reference run) would.
        flow_doc = dataclasses.asdict(self._flow) if self._flow is not None else None
        stats: dict[str, Any] = {
            "mode": "remote",
            "hosts": list(pool.addresses),
            "shards": shard_map.num_shards,
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
            """Solve one lane locally after the remote path gave up on it."""
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
            shard = shard_map.shard_of(fingerprint)
            client = pool.client_for(shard)
            entries = [(entry.index, entry.spec) for entry in lanes[graph_key]]
            lane_deadline = Deadline(self._deadline_ms) if self._deadline_ms is not None else None

            def solve(wire: dict[str, Any] | None) -> dict[str, Any]:
                """One solve request for this lane, with what is left of its budget."""
                if wire is not None:
                    with lock:
                        stats["graphs_shipped"] += 1
                budget = None
                if lane_deadline is not None:
                    # A spent budget still ships as a positive one, so the
                    # daemon answers the entries as deadline hits instead of
                    # rejecting the request.
                    budget = max(lane_deadline.remaining_ms(), _SPENT_BUDGET_MS)
                return client.solve_lane(
                    graph_key, fingerprint, entries, graph=wire, flow=flow_doc, deadline_ms=budget
                )

            with lock:
                shipped = fingerprint in self._shipped.get(client.address, ())
            wire = None
            if not shipped:
                try:
                    wire = net_protocol.graph_to_wire(graphs[graph_key])
                except NetError:
                    with lock:
                        stats["unwirable_lanes"] += 1
                    return inline(graph_key, remote_attempted=False)
            try:
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
            except NetError:
                with lock:
                    stats["remote_failures"] += 1
                return inline(graph_key, remote_attempted=True)
            executions = _executions(graph_key, payload["executions"], shard)
            with lock:
                stats["lanes_remote"] += 1
                self._shipped.setdefault(client.address, set()).add(fingerprint)
            return graph_key, executions, payload["stats"], payload.get("store") or {}

        collected = self._fan_out(run, list(lanes))
        if first_error is not None:
            raise first_error
        stats["degraded_lanes"] = sorted(degraded)
        stats["client"] = pool.aggregate_stats()
        stats["breaker_states"] = pool.breaker_states()
        return [outcome for outcome in collected if outcome is not None], stats

    # ------------------------------------------------------------------
    def execute(self, plan: BatchPlan) -> BatchReport:
        """Execute ``plan`` and return its :class:`BatchReport`.

        Lanes run concurrently; queries within a lane run in plan order on
        the lane's session.  The first failing query aborts the batch: its
        error is re-raised here after every already-running lane has
        finished (lanes are independent, so letting them drain keeps the
        store consistent).  With ``process_pool=True`` lanes run in worker
        processes.
        """
        lanes = plan.lanes
        if not lanes:
            return BatchReport(executions=[], session_stats={})
        executor_stats: dict[str, Any] = {}
        if self._remote_hosts is not None:
            outcomes, executor_stats = self._execute_remote(lanes)
            return self._assemble(outcomes, executor_stats)
        if self._process_pool:
            outcomes, executor_stats = self._execute_process_pool(lanes)
            return self._assemble(outcomes, executor_stats)
        outcomes = self._fan_out(lambda key: self._run_lane(key, lanes[key]), list(lanes))
        return self._assemble(outcomes, executor_stats)

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
