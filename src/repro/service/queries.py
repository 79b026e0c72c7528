"""The batch query vocabulary: JSON query objects against one session.

This module owns the mapping from a JSON batch entry — ``{"query":
"densest", "method": "core-exact"}`` and friends — onto
:class:`~repro.session.DDSSession` calls and JSON-ready payloads.  It began
life inside the CLI's ``batch`` sub-command and moved here when the service
tier (:mod:`repro.service.planner` / :mod:`repro.service.executor`) started
executing the same entries concurrently: both the CLI and the executor now
speak exactly this vocabulary, so a query file means the same thing served
by one session or by a pool of them.

Malformed entries raise :class:`~repro.exceptions.BatchQueryError` (a
:class:`~repro.exceptions.ReproError`), never ``SystemExit`` — rendering
errors for humans is the CLI's job, not the service tier's.

Query kinds
-----------
``densest``      one :meth:`DDSSession.densest_subgraph` call
``top-k``        greedy edge-disjoint pairs via :meth:`DDSSession.top_k`
``xy-core``      a specific [x, y]-core
``max-core``     the maximum-product core
``fixed-ratio``  bracket the fixed-ratio surrogate optimum
``summary``      structural statistics of the session graph

Every entry may carry ``"dataset": <registered name>`` to address a graph
other than the batch's default — the hook the executor's per-graph session
pool is built on.

A *lane* — one graph's entries, in order, on one session — is served by
:func:`run_lane`, the one loop behind the executor's threads, its worker
processes and the shard daemon.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable

from repro.core.results import DDSResult
from repro.exceptions import BatchQueryError, DeadlineExceeded
from repro.runtime import Deadline
from repro.service.store import SessionStore
from repro.session import DDSSession
from repro.utils.timer import time_call

#: The query kinds understood by :func:`run_batch_query`, in documentation order.
BATCH_QUERY_KINDS = ("densest", "top-k", "xy-core", "max-core", "fixed-ratio", "summary")

#: Per-entry fields consumed by the service tier itself (graph routing),
#: stripped before a query spec reaches the session.
RESERVED_FIELDS = ("dataset",)

#: Payload keys that legitimately vary with execution order: instrumentation
#: counters whose values depend on what earlier queries left in the caches.
#: Everything else in a payload is the *answer* and must be bit-identical
#: under any permutation of the batch (pinned by the planner property test).
VOLATILE_PAYLOAD_KEYS = frozenset({"flow_calls", "networks_built"})


def payload_answer(payload: Any) -> Any:
    """The order-invariant part of a batch payload.

    Drops :data:`VOLATILE_PAYLOAD_KEYS` (recursively) so permuted
    executions of the same batch can be compared for
    bit-identical *answers* without tripping over cache instrumentation.
    """
    if isinstance(payload, dict):
        return {
            key: payload_answer(value)
            for key, value in payload.items()
            if key not in VOLATILE_PAYLOAD_KEYS
        }
    if isinstance(payload, list):
        return [payload_answer(item) for item in payload]
    return payload


def find_payload(result: DDSResult, show_nodes: bool) -> dict[str, Any]:
    """JSON-ready payload of one densest-subgraph answer (CLI ``find`` shape)."""
    payload = {
        "method": result.method,
        "density": result.density,
        "edge_count": result.edge_count,
        "s_size": result.s_size,
        "t_size": result.t_size,
        "is_exact": result.is_exact,
    }
    if "flow_solver" in result.stats:
        payload["flow_solver"] = result.stats["flow_solver"]
    if show_nodes:
        payload["s_nodes"] = [str(node) for node in result.s_nodes]
        payload["t_nodes"] = [str(node) for node in result.t_nodes]
    return payload


def topk_payload(results: list[DDSResult]) -> list[dict[str, Any]]:
    """JSON-ready payload of a top-k answer list (CLI ``top-k`` shape)."""
    return [
        {
            "rank": rank,
            "density": result.density,
            "edge_count": result.edge_count,
            "s_size": result.s_size,
            "t_size": result.t_size,
        }
        for rank, result in enumerate(results, start=1)
    ]


def core_payload(
    session: DDSSession, x: int | None, y: int | None, show_nodes: bool
) -> dict[str, Any]:
    """JSON-ready payload of an [x, y]-core (or, with ``x is None``, the max core)."""
    if x is not None and y is not None:
        core = session.xy_core(x, y)
    else:
        core = session.max_xy_core()
    payload = {
        "x": core.x,
        "y": core.y,
        "s_size": len(core.s_nodes),
        "t_size": len(core.t_nodes),
        "empty": core.is_empty,
    }
    if show_nodes:
        graph = session.graph
        payload["s_nodes"] = [str(graph.label_of(i)) for i in core.s_nodes]
        payload["t_nodes"] = [str(graph.label_of(i)) for i in core.t_nodes]
    return payload


def _pop_required(spec: dict[str, Any], key: str, query: str) -> Any:
    """Pop ``key`` from a query spec, failing loudly when it is missing."""
    if key not in spec:
        raise BatchQueryError(f"batch query {query!r} requires a {key!r} field")
    return spec.pop(key)


def _as_number(value: Any, key: str, query: str, optional: bool = False) -> float | None:
    """Coerce a spec field to a finite ``float``.

    Bools are rejected rather than read as 1.0, and so are NaN and ±inf,
    which ``json.loads`` accepts (``NaN``, ``Infinity``) but no query field
    can use.
    """
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BatchQueryError(
            f"batch query {query!r} field {key!r} must be a number, got {value!r}"
        )
    number = float(value)
    if not math.isfinite(number):
        raise BatchQueryError(
            f"batch query {query!r} field {key!r} must be finite, got {value!r}"
        )
    return number


def _reject_leftovers(spec: dict[str, Any], query: str) -> None:
    """Typo'd or inapplicable fields must error, not silently do nothing."""
    if spec:
        raise BatchQueryError(
            f"batch query {query!r} got unexpected fields: {', '.join(sorted(spec))}"
        )


def _merge_deadline(own: Any, lane: float | None) -> float | None:
    """Combine a query's own budget with the lane-level one (tightest wins)."""
    if own is None:
        return lane
    if lane is None:
        return float(own)
    return min(float(own), lane)


def _inject_deadline(
    session: DDSSession, method: str, spec: dict[str, Any], deadline_ms: float | None
) -> None:
    """Fold a lane-level budget into a densest/top-k spec, tightest-wins.

    Only flow-backed methods run min-cuts and hence have cancellation
    checkpoints; peeling methods finish in linear time, so a lane budget on
    them is a no-op rather than a :class:`ConfigError`.
    """
    if deadline_ms is None:
        return
    resolved, _ = session._resolve_method(method)
    if not resolved.flow_backed:
        return
    spec["deadline_ms"] = _merge_deadline(spec.get("deadline_ms"), deadline_ms)


def deadline_payload(error: DeadlineExceeded) -> dict[str, Any]:
    """JSON-ready payload of a deadline hit: the anytime partial, if any."""
    partial = getattr(error, "partial", None)
    if partial is not None and hasattr(partial, "to_payload"):
        return partial.to_payload()
    return {"deadline_exceeded": True, "is_exact": False}


def run_batch_query(
    session: DDSSession, spec: dict[str, Any], deadline_ms: float | None = None
) -> Any:
    """Execute one batch entry against ``session`` and return its payload.

    ``densest`` / ``top-k`` forward their remaining fields into the typed
    method configs (so unknown fields raise
    :class:`~repro.exceptions.ConfigError`); the other query kinds take a
    fixed field set and reject leftovers explicitly.  Service-tier routing
    fields (:data:`RESERVED_FIELDS`) are stripped first — by the time a spec
    reaches a session, the graph has already been chosen.

    ``deadline_ms`` is the *lane-level* remaining budget the executor or a
    shard daemon grants this entry; it is folded into flow-backed queries
    (tightest of lane budget and the entry's own ``deadline_ms`` wins), and
    a deadline hit is answered as the anytime payload
    (``{"deadline_exceeded": true, ...bounds...}``) instead of an exception
    — one slow entry must not take down the whole batch.
    """
    if not isinstance(spec, dict):
        raise BatchQueryError(f"batch entries must be JSON objects, got: {spec!r}")
    spec = dict(spec)
    for reserved in RESERVED_FIELDS:
        spec.pop(reserved, None)
    query = spec.pop("query", "densest")
    if query == "densest":
        method = spec.pop("method", "auto")
        show_nodes = bool(spec.pop("show_nodes", False))
        _inject_deadline(session, method, spec, deadline_ms)
        try:
            result = session.densest_subgraph(method, **spec)
        except DeadlineExceeded as error:
            return deadline_payload(error)
        return find_payload(result, show_nodes)
    if query == "top-k":
        method = spec.pop("method", "auto")
        k = spec.pop("k", 3)
        min_density = spec.pop("min_density", 0.0)
        _inject_deadline(session, method, spec, deadline_ms)
        try:
            results = session.top_k(k, method=method, min_density=min_density, **spec)
        except DeadlineExceeded as error:
            return deadline_payload(error)
        return topk_payload(results)
    if query == "xy-core":
        x = _pop_required(spec, "x", query)
        y = _pop_required(spec, "y", query)
        show_nodes = bool(spec.pop("show_nodes", False))
        _reject_leftovers(spec, query)
        return core_payload(session, x, y, show_nodes)
    if query == "max-core":
        show_nodes = bool(spec.pop("show_nodes", False))
        _reject_leftovers(spec, query)
        return core_payload(session, None, None, show_nodes)
    if query == "fixed-ratio":
        ratio = _as_number(_pop_required(spec, "ratio", query), "ratio", query)
        tolerance = _as_number(spec.pop("tolerance", None), "tolerance", query, optional=True)
        own_deadline = _as_number(
            spec.pop("deadline_ms", None), "deadline_ms", query, optional=True
        )
        _reject_leftovers(spec, query)
        try:
            outcome = session.fixed_ratio(
                ratio,
                tolerance=tolerance,
                deadline_ms=_merge_deadline(own_deadline, deadline_ms),
            )
        except DeadlineExceeded as error:
            payload = deadline_payload(error)
            outcome = getattr(error, "outcome", None)
            if outcome is not None:
                payload.update(
                    {"ratio": outcome.ratio, "lower": outcome.lower, "upper": outcome.upper}
                )
            return payload
        return {
            "ratio": outcome.ratio,
            "lower": outcome.lower,
            "upper": outcome.upper,
            "best_density": outcome.best_density,
            "flow_calls": outcome.flow_calls,
            "networks_built": outcome.networks_built,
        }
    if query == "summary":
        _reject_leftovers(spec, query)
        return session.summary()
    raise BatchQueryError(
        f"unknown batch query {query!r}; expected one of: {', '.join(BATCH_QUERY_KINDS)}"
    )


def run_lane(
    session: DDSSession,
    entries: Iterable[tuple[int, dict[str, Any]]],
    *,
    deadline: Deadline | None = None,
    store: SessionStore | None = None,
    store_counters: dict[str, int] | None = None,
    before_query: Callable[[int], None] | None = None,
    on_deadline: Callable[[bool], None] | None = None,
    run_query: Callable[..., Any] = run_batch_query,
) -> dict[str, Any]:
    """Answer a lane's ``(index, spec)`` entries in order on one session.

    Each entry gets the budget ``deadline`` still has when it starts
    (:func:`run_batch_query` folds it into the query); an entry the budget
    has no time left for is answered ``{"deadline_exceeded": true,
    "is_exact": false}`` without running.  After the last entry the session
    is saved to ``store`` (when given), its counters added to
    ``store_counters`` (the lane's warm counters, if any).

    ``before_query(index)`` runs before each entry (the process pool's
    fault-injection hook); ``on_deadline(rejected)`` runs once per entry
    answered as a deadline hit — ``True`` when the budget was spent before
    the entry started, ``False`` when the query itself ran out.
    ``run_query`` answers one entry, with :func:`run_batch_query`'s
    signature.

    Returns the lane message every executor path and the shard daemon
    share: ``{"executions": [{"index", "kind", "seconds", "cpu_seconds",
    "payload"}, ...], "stats": session.cache_stats(), "store": {...}}``.
    ``seconds`` is an entry's wall time and ``cpu_seconds`` the CPU time of
    the thread that ran it (``time.thread_time``), which leaves out the time
    the entry waited for the GIL while other lanes or daemons ran.
    """
    rows: list[dict[str, Any]] = []
    for index, spec in entries:
        if before_query is not None:
            before_query(index)
        kind = spec.get("query", "densest")
        remaining = deadline.remaining_ms() if deadline is not None else None
        if remaining is not None and remaining <= 0:
            if on_deadline is not None:
                on_deadline(True)
            payload: Any = {"deadline_exceeded": True, "is_exact": False}
            seconds = cpu_seconds = 0.0
        else:
            cpu_start = time.thread_time()
            payload, seconds = time_call(
                lambda: run_query(session, spec, deadline_ms=remaining)
            )
            cpu_seconds = time.thread_time() - cpu_start
            if (
                on_deadline is not None
                and isinstance(payload, dict)
                and payload.get("deadline_exceeded")
            ):
                on_deadline(False)
        rows.append(
            {
                "index": index,
                "kind": kind,
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "payload": payload,
            }
        )
    counters = dict(store_counters or {})
    if store is not None:
        for key, value in store.save_session(session).items():
            counters[key] = counters.get(key, 0) + value
    return {"executions": rows, "stats": session.cache_stats(), "store": counters}
