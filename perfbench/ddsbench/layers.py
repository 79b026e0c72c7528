"""Which program functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>`` or ``<layer>.<phase>``; a layer's self time is the
summed self time of its spans.  Counters that the program already keeps
(``DDSSession.cache_stats``, ``DDSResult.stats``, ``daemon_stats``, the
remote client's stats) are folded in by :class:`Ledger` as deltas, so only
work done inside traced passes is counted.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any

from repro.session import DDSSession

from ddsbench.tracer import Tracer

#: (module, function names or None for every public function, span name).
FUNCTION_SPANS: tuple[tuple[str, tuple[str, ...] | None, str], ...] = (
    ("repro.core.xycore", ("xy_core", "max_y_for_x", "xy_core_skyline", "max_xy_core"), "core.xycore"),
    ("repro.core.bounds", None, "core.bounds"),
    ("repro.core.approx_peel", ("peel_fixed_ratio", "peel_approx"), "core.approx_peel"),
    ("repro.core.flow_network", ("build_decision_network",), "core.flow_network.build"),
    ("repro.core.fixed_ratio", ("maximize_fixed_ratio", "maximize_fixed_ratio_batch"), "core.fixed_ratio"),
    ("repro.core.density", None, "core.density"),
    ("repro.core.exact_flow", ("flow_exact",), "core.driver"),
    ("repro.core.exact_dc", ("dc_exact",), "core.driver"),
    ("repro.core.exact_core", ("core_exact",), "core.driver"),
    ("repro.core.approx_core", ("core_approx", "inc_approx"), "core.driver"),
    ("repro.incremental.certify", ("certify_result",), "incremental.certify"),
    ("repro.incremental.maintain", None, "incremental.maintain"),
    ("repro.service.planner", ("plan_batch",), "service.planner.plan"),
    ("repro.net.protocol", ("encode_request", "encode_response"), "net.protocol.encode"),
    ("repro.net.protocol", ("decode_message",), "net.protocol.decode"),
    ("repro.net.protocol", ("graph_to_wire", "graph_from_wire"), "net.protocol.graph_wire"),
)

#: (module, class, method names, span name).
METHOD_SPANS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.core.flow_network", "DecisionNetwork", ("retune",), "core.flow_network.retune"),
    ("repro.core.flow_network", "DecisionNetwork", ("extract_pair",), "core.flow_network.extract"),
    ("repro.flow.engine", "FlowEngine", ("min_cut", "min_cut_batch"), "flow.engine.mincut"),
    (
        "repro.session.session",
        "DDSSession",
        ("densest_subgraph", "top_k", "fixed_ratio", "xy_core", "max_xy_core", "summary"),
        "session",
    ),
    ("repro.session.session", "DDSSession", ("apply_updates",), "incremental.apply"),
    ("repro.service.executor", "BatchExecutor", ("execute",), "service.executor"),
    ("repro.service.store", "SessionStore", ("save_session",), "service.store.save"),
    ("repro.service.store", "SessionStore", ("warm_session",), "service.store.warm"),
    ("repro.net.client", "ShardClient", ("request",), "net.client.request"),
    ("repro.net.daemon", "ShardDaemon", ("_serve_request",), "net.daemon.serve"),
)


def _public_functions(module: Any) -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary listed above; undo with ``tracer.restore()``."""
    for module_name, names, span in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        for name in names if names is not None else _public_functions(module):
            tracer.patch_function(module, name, span)
    for module_name, class_name, names, span in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            tracer.patch_method(cls, name, span)


#: ``DDSSession.cache_stats`` counters summed by the ledger.
SESSION_COUNTERS = (
    "queries",
    "result_cache_hits",
    "network_cache_hits",
    "network_cache_misses",
    "flow_calls",
    "networks_built",
    "networks_reused",
    "arcs_pushed",
    "warm_starts_used",
    "backend_selections",
    "batched_solves",
    "deadline_hits",
    "anytime_returns",
    "certified_stale_hits",
    "local_research_runs",
)


class Ledger:
    """Counter deltas gathered while traced passes run.

    Session counters come from ``DDSSession.cache_stats``: every session
    alive when a traced pass starts is snapshotted, every session created
    during it is caught by a hook on ``DDSSession.__init__``, and at the end
    of the pass each one's delta is folded in.
    """

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}
        self._tracked: list[tuple[DDSSession, dict[str, Any] | None]] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def start_pass(self, tracer: Tracer, live: list[DDSSession]) -> None:
        """Snapshot ``live`` and track new sessions until ``tracer.restore()``."""
        tracked = self._tracked = [(session, session.cache_stats()) for session in live]
        original = DDSSession.__init__

        def tracking_init(session: DDSSession, *args: Any, **kwargs: Any) -> None:
            original(session, *args, **kwargs)
            tracked.append((session, None))

        tracer.patch_attr(DDSSession, "__init__", tracking_init)

    def end_pass(self) -> None:
        for session, before in self._tracked:
            self.session(session.cache_stats(), before)
        self._tracked = []

    def session(self, after: dict[str, Any], before: dict[str, Any] | None = None) -> None:
        """Fold one session's ``cache_stats`` delta (``before`` omitted: fresh)."""
        before = before or {}
        for key in SESSION_COUNTERS:
            self.add(key, after.get(key, 0) - before.get(key, 0))
        numpy_before = (before.get("auto_backends") or {}).get("numpy-push-relabel", 0)
        numpy_after = (after.get("auto_backends") or {}).get("numpy-push-relabel", 0)
        self.add("numpy_selections", numpy_after - numpy_before)

    def result(self, stats: dict[str, Any]) -> None:
        """Fold the per-query ``DDSResult.stats`` of an in-process exact answer."""
        if "fixed_ratio_searches" in stats:
            self.add("fixed_ratio_searches", stats["fixed_ratio_searches"])
            self.add("search_flow_calls", stats.get("flow_calls", 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    spans: dict[str, dict[str, float]],
    ledger: Ledger,
    passes: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; counts and seconds are per traced pass."""

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names) / passes

    def calls(*names: str) -> float:
        return sum(spans.get(name, {}).get("calls", 0) for name in names) / passes

    c = ledger.counts.get
    flow_calls = c("flow_calls", 0)
    searches = c("fixed_ratio_searches", 0)
    certified = c("certified_stale_hits", 0)
    metrics = {
        "core.xycore.calls": calls("core.xycore"),
        "core.xycore.self_s": self_s("core.xycore"),
        "core.bounds.self_s": self_s("core.bounds"),
        "core.approx_peel.calls": calls("core.approx_peel"),
        "core.approx_peel.self_s": self_s("core.approx_peel"),
        "core.flow_network.build_calls": calls("core.flow_network.build"),
        "core.flow_network.build_s": self_s("core.flow_network.build"),
        "core.flow_network.retune_calls": calls("core.flow_network.retune"),
        "core.flow_network.retune_s": self_s("core.flow_network.retune"),
        "core.flow_network.extract_s": self_s("core.flow_network.extract"),
        "flow.engine.mincut_calls": calls("flow.engine.mincut"),
        "flow.engine.mincut_s": self_s("flow.engine.mincut"),
        "flow.flow_calls": flow_calls / passes,
        "flow.arcs_pushed": c("arcs_pushed", 0) / passes,
        "flow.warm_start_share": _ratio(c("warm_starts_used", 0), flow_calls),
        "flow.batched_solves": c("batched_solves", 0) / passes,
        "flow.numpy_share": _ratio(c("numpy_selections", 0), c("backend_selections", 0)),
        "flow.networks_built": c("networks_built", 0) / passes,
        "flow.networks_reused": c("networks_reused", 0) / passes,
        "core.fixed_ratio.searches": searches / passes,
        "core.fixed_ratio.self_s": self_s("core.fixed_ratio"),
        "core.fixed_ratio.guesses_per_search": _ratio(c("search_flow_calls", 0), searches),
        "core.density.calls": calls("core.density"),
        "core.density.self_s": self_s("core.density"),
        "core.driver.self_s": self_s("core.driver"),
        "session.self_s": self_s("session"),
        "session.result_cache_hit_ratio": _ratio(c("result_cache_hits", 0), c("queries", 0)),
        "session.network_cache_hit_ratio": _ratio(
            c("network_cache_hits", 0), c("network_cache_hits", 0) + c("network_cache_misses", 0)
        ),
        "incremental.apply_s": self_s("incremental.apply", "incremental.certify", "incremental.maintain"),
        "incremental.certified_share": _ratio(certified, certified + c("local_research_runs", 0)),
        "runtime.deadline_hits": c("deadline_hits", 0) + c("daemon_deadline_hits", 0),
        "runtime.anytime_returns": c("anytime_returns", 0),
        "service.planner.plan_s": self_s("service.planner.plan"),
        "service.executor.self_s": self_s("service.executor"),
        "service.executor.lanes_inline": c("lanes_inline", 0),
        "service.store.save_calls": calls("service.store.save"),
        "service.store.save_s": self_s("service.store.save"),
        "service.store.warm_calls": calls("service.store.warm"),
        "service.store.warm_s": self_s("service.store.warm"),
        "service.store.bytes": c("store_bytes", 0),
        "net.protocol.encode_s": self_s("net.protocol.encode"),
        "net.protocol.decode_s": self_s("net.protocol.decode"),
        "net.protocol.graph_wire_s": self_s("net.protocol.graph_wire"),
        "net.client.request_s": self_s("net.client.request"),
        "net.client.bytes_sent": c("bytes_sent", 0) / passes,
        "net.client.bytes_received": c("bytes_received", 0) / passes,
        "net.client.retries": c("retries", 0),
        "net.daemon.self_s": self_s("net.daemon.serve"),
        "net.daemon.session_hit_ratio": _ratio(
            c("session_cache_hits", 0), c("session_cache_hits", 0) + c("session_cache_misses", 0)
        ),
        "net.daemon.sessions_evicted": c("sessions_evicted", 0) / passes,
        "net.daemon.wait_s": c("wait_s", 0.0) / passes,
    }
    metrics.update(extra)
    return metrics
