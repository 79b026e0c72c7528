"""The session-oriented public API: :class:`DDSSession`.

A session binds to **one graph** and serves many queries over it, paying for
derived state once instead of once per call:

* **degree arrays** and the full :class:`~repro.core.subproblem.STSubproblem`,
* **[x, y]-core decompositions** (:meth:`DDSSession.xy_core`,
  :meth:`DDSSession.max_xy_core`),
* **retunable decision networks** keyed by ``(sub-problem, ratio)`` in a
  shared :class:`~repro.core.network_cache.NetworkCache` — PR 1's retune
  machinery extended across *queries*, not just within one fixed-ratio search,
* **whole results**, keyed by ``(method, config)``, so a repeated query is
  answered without recomputation, and
* one :class:`~repro.flow.engine.FlowEngine` per solver, so flow
  instrumentation accumulates session-wide (see :meth:`cache_stats`).

Method dispatch goes through the declarative registry
(:mod:`repro.core.method_registry`) and every query is validated against the
method's typed config (:mod:`repro.core.config`) before any work starts.

Quickstart
----------
>>> from repro.graph import complete_bipartite_digraph
>>> session = DDSSession(complete_bipartite_digraph(2, 3))
>>> round(session.densest_subgraph("core-exact").density, 4)
2.4495
>>> session.densest_subgraph("core-exact").stats["result_cache_hit"]
True

The legacy one-shot :func:`repro.core.api.densest_subgraph` remains available
as a deprecation shim that constructs a throwaway session per call.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.core.config import ExactConfig, FlowConfig, MethodConfig
from repro.core.density import exactness_tolerance, global_density_upper_bound
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.method_registry import MethodSpec, RunContext, get_method_spec
from repro.core.network_cache import NetworkCache
from repro.core.results import DDSResult, FixedRatioOutcome
from repro.core.subproblem import STSubproblem
from repro.core.xycore import XYCore, max_xy_core, xy_core
from repro.exceptions import (
    AlgorithmError,
    ConfigError,
    DeadlineExceeded,
    EmptyGraphError,
    GraphError,
)
from repro.flow.engine import COUNTERS, FlowEngine
from repro.graph.digraph import DiGraph, NodeLabel
from repro.graph.properties import graph_summary
from repro.incremental.certify import certify_result
from repro.incremental.delta import EdgeDelta, UpdateReport
from repro.incremental.maintain import (
    full_subproblem_token,
    migrate_network_cache,
    patch_degree_arrays,
    refresh_cores,
    seed_cache_from,
)
from repro.runtime import Deadline
from repro.utils.validation import require_positive_int

#: Default capacity of the per-session whole-result LRU cache.
DEFAULT_RESULT_CACHE_SIZE = 128


def _result_key(method: str, cfg: MethodConfig) -> tuple[str, MethodConfig]:
    """Result-cache key of a query: its method and config without a deadline.

    A query that finishes inside its budget is bit-identical to one run
    without a budget, and one that runs out raises instead of being cached,
    so the budget must not split the cache — the executor and the shard
    daemon fold each lane's *remaining* time into ``deadline_ms``, which
    would otherwise make every repeated read a miss and a new entry.
    """
    flow = getattr(cfg, "flow", None)
    if isinstance(flow, FlowConfig) and flow.deadline_ms is not None:
        cfg = replace(cfg, flow=replace(flow, deadline_ms=None))
    return method, cfg


def _copy_result(result: DDSResult) -> DDSResult:
    """Defensive copy so callers can never corrupt a cached result.

    ``stats`` values include mutable containers (``network_nodes`` /
    ``network_arcs`` lists, the ``flow_solver_ignored`` dict), so the copy
    goes one level deep into them.
    """
    stats = {
        key: list(value) if isinstance(value, list) else dict(value) if isinstance(value, dict) else value
        for key, value in result.stats.items()
    }
    return replace(
        result,
        s_nodes=list(result.s_nodes),
        t_nodes=list(result.t_nodes),
        stats=stats,
    )


def _copy_core(core: XYCore) -> XYCore:
    """Defensive copy: the node lists are mutable, the cache must stay pristine."""
    return replace(core, s_nodes=list(core.s_nodes), t_nodes=list(core.t_nodes))


class DDSSession:
    """Stateful densest-subgraph query session over one directed graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.digraph.DiGraph` to serve queries against.
        The session treats it as immutable; mutating it directly afterwards
        raises :class:`~repro.exceptions.GraphError` on the next query.  The
        one sanctioned mutation path is :meth:`apply_updates`, which applies
        an edge delta *through* the session so every cache is patched or
        certified in step with the graph.
    flow:
        Session-wide default :class:`~repro.core.config.FlowConfig` (or a
        bare solver name).  Per-query configs override the solver; a
        per-query ``network_cache_size`` differing from the session's runs
        that query on a private cache of the requested capacity (the shared
        session cache keeps the capacity it was built with).
    result_cache_size:
        Capacity of the whole-result LRU cache (0 disables result caching;
        derived-state and network caching remain active).
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        flow: FlowConfig | str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
    ) -> None:
        if not isinstance(graph, DiGraph):
            raise GraphError(f"DDSSession requires a DiGraph, got {type(graph).__name__}")
        if isinstance(flow, str):
            flow = FlowConfig(solver=flow)
        self.graph = graph
        self.flow = flow if flow is not None else FlowConfig()
        self._graph_token = graph.state_token
        self._network_cache = NetworkCache(self.flow.network_cache_size)
        self._engines: dict[str, FlowEngine] = {}
        self._results: OrderedDict[tuple[str, MethodConfig], DDSResult] = OrderedDict()
        self._result_cache_size = max(int(result_cache_size), 0)
        self._result_cache_hits = 0
        self._queries = 0
        self._subproblem: STSubproblem | None = None
        self._out_degrees: list[int] | None = None
        self._in_degrees: list[int] | None = None
        self._xy_cores: dict[tuple[int, int], XYCore] = {}
        self._max_core: XYCore | None = None
        self._summary: dict[str, Any] | None = None
        self._density_upper: float | None = None
        self._exact_tolerance: float | None = None
        self._warned_ignored_solvers: set[tuple[str, str]] = set()
        self._warned_backend_mismatch = False
        self._updates_applied = 0
        self._certified_stale_hits = 0
        self._local_research_runs = 0
        self._anytime_returns = 0
        self._invalidated_keys: set[tuple[str, MethodConfig]] = set()
        self._lineage: list[str] = []

    @classmethod
    def from_seeded(
        cls,
        graph: DiGraph,
        derived: Mapping[str, Any] | None = None,
        *,
        flow: FlowConfig | str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
    ) -> "DDSSession":
        """Build a session and hydrate it from externally computed state.

        The worker-process entry point of the process-pool executor:
        ``derived`` maps :meth:`seed_derived` keyword names to values — e.g.
        the degree arrays attached from a shared-memory graph segment
        (:func:`repro.service.shm.attach_graph`) — and is adopted before the
        first query, so a freshly spawned worker starts from the same
        derived state the parent already holds instead of recomputing it.
        Values are copied on adoption; passing zero-copy views over a
        mapped segment is safe even if the segment outlives the mapping.
        Seeding follows :meth:`seed_derived`'s validation rules.
        """
        session = cls(graph, flow=flow, result_cache_size=result_cache_size)
        if derived:
            session.seed_derived(**dict(derived))
        return session

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    def _check_unmutated(self) -> None:
        if self.graph.state_token != self._graph_token:
            raise GraphError(
                "the session's graph was structurally mutated after the session was "
                "created; cached state would be stale — create a new DDSSession"
            )

    def _engine_for(self, solver: str) -> FlowEngine:
        engine = self._engines.get(solver)
        if engine is None:
            engine = FlowEngine(solver)
            self._engines[solver] = engine
        return engine

    def _resolve_method(self, method: str) -> tuple[MethodSpec, bool]:
        """Map a method name (or ``"auto"``) to its spec."""
        # Import here (not at module load) so tests monkeypatching
        # ``repro.core.api.AUTO_EXACT_NODE_LIMIT`` keep working and no import
        # cycle forms with the deprecation shim.
        from repro.core import api

        if method == "auto":
            chosen = (
                "core-exact"
                if self.graph.num_nodes <= api.AUTO_EXACT_NODE_LIMIT
                else "core-approx"
            )
            return get_method_spec(chosen), True
        return get_method_spec(method), False

    def _base_config(self, spec: MethodSpec) -> MethodConfig:
        """Method defaults with the session-wide flow config folded in."""
        if issubclass(spec.config_type, ExactConfig):
            # Construct the method's own config type so registered methods
            # with ExactConfig *subclasses* resolve against the right class.
            return spec.config_type(flow=self.flow)
        return spec.config_type()

    def _prepare(
        self, method: str, config: MethodConfig | None, kwargs: dict[str, Any]
    ) -> tuple[MethodSpec, MethodConfig, bool, Any]:
        """Resolve (spec, config, was_auto, ignored) for a query.

        ``ignored`` is ``None``, or the flow solver requested on a method
        that runs no min-cuts.
        """
        spec, was_auto = self._resolve_method(method)
        ignored = None
        if not spec.flow_backed and "flow_solver" in kwargs:
            ignored = kwargs.pop("flow_solver")
        base = self._base_config(spec)
        cfg = spec.config_type.resolve(config if config is not None else base, **kwargs)
        # ``flow`` on a non-flow-backed method keeps the legacy ignore-and-
        # warn behaviour.  User intent is only visible on an *explicitly
        # passed* config: with config=None the session's own default flow is
        # folded into ``base`` (and flow_solver= was popped above), so a
        # non-default cfg.flow there is session policy, not a request.  Only
        # the *solver name* counts as a request — config-only flow changes
        # (e.g. ``network_cache_size``) select no backend, so they must
        # neither warn nor be treated as an ignored solver.
        if (
            not spec.flow_backed
            and ignored is None
            and config is not None
            and hasattr(config, "flow")
            and config.flow.solver != spec.config_type().flow.solver
        ):
            ignored = config.flow.solver
        # Any other knob the method never consults must not silently do
        # nothing: reject it.
        if spec.accepted_fields is not None:
            for config_field in dataclass_fields(cfg):
                name = config_field.name
                if name == "flow" or name in spec.accepted_fields:
                    continue
                if getattr(cfg, name) != getattr(base, name):
                    raise ConfigError(
                        f"method {spec.name!r} does not use config field {name!r} "
                        f"(accepted: {', '.join(sorted(spec.accepted_fields)) or 'none'})"
                    )
        return spec, cfg, was_auto, ignored

    def _execute(
        self,
        spec: MethodSpec,
        cfg: MethodConfig,
        graph: DiGraph,
        network_cache: NetworkCache | None = None,
    ) -> DDSResult:
        """Run one query uncached (used for cache misses and top-k rounds).

        ``network_cache`` overrides the session cache — top-k rounds on
        peeled working copies pass a private cache so networks keyed by
        throwaway graph states never evict the session graph's entries.
        """
        self._queries += 1
        solver = cfg.flow.solver if isinstance(cfg, ExactConfig) else self.flow.solver
        if network_cache is None:
            network_cache = self._network_cache
            if (
                isinstance(cfg, ExactConfig)
                and cfg.flow.network_cache_size != self.flow.network_cache_size
            ):
                # The query asked for a different cache capacity (e.g. 0 to
                # disable caching): honour it with a private cache instead of
                # silently using — or resizing — the shared session cache.
                network_cache = NetworkCache(cfg.flow.network_cache_size)
        engine = self._engine_for(solver)
        context = RunContext(
            engine=engine,
            network_cache=network_cache if spec.flow_backed else None,
        )
        deadline_ms = (
            cfg.flow.deadline_ms if isinstance(cfg, ExactConfig) else self.flow.deadline_ms
        )
        if deadline_ms is None:
            return spec.runner(graph, cfg, context)
        # Arm the per-query budget on the engine — the one object every
        # driver and solver below this call already receives — and always
        # disarm it, so a deadline never leaks into the next query sharing
        # this engine.
        engine.deadline = Deadline(deadline_ms)
        try:
            return spec.runner(graph, cfg, context)
        except DeadlineExceeded:
            self._anytime_returns += 1
            raise
        finally:
            engine.deadline = None

    def _serve(self, spec: MethodSpec, cfg: MethodConfig) -> DDSResult:
        """Answer a whole-graph query through the result cache."""
        key = _result_key(spec.name, cfg)
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self._result_cache_hits += 1
            self._queries += 1
            out = _copy_result(cached)
            out.stats["result_cache_hit"] = True
            return out
        if key in self._invalidated_keys:
            # This exact query was answered before and its entry was
            # invalidated by apply_updates — recomputing it now is the
            # bounded local re-search the certification tier deferred.
            self._invalidated_keys.discard(key)
            self._local_research_runs += 1
        result = self._execute(spec, cfg, self.graph)
        if self._result_cache_size > 0:
            self._results[key] = _copy_result(result)
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
        result.stats["result_cache_hit"] = False
        return result

    def _annotate(
        self, result: DDSResult, spec: MethodSpec, was_auto: bool, ignored: Any
    ) -> DDSResult:
        if was_auto:
            result.stats["auto_selected"] = spec.name
        if ignored is not None:
            result.stats["flow_solver_ignored"] = {
                "flow_solver": ignored,
                "method": spec.name,
            }
            # Deduped on (method, flow_solver), so repeats of the same
            # explicit request stay silent; config-only changes never reach
            # this branch at all (see _prepare).
            warn_key = (spec.name, str(ignored))
            if warn_key not in self._warned_ignored_solvers:
                self._warned_ignored_solvers.add(warn_key)
                warnings.warn(
                    f"method {spec.name!r} performs no min-cuts; "
                    f"flow_solver={ignored!r} is ignored",
                    UserWarning,
                    stacklevel=3,
                )
        small = result.stats.get("small_vector_solves", 0)
        if small:
            # The query forced the vectorised backend onto networks below the
            # auto arc threshold — the one regime BENCH_flow.json shows it
            # losing to dinic in.  Mirror of ``flow_solver_ignored``: stats
            # on every affected result, a UserWarning once per session.
            result.stats["backend_mismatch"] = {
                "flow_solver": result.stats.get("flow_solver"),
                "method": spec.name,
                "small_vector_solves": small,
            }
            if not self._warned_backend_mismatch:
                self._warned_backend_mismatch = True
                warnings.warn(
                    f"{small} forced {result.stats.get('flow_solver')!r} solves ran on "
                    "networks below the auto arc threshold, where the vectorised "
                    "backend is slower than dinic; use flow_solver='auto' to let "
                    "small solves take dinic and small *families* batch onto the "
                    "vectorised backend",
                    UserWarning,
                    stacklevel=3,
                )
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def densest_subgraph(
        self, method: str = "auto", config: MethodConfig | None = None, **kwargs: Any
    ) -> DDSResult:
        """Find the (exact or approximate) densest ``(S, T)`` pair.

        ``method`` is a registry name or ``"auto"`` (CoreExact up to
        :data:`~repro.core.api.AUTO_EXACT_NODE_LIMIT` nodes, CoreApprox
        beyond).  ``config`` is the method's typed config
        (:class:`~repro.core.config.ExactConfig` /
        :class:`~repro.core.config.ApproxConfig`); keyword arguments are
        per-field overrides (``tolerance=``, ``epsilon=``, ``flow_solver=``
        ...).  Repeated identical queries are served from the session's
        result cache (``stats["result_cache_hit"]``).
        """
        self._check_unmutated()
        if self.graph.num_edges == 0:
            raise EmptyGraphError("densest_subgraph requires a graph with at least one edge")
        spec, cfg, was_auto, ignored = self._prepare(method, config, kwargs)
        return self._annotate(self._serve(spec, cfg), spec, was_auto, ignored)

    def top_k(
        self,
        k: int,
        method: str = "auto",
        min_density: float = 0.0,
        config: MethodConfig | None = None,
        **kwargs: Any,
    ) -> list[DDSResult]:
        """Greedily extract up to ``k`` edge-disjoint dense pairs.

        Round 1 is exactly :meth:`densest_subgraph` on the session graph and
        is served through (and feeds) the session result cache; later rounds
        run on a private working copy with the reported edges removed, so
        successive pairs are edge-disjoint and densities are non-increasing.
        Stops early when the best remaining density drops to ``min_density``
        or the working copy runs out of edges.
        """
        self._check_unmutated()
        require_positive_int(k, "k")
        if min_density < 0:
            raise AlgorithmError(f"min_density must be >= 0, got {min_density}")
        if self.graph.num_edges == 0:
            raise EmptyGraphError("top_k_densest requires a graph with at least one edge")
        spec, cfg, was_auto, ignored = self._prepare(method, config, kwargs)

        results: list[DDSResult] = []
        working: DiGraph | None = None
        working_cache: NetworkCache | None = None
        working_token: tuple | None = None
        cache_size = (
            cfg.flow.network_cache_size
            if isinstance(cfg, ExactConfig)
            else self.flow.network_cache_size
        )
        for _ in range(k):
            if working is not None and working.num_edges == 0:
                break
            if working is None:
                result = self._serve(spec, cfg)
            else:
                result = self._execute(spec, cfg, working, network_cache=working_cache)
            if result.density <= min_density:
                break
            self._annotate(result, spec, was_auto, ignored)
            results.append(result)
            first_peel = working is None
            if first_peel:
                working = self.graph.copy()
                # The peeled rounds share one private network cache: their
                # graph states are throwaway, so depositing them into the
                # session cache would only evict the session graph's
                # entries.  Sized from the query's own flow config, like
                # _execute.
                working_cache = NetworkCache(cache_size)
            # A peel round *is* an edge-removal delta: remove exactly the
            # reported pair's edges in one apply_delta batch, then carry the
            # previous round's decision networks across the delta — round 2
            # by clone-and-patch from the session cache, later rounds by
            # migrating the working cache in place — so each round retunes
            # warm patched networks instead of rebuilding from scratch.
            s_indices = working.indices_of(result.s_nodes)
            t_indices = working.indices_of(result.t_nodes)
            block = [
                (working.label_of(u), working.label_of(v))
                for u, v in working.edges_between(s_indices, t_indices)
            ]
            if spec.flow_backed:
                source_token = (
                    full_subproblem_token(self.graph)
                    if first_peel
                    else working_token
                )
            _, removed_pairs = working.apply_delta((), block)
            if not spec.flow_backed:
                continue
            working_token = full_subproblem_token(working)
            if first_peel:
                seed_cache_from(
                    self._network_cache.entries(),
                    source_token,
                    working_cache,
                    working_token,
                    working,
                    [],
                    removed_pairs,
                )
            else:
                migrate_network_cache(
                    working_cache,
                    source_token,
                    working_token,
                    working,
                    [],
                    removed_pairs,
                )
        return results

    def fixed_ratio(
        self,
        ratio: float,
        *,
        lower: float = 0.0,
        upper: float | None = None,
        tolerance: float | None = None,
        flow_solver: str | None = None,
        deadline_ms: float | None = None,
    ) -> FixedRatioOutcome:
        """Bracket the fixed-ratio surrogate optimum ``val(ratio)``.

        This is the session-cached form of
        :func:`repro.core.fixed_ratio.maximize_fixed_ratio` on the full
        graph: Dinkelbach guesses starting at ``lower`` until the bracket
        is narrower than ``tolerance`` (default: the graph's exactness
        tolerance).  The decision network for ``ratio`` is fetched from (and
        deposited into) the session network cache, so repeated probes at the
        same ratio retune one network instead of building one each.  Cached
        networks keep the residual flow of their last solve, so a repeated
        probe also *continues that flow* instead of re-pushing it.  A ratio
        that is not finite and positive raises
        :class:`~repro.exceptions.AlgorithmError` before any min-cut.
        """
        self._check_unmutated()
        if self.graph.num_edges == 0:
            raise EmptyGraphError("fixed_ratio requires a graph with at least one edge")
        self._queries += 1
        if upper is None:
            upper = self.density_upper_bound()
        if tolerance is None:
            tolerance = self.exactness_tolerance()
        engine = self._engine_for(flow_solver if flow_solver is not None else self.flow.solver)
        if deadline_ms is None:
            deadline_ms = self.flow.deadline_ms
        if deadline_ms is not None:
            engine.deadline = Deadline(deadline_ms)
        try:
            return maximize_fixed_ratio(
                self.subproblem(),
                float(ratio),
                lower=lower,
                upper=upper,
                tolerance=tolerance,
                engine=engine,
                network_cache=self._network_cache,
            )
        except DeadlineExceeded:
            self._anytime_returns += 1
            raise
        finally:
            engine.deadline = None

    def xy_core(self, x: int, y: int) -> XYCore:
        """The maximal [x, y]-core (cached per ``(x, y)``; copy returned)."""
        self._check_unmutated()
        key = (x, y)
        core = self._xy_cores.get(key)
        if core is None:
            core = xy_core(self.graph, x, y)
            self._xy_cores[key] = core
        return _copy_core(core)

    def max_xy_core(self) -> XYCore:
        """The maximum-product [x, y]-core (cached; copy returned)."""
        self._check_unmutated()
        if self._max_core is None:
            self._max_core = max_xy_core(self.graph)
        return _copy_core(self._max_core)

    def summary(self) -> dict[str, Any]:
        """Structural statistics of the session graph (cached)."""
        self._check_unmutated()
        if self._summary is None:
            self._summary = graph_summary(self.graph)
        return dict(self._summary)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        added_edges: Iterable[tuple[NodeLabel, NodeLabel]] = (),
        removed_edges: Iterable[tuple[NodeLabel, NodeLabel]] = (),
        *,
        certify: bool = True,
    ) -> UpdateReport:
        """Apply one edge delta through the session, patching caches in place.

        The sanctioned alternative to rebuilding a session when the graph
        changes: the delta is normalized (:meth:`EdgeDelta.normalize
        <repro.incremental.delta.EdgeDelta.normalize>`), applied to the graph
        in one state-token step, and then every layer of cached state is
        brought along instead of thrown away —

        * degree arrays are patched in place;
        * cached [x, y]-cores are re-peeled locally (removal-only deltas) or
          recomputed (deltas with insertions);
        * cached full-graph decision networks are migrated by arc-level
          surgery that preserves their warm residual flows
          (:func:`~repro.incremental.maintain.patch_decision_network`);
        * cached results are **certified** against the delta
          (:func:`~repro.incremental.certify.certify_result`): entries whose
          optimality still has a cheap proof are kept (and marked
          ``stats["certified_stale"]``), the rest are evicted and their keys
          remembered so the next identical query counts as a bounded local
          re-search (``local_research_runs``).

        With ``certify=False`` every cached result is evicted unconditionally
        — the next query per key then re-searches on the patched networks,
        which is byte-identical to a cold rebuild (certification instead
        promises *correctness*: a certified entry may name a different but
        equally optimal pair than a cold run would when the optimum is
        non-unique).

        Returns the :class:`~repro.incremental.delta.UpdateReport` of
        everything that happened; counters aggregate in :meth:`cache_stats`
        (``updates_applied`` / ``certified_stale_hits`` /
        ``local_research_runs``) and each pre-update content fingerprint is
        appended to :meth:`lineage`.
        """
        self._check_unmutated()
        delta = EdgeDelta.normalize(self.graph, added_edges, removed_edges)
        report = UpdateReport(delta=delta, removal_only=delta.removal_only)
        if delta.is_empty:
            return report

        old_token = full_subproblem_token(self.graph)
        old_fingerprint = self.graph.content_fingerprint()
        added_pairs, removed_pairs = self.graph.apply_delta(delta.added, delta.removed)
        self._graph_token = self.graph.state_token
        self._updates_applied += 1
        self._lineage.append(old_fingerprint)
        report.edges_added = len(added_pairs)
        report.edges_removed = len(removed_pairs)
        report.nodes_added = len(delta.new_nodes)

        # Degree arrays patch in place; the other cheap derived structures
        # (sub-problem, summary, bounds) just recompute lazily on demand —
        # each is O(n + m), not worth a patch protocol of its own.
        patch_degree_arrays(
            self._out_degrees,
            self._in_degrees,
            self.graph.num_nodes,
            added_pairs,
            removed_pairs,
        )
        self._subproblem = None
        self._summary = None
        self._density_upper = None
        self._exact_tolerance = None

        (
            self._xy_cores,
            self._max_core,
            report.cores_repeeled,
            report.cores_rebuilt,
            report.max_core_kept,
        ) = refresh_cores(self.graph, self._xy_cores, self._max_core, delta.removal_only)

        new_token = full_subproblem_token(self.graph)
        (
            patched_entries,
            report.networks_patched,
            report.networks_dropped,
        ) = migrate_network_cache(
            self._network_cache,
            old_token,
            new_token,
            self.graph,
            added_pairs,
            removed_pairs,
        )

        if self._results:
            tolerance = self.exactness_tolerance()
            engine = self._engine_for(self.flow.solver)
            for key in list(self._results.keys()):
                if not certify:
                    del self._results[key]
                    self._invalidated_keys.add(key)
                    report.results_invalidated += 1
                    continue
                result = self._results[key]
                certificate = certify_result(
                    self.graph,
                    result,
                    removal_only=delta.removal_only,
                    insertions=len(added_pairs),
                    tolerance=tolerance,
                    networks=patched_entries,
                    engine=engine,
                )
                report.certificates.append(certificate)
                report.verify_cuts += certificate.verify_cuts
                if certificate.certified:
                    if certificate.replacement is not None:
                        self._results[key] = _copy_result(certificate.replacement)
                    self._results[key].stats["certified_stale"] = certificate.reason
                    self._certified_stale_hits += 1
                    report.results_certified += 1
                else:
                    del self._results[key]
                    self._invalidated_keys.add(key)
                    report.results_invalidated += 1
        return report

    def lineage(self) -> list[str]:
        """Content fingerprints of every pre-update graph state, oldest first.

        One entry per :meth:`apply_updates` call that changed the graph —
        the delta lineage the persistent store records so a warmed session
        knows which ancestor states its entries evolved from.
        """
        return list(self._lineage)

    def seed_lineage(self, fingerprints: Iterable[str]) -> None:
        """Adopt a delta lineage recorded elsewhere (persistent-store hook)."""
        self._lineage = [str(fingerprint) for fingerprint in fingerprints]

    # ------------------------------------------------------------------
    # cached derived state
    # ------------------------------------------------------------------
    def subproblem(self) -> STSubproblem:
        """The full-graph :class:`STSubproblem` (computed once per session)."""
        self._check_unmutated()
        if self._subproblem is None:
            self._subproblem = STSubproblem.from_graph(self.graph)
        return self._subproblem

    def out_degrees(self) -> list[int]:
        """Out-degree array by internal node index (cached; copy returned)."""
        self._check_unmutated()
        if self._out_degrees is None:
            self._out_degrees = self.graph.out_degrees()
        return list(self._out_degrees)

    def in_degrees(self) -> list[int]:
        """In-degree array by internal node index (cached; copy returned)."""
        self._check_unmutated()
        if self._in_degrees is None:
            self._in_degrees = self.graph.in_degrees()
        return list(self._in_degrees)

    def density_upper_bound(self) -> float:
        """Cached :func:`~repro.core.density.global_density_upper_bound`."""
        self._check_unmutated()
        if self._density_upper is None:
            self._density_upper = global_density_upper_bound(self.graph)
        return self._density_upper

    def exactness_tolerance(self) -> float:
        """Cached :func:`~repro.core.density.exactness_tolerance`."""
        self._check_unmutated()
        if self._exact_tolerance is None:
            self._exact_tolerance = exactness_tolerance(self.graph)
        return self._exact_tolerance

    # ------------------------------------------------------------------
    # warm-state exchange (the persistent store's hooks)
    # ------------------------------------------------------------------
    def cached_results(self) -> list[tuple[str, MethodConfig, DDSResult]]:
        """Snapshot of the whole-result cache as ``(method, config, result)`` triples.

        Returns defensive copies in LRU order (least recently used first).
        This is the export half of the persistent-store contract
        (:class:`repro.service.store.SessionStore`); the import half is
        :meth:`seed_result`.
        """
        return [
            (method, config, _copy_result(result))
            for (method, config), result in self._results.items()
        ]

    def seed_result(self, method: str, config: MethodConfig, result: DDSResult) -> bool:
        """Deposit an externally computed result into the result cache.

        The warm-start hook of the persistent store: a result computed by an
        earlier process (or another worker) is inserted under ``(method,
        config)`` so the next identical query is served as a
        ``result_cache_hit`` without recomputation.  The method name and
        config are validated through the registry exactly like a live query;
        the *caller* vouches that ``result`` answers that query on this
        session's graph — the store backs that up with its content
        fingerprint and per-entry checksums.  Like a live query, the entry
        is keyed without the config's ``deadline_ms``.  Returns ``False``
        (and caches nothing) when result caching is disabled.
        """
        self._check_unmutated()
        spec = get_method_spec(method)
        cfg = spec.config_type.resolve(config)
        if self._result_cache_size <= 0:
            return False
        key = _result_key(spec.name, cfg)
        self._results[key] = _copy_result(result)
        self._results.move_to_end(key)
        while len(self._results) > self._result_cache_size:
            self._results.popitem(last=False)
        return True

    def cached_xy_cores(self) -> list[XYCore]:
        """Copies of every [x, y]-core this session has computed so far."""
        return [_copy_core(core) for core in self._xy_cores.values()]

    def cached_max_core(self) -> XYCore | None:
        """The cached maximum-product core, or ``None`` — never computes it."""
        return _copy_core(self._max_core) if self._max_core is not None else None

    def seed_derived(
        self,
        *,
        out_degrees: list[int] | None = None,
        in_degrees: list[int] | None = None,
        xy_cores: list[XYCore] | None = None,
        max_core: XYCore | None = None,
        density_upper_bound: float | None = None,
        exactness_tolerance: float | None = None,
    ) -> None:
        """Adopt derived per-graph state computed elsewhere (store warm start).

        Only the pieces passed are adopted; anything already cached is
        overwritten.  Degree arrays are validated against the graph's node
        count and core node indices against its index range (mismatched
        state means it belongs to a different graph and raises
        :class:`~repro.exceptions.GraphError` here, not an ``IndexError``
        at some later query).
        """
        self._check_unmutated()
        n = self.graph.num_nodes
        for name, degrees in (("out_degrees", out_degrees), ("in_degrees", in_degrees)):
            if degrees is not None and len(degrees) != n:
                raise GraphError(
                    f"seeded {name} has {len(degrees)} entries but the graph has {n} nodes"
                )

        def checked_core(core: XYCore) -> XYCore:
            """Copy a core after verifying its indices fit this graph."""
            if any(not 0 <= index < n for index in (*core.s_nodes, *core.t_nodes)):
                raise GraphError(
                    f"seeded [{core.x}, {core.y}]-core holds node indices outside "
                    f"[0, {n}); it belongs to a different graph"
                )
            return _copy_core(core)

        if out_degrees is not None:
            self._out_degrees = [int(d) for d in out_degrees]
        if in_degrees is not None:
            self._in_degrees = [int(d) for d in in_degrees]
        if xy_cores is not None:
            for core in xy_cores:
                self._xy_cores[(core.x, core.y)] = checked_core(core)
        if max_core is not None:
            self._max_core = checked_core(max_core)
        if density_upper_bound is not None:
            self._density_upper = float(density_upper_bound)
        if exactness_tolerance is not None:
            self._exact_tolerance = float(exactness_tolerance)

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Session-wide cache and flow-engine counters.

        Every engine counter (:data:`repro.flow.engine.COUNTERS`:
        ``flow_calls``, ``networks_built``, ``arcs_pushed``,
        ``warm_starts_used`` ...) is summed over the session's engines, so it
        aggregates every query served so far, which is what the
        repeated-query regression tests pin; the keys are defined once in
        the stats glossaries of :mod:`repro.flow.engine` and
        :mod:`repro.core.network_cache`.
        """
        stats: dict[str, Any] = {
            "queries": self._queries,
            "result_cache_hits": self._result_cache_hits,
            "result_cache_entries": len(self._results),
            "updates_applied": self._updates_applied,
            "certified_stale_hits": self._certified_stale_hits,
            "local_research_runs": self._local_research_runs,
            "anytime_returns": self._anytime_returns,
        }
        stats.update(self._network_cache.stats())
        for counter in COUNTERS:
            stats[counter] = sum(getattr(engine, counter) for engine in self._engines.values())
        auto_backends: dict[str, int] = {}
        for engine in self._engines.values():
            for backend, count in engine.auto_backend_choices.items():
                auto_backends[backend] = auto_backends.get(backend, 0) + count
        if auto_backends:
            stats["auto_backends"] = auto_backends
        stats["xy_cores_cached"] = len(self._xy_cores) + (1 if self._max_core is not None else 0)
        return stats

    def clear_cache(self) -> None:
        """Drop every cached result, network, and derived structure."""
        self._results.clear()
        self._network_cache.clear()
        self._invalidated_keys.clear()
        self._subproblem = None
        self._out_degrees = None
        self._in_degrees = None
        self._xy_cores.clear()
        self._max_core = None
        self._summary = None
        self._density_upper = None
        self._exact_tolerance = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DDSSession(n={self.graph.num_nodes}, m={self.graph.num_edges}, "
            f"queries={self._queries}, solver={self.flow.solver!r})"
        )
