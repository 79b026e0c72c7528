"""The session-oriented public API: :class:`DDSSession`.

A session binds to **one graph** and serves many queries over it, paying for
derived state once instead of once per call:

* the full :class:`~repro.core.subproblem.STSubproblem`, with the decision
  topology its first fixed-ratio search builds, and the global density
  bound and exactness tolerance a fixed-ratio probe defaults to,
* **[x, y]-core decompositions** (:meth:`DDSSession.xy_core`,
  :meth:`DDSSession.max_xy_core`),
* **whole answers** in one LRU: densest results keyed by ``(method,
  config)``, fixed-ratio outcomes and top-k lists keyed by their resolved
  arguments, so a repeated query is answered without recomputation, and
* one :class:`~repro.flow.engine.FlowEngine`, so flow instrumentation
  accumulates session-wide (see :meth:`cache_stats`).

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
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Iterable

from repro.core.bounds import fixed_ratio_space
from repro.core.config import ExactConfig, MethodConfig, strip_solver_name
from repro.core.density import (
    exactness_tolerance,
    global_density_upper_bound,
    surrogate_density,
)
from repro.core.fixed_ratio import check_search_arguments, maximize_fixed_ratio
from repro.core.method_registry import MethodSpec, RunContext, get_method_spec
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
from repro.incremental.maintain import refresh_cores
from repro.runtime import Deadline
from repro.utils.validation import require_positive_int

#: Default capacity of the per-session whole-result LRU cache.
DEFAULT_RESULT_CACHE_SIZE = 128

#: Entry name of a cached :meth:`DDSSession.fixed_ratio` outcome in
#: :meth:`DDSSession.cached_results` / :meth:`DDSSession.seed_result`.  No
#: registered method has this name (nor :data:`TOP_K_ENTRY`).
FIXED_RATIO_ENTRY = "fixed-ratio"

#: Entry name of a cached :meth:`DDSSession.top_k` list.
TOP_K_ENTRY = "top-k"

#: Above this node count ``method="auto"`` switches from CoreExact to
#: CoreApprox.
AUTO_EXACT_NODE_LIMIT = 400


def _result_key(method: str, cfg: MethodConfig) -> tuple[str, MethodConfig]:
    """Result-cache key of a query: its method and config without a deadline.

    A query that finishes inside its budget is bit-identical to one run
    without a budget, and one that runs out raises instead of being cached,
    so the budget must not split the cache — the executor and the shard
    daemon fold each lane's *remaining* time into ``deadline_ms``, which
    would otherwise make every repeated read a miss and a new entry.
    """
    if isinstance(cfg, ExactConfig) and cfg.deadline_ms is not None:
        cfg = replace(cfg, deadline_ms=None)
    return method, cfg


def _copy_result(result: DDSResult) -> DDSResult:
    """Defensive copy so callers can never corrupt a cached result.

    ``stats`` values may be mutable containers (the ``network_nodes`` /
    ``network_arcs`` lists), so the copy goes one level deep into lists and
    dicts.
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


def _copy_outcome(outcome: FixedRatioOutcome) -> FixedRatioOutcome:
    """Defensive copy of a fixed-ratio outcome: every node and size list is fresh."""
    return replace(
        outcome,
        best_s=list(outcome.best_s),
        best_t=list(outcome.best_t),
        last_s=list(outcome.last_s),
        last_t=list(outcome.last_t),
        network_nodes=list(outcome.network_nodes),
        network_arcs=list(outcome.network_arcs),
    )


def _copy_entry(value: Any) -> Any:
    """Defensive copy of a cached answer of any kind (result, outcome or list)."""
    if isinstance(value, DDSResult):
        return _copy_result(value)
    if isinstance(value, FixedRatioOutcome):
        return _copy_outcome(value)
    return [_copy_result(result) for result in value]


def _four_fields(method: str, config: Any, fields: str) -> tuple:
    """``config`` as the 4-tuple a ``method`` entry's key is, or :class:`AlgorithmError`."""
    if not (isinstance(config, (tuple, list)) and len(config) == 4):
        raise AlgorithmError(f"a {method} entry's config must be a 4-tuple {fields}, got {config!r}")
    return config


def _check_min_density(min_density: Any) -> None:
    """Refuse a top-k stopping density that is negative, NaN or infinite."""
    if not 0 <= min_density < math.inf:
        raise AlgorithmError(f"min_density must be a finite number >= 0, got {min_density}")


def _entry_key(method: str, config: Any) -> tuple[str, Any]:
    """Validated result-cache key of a ``(method, config)`` entry of any kind.

    A fixed-ratio ``config`` is ``(ratio, lower, upper, tolerance)``, a
    top-k one ``(k, min_density, method, method_config)``, and any other
    ``method`` is a registry name with its method config.  A fixed-ratio or
    top-k config of any other shape raises :class:`AlgorithmError`.
    """
    if method == FIXED_RATIO_ENTRY:
        ratio, lower, upper, tolerance = _four_fields(
            method, config, "(ratio, lower, upper, tolerance)"
        )
        check_search_arguments(ratio, lower, upper, tolerance)
        return method, (float(ratio), float(lower), float(upper), float(tolerance))
    if method == TOP_K_ENTRY:
        k, min_density, inner, inner_config = _four_fields(
            method, config, "(k, min_density, method, method_config)"
        )
        require_positive_int(k, "k")
        _check_min_density(min_density)
        spec = get_method_spec(inner)
        cfg = spec.config_type.resolve(inner_config)
        return method, (k, float(min_density), *_result_key(spec.name, cfg))
    spec = get_method_spec(method)
    return _result_key(spec.name, spec.config_type.resolve(config))


def _copy_core(core: XYCore) -> XYCore:
    """Defensive copy: the node lists are mutable, the cache must stay pristine."""
    return replace(core, s_nodes=list(core.s_nodes), t_nodes=list(core.t_nodes))


def _fold_seed(
    outcome: FixedRatioOutcome,
    s_nodes: list[int],
    t_nodes: list[int],
    density: float,
    edges: int,
) -> None:
    """Make the seed pair ``outcome``'s best pair unless the search extracted a denser one."""
    if density >= outcome.best_density:
        outcome.best_s, outcome.best_t = list(s_nodes), list(t_nodes)
        outcome.best_density = density
        outcome.best_edges = edges


class DDSSession:
    """Stateful densest-subgraph query session over one directed graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.digraph.DiGraph` to serve queries against.
        The session treats it as immutable; mutating it directly afterwards
        raises :class:`~repro.exceptions.GraphError` on the next query.  The
        one sanctioned mutation path is :meth:`apply_updates`, which applies
        an edge delta *through* the session so every cache is patched, certified
        or dropped in step with the graph.
    flow:
        A solver name, ``"auto"`` or ``"dinic"``, kept for callers that
        still pass one; it selects nothing, and any other value raises
        :class:`~repro.exceptions.FlowError`
        (:func:`~repro.core.config.strip_solver_name`).
    result_cache_size:
        Capacity of the whole-answer LRU cache, shared by densest results,
        fixed-ratio outcomes and top-k lists (0 disables all three;
        derived-state caching remains active).
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        flow: str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
    ) -> None:
        if not isinstance(graph, DiGraph):
            raise GraphError(f"DDSSession requires a DiGraph, got {type(graph).__name__}")
        strip_solver_name(flow)
        self.graph = graph
        self._graph_token = graph.state_token
        self._engine = FlowEngine()
        # Densest results under (method, config), fixed-ratio outcomes and
        # top-k lists under (FIXED_RATIO_ENTRY / TOP_K_ENTRY, arguments).
        self._results: OrderedDict[tuple[str, Any], Any] = OrderedDict()
        self._result_cache_size = max(int(result_cache_size), 0)
        self._result_cache_hits = 0
        self._queries = 0
        self._subproblem: STSubproblem | None = None
        self._xy_cores: dict[tuple[int, int], XYCore] = {}
        self._max_core: XYCore | None = None
        self._summary: dict[str, Any] | None = None
        self._density_upper: float | None = None
        self._exact_tolerance: float | None = None
        self._updates_applied = 0
        self._certified_stale_hits = 0
        self._local_research_runs = 0
        self._anytime_returns = 0
        self._invalidated_keys: set[tuple[str, MethodConfig]] = set()
        self._warm_state_version = 0

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    def _check_unmutated(self) -> None:
        if self.graph.state_token != self._graph_token:
            raise GraphError(
                "the session's graph was structurally mutated after the session was "
                "created; cached state would be stale — create a new DDSSession"
            )

    def _resolve_method(self, method: str) -> tuple[MethodSpec, bool]:
        """Map a method name (or ``"auto"``) to its spec."""
        if method == "auto":
            chosen = (
                "core-exact"
                if self.graph.num_nodes <= AUTO_EXACT_NODE_LIMIT
                else "core-approx"
            )
            return get_method_spec(chosen), True
        return get_method_spec(method), False

    def _prepare(
        self, method: str, config: MethodConfig | None, kwargs: dict[str, Any]
    ) -> tuple[MethodSpec, MethodConfig, bool]:
        """Resolve (spec, config, was_auto) for a query."""
        spec, was_auto = self._resolve_method(method)
        if "flow_solver" in kwargs:
            # A name of the one solver selects nothing; any other fails.
            strip_solver_name(kwargs.pop("flow_solver"))
        # The method's own config type, so registered methods with
        # ExactConfig *subclasses* resolve against the right class.
        base = spec.config_type()
        cfg = spec.config_type.resolve(config if config is not None else base, **kwargs)
        # Any knob other than the budget that the method never consults
        # must not silently do nothing: reject it.
        if spec.accepted_fields is not None:
            for config_field in dataclass_fields(cfg):
                name = config_field.name
                if name == "deadline_ms" or name in spec.accepted_fields:
                    continue
                if getattr(cfg, name) != getattr(base, name):
                    raise ConfigError(
                        f"method {spec.name!r} does not use config field {name!r} "
                        f"(accepted: {', '.join(sorted(spec.accepted_fields)) or 'none'})"
                    )
        return spec, cfg, was_auto

    def _execute(self, spec: MethodSpec, cfg: MethodConfig, graph: DiGraph) -> DDSResult:
        """Run one query uncached (used for cache misses and top-k rounds)."""
        self._queries += 1
        engine = self._engine
        context = RunContext(
            engine=engine,
            # A working copy (a later top-k round) has cores of its own.
            max_core=self.max_xy_core if graph is self.graph else None,
        )
        deadline_ms = cfg.deadline_ms if isinstance(cfg, ExactConfig) else None
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

    def _cached(self, key: tuple[str, Any]) -> Any:
        """A copy of the answer cached under ``key``, counted as a hit; else ``None``."""
        value = self._results.get(key)
        if value is None:
            return None
        self._results.move_to_end(key)
        self._result_cache_hits += 1
        self._queries += 1
        return _copy_entry(value)

    def _cache(self, key: tuple[str, Any], value: Any) -> bool:
        """Cache ``value`` (a private copy) under ``key``; ``False`` if caching is off."""
        if self._result_cache_size <= 0:
            return False
        self._warm_state_version += 1
        self._results[key] = value
        self._results.move_to_end(key)
        while len(self._results) > self._result_cache_size:
            self._results.popitem(last=False)
        return True

    def _serve(self, spec: MethodSpec, cfg: MethodConfig) -> DDSResult:
        """Answer a whole-graph query through the result cache."""
        key = _result_key(spec.name, cfg)
        cached = self._cached(key)
        if cached is not None:
            cached.stats["result_cache_hit"] = True
            return cached
        if key in self._invalidated_keys:
            # This exact query was answered before and apply_updates
            # evicted its entry: answering it now is a cold search.
            self._invalidated_keys.discard(key)
            self._local_research_runs += 1
        result = self._execute(spec, cfg, self.graph)
        self._cache(key, _copy_result(result))
        result.stats["result_cache_hit"] = False
        return result

    @staticmethod
    def _annotate(result: DDSResult, spec: MethodSpec, was_auto: bool) -> DDSResult:
        if was_auto:
            result.stats["auto_selected"] = spec.name
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def densest_subgraph(
        self, method: str = "auto", config: MethodConfig | None = None, **kwargs: Any
    ) -> DDSResult:
        """Find the (exact or approximate) densest ``(S, T)`` pair.

        ``method`` is a registry name or ``"auto"`` (CoreExact up to
        :data:`AUTO_EXACT_NODE_LIMIT` nodes, CoreApprox beyond).  ``config``
        is the method's typed config (:class:`~repro.core.config.ExactConfig`
        / :class:`~repro.core.config.ApproxConfig`); keyword arguments are
        per-field overrides (``tolerance=``, ``epsilon=``, ``deadline_ms=``
        ...).  A ``flow_solver=`` override is accepted on every method for
        callers that still name the one solver, and selects nothing
        (:func:`~repro.core.config.strip_solver_name`).  Repeated identical
        queries are served from the session's result cache
        (``stats["result_cache_hit"]``).
        """
        self._check_unmutated()
        if self.graph.num_edges == 0:
            raise EmptyGraphError("densest_subgraph requires a graph with at least one edge")
        spec, cfg, was_auto = self._prepare(method, config, kwargs)
        return self._annotate(self._serve(spec, cfg), spec, was_auto)

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
        Each later round answers and counts exactly like a cold session on
        the peeled graph.  Stops early when the best remaining density drops to
        ``min_density`` or the working copy runs out of edges; a
        ``min_density`` that is negative, NaN or infinite raises
        :class:`~repro.exceptions.AlgorithmError` before anything is counted.

        The whole list is cached too, keyed by ``(k, min_density, method,
        config)`` after ``"auto"`` and the defaults are resolved (and without
        the config's ``deadline_ms``), so a repeated call is one cache hit:
        every result then carries ``stats["result_cache_hit"]``.  A list cut
        short by a deadline raises and caches nothing.
        """
        self._check_unmutated()
        require_positive_int(k, "k")
        _check_min_density(min_density)
        if self.graph.num_edges == 0:
            raise EmptyGraphError("top_k requires a graph with at least one edge")
        spec, cfg, was_auto = self._prepare(method, config, kwargs)
        key = (TOP_K_ENTRY, (k, float(min_density), *_result_key(spec.name, cfg)))
        results = self._cached(key)
        hit = results is not None
        if not hit:
            results = self._top_k_rounds(k, spec, cfg, min_density)
            entry = [_copy_result(result) for result in results]
            if entry:
                # Stored unannotated, as _serve stores densest results.
                entry[0].stats.pop("result_cache_hit", None)
            self._cache(key, entry)
        for result in results:
            if hit:
                result.stats["result_cache_hit"] = True
            self._annotate(result, spec, was_auto)
        return results

    def _top_k_rounds(
        self, k: int, spec: MethodSpec, cfg: MethodConfig, min_density: float
    ) -> list[DDSResult]:
        """The rounds of one uncached :meth:`top_k` call, unannotated."""
        results: list[DDSResult] = []
        working: DiGraph | None = None
        for _ in range(k):
            if working is not None and working.num_edges == 0:
                break
            if working is None:
                result = self._serve(spec, cfg)
            else:
                result = self._execute(spec, cfg, working)
            if result.density <= min_density:
                break
            results.append(result)
            if working is None:
                working = self.graph.copy()
            s_indices = working.indices_of(result.s_nodes)
            t_indices = working.indices_of(result.t_nodes)
            block = [
                (working.label_of(u), working.label_of(v))
                for u, v in working.edges_between(s_indices, t_indices)
            ]
            working.apply_delta((), block)
        return results

    def fixed_ratio(
        self,
        ratio: float,
        *,
        lower: float = 0.0,
        upper: float | None = None,
        tolerance: float | None = None,
        deadline_ms: float | None = None,
    ) -> FixedRatioOutcome:
        """Bracket the fixed-ratio surrogate optimum ``val(ratio)``.

        This is :func:`repro.core.fixed_ratio.maximize_fixed_ratio` on the
        whole graph from ``lower``, with the guesses below a *seed* bound
        ``l`` skipped: Dinkelbach guesses until the bracket is narrower than
        ``tolerance`` (default: the graph's exactness tolerance).  ``l`` is
        the larger ratio-``ratio`` surrogate of two pairs the graph alone
        fixes: the maximum-product core (:meth:`max_xy_core`, walked once per
        session) and the whole candidate pair (every node with an out-edge,
        every node with an in-edge).  With every guess at least ``l``, every
        pair a cut can return lies in the containing [x, y]-core of ``l`` at
        ``ratio`` (:func:`~repro.core.bounds.fixed_ratio_space`), so the
        search runs on that core whenever it is smaller than the candidate
        sets, and certifies the same ``val(ratio)`` as the whole-graph
        search.  One caveat: a cut does not see a pair that beats its guess
        by less than the improving-cut slack
        (:data:`~repro.core.flow_network.CUT_RELATIVE_TOLERANCE` of ``2m'``,
        here the smaller network's), so where the two searches try different
        guesses such a near-tie may close their brackets up to that slack
        apart.

        ``best_s`` / ``best_t`` name the densest of the seed pair and every
        pair the search extracted (ties keep the seed), and ``best_density``
        is its true density, and ``best_edges`` its edge count.  The
        complete outcome is cached, keyed by ``(ratio, lower, upper,
        tolerance)`` with the defaults filled in, so a repeated probe is a
        cache hit that returns a copy of the same outcome (its
        ``flow_calls`` and ``networks_built`` those of the search that
        computed it) and runs no search.  An outcome cut short by a deadline
        raises and caches nothing.  The ratio, bounds, tolerance and budget
        are checked before anything is counted or computed; a ratio
        that is not finite and positive, or a ``lower`` that is infinite or
        above ``upper`` (the density upper bound when omitted), raises
        :class:`~repro.exceptions.AlgorithmError`.
        """
        self._check_unmutated()
        if self.graph.num_edges == 0:
            raise EmptyGraphError("fixed_ratio requires a graph with at least one edge")
        ratio = float(ratio)
        if upper is None:
            upper = self.density_upper_bound()
        if tolerance is None:
            tolerance = self.exactness_tolerance()
        check_search_arguments(ratio, lower, upper, tolerance)
        engine = self._engine
        deadline = Deadline(deadline_ms) if deadline_ms is not None else None
        key = (FIXED_RATIO_ENTRY, (ratio, float(lower), float(upper), float(tolerance)))
        cached = self._cached(key)
        if cached is not None:
            return cached
        self._queries += 1
        seed_s, seed_t, seed, seed_density, seed_edges = self._fixed_ratio_seed(ratio)
        space = fixed_ratio_space(self.subproblem(), seed, ratio)
        engine.deadline = deadline
        try:
            outcome = maximize_fixed_ratio(
                space,
                ratio,
                lower=max(lower, seed),
                upper=upper,
                tolerance=tolerance,
                engine=engine,
            )
        except DeadlineExceeded as error:
            self._anytime_returns += 1
            _fold_seed(error.outcome, seed_s, seed_t, seed_density, seed_edges)
            raise
        finally:
            engine.deadline = None
        _fold_seed(outcome, seed_s, seed_t, seed_density, seed_edges)
        self._cache(key, _copy_outcome(outcome))
        return outcome

    def _fixed_ratio_seed(
        self, ratio: float
    ) -> tuple[list[int], list[int], float, float, int]:
        """``(S, T, surrogate, density, edges)`` of the seed pair of a probe at ``ratio``.

        The maximum-product core or the whole candidate pair, whichever has
        the larger surrogate at ``ratio`` (the core on a tie).  Both are
        functions of the graph, so a cold session, a warmed one and a fresh
        reference session agree on the seed.
        """
        core = self.max_xy_core()
        full = self.subproblem()
        seed = None
        for s_nodes, t_nodes, edges in (
            (core.s_nodes, core.t_nodes, self.graph.count_edges_between(core.s_nodes, core.t_nodes)),
            (full.s_candidates, full.t_candidates, full.num_edges),
        ):
            surrogate = surrogate_density(edges, len(s_nodes), len(t_nodes), ratio)
            if seed is None or surrogate > seed[2]:
                density = edges / math.sqrt(len(s_nodes) * len(t_nodes))
                seed = (s_nodes, t_nodes, surrogate, density, edges)
        return seed

    def xy_core(self, x: int, y: int) -> XYCore:
        """The maximal [x, y]-core (cached per ``(x, y)``; copy returned)."""
        self._check_unmutated()
        key = (x, y)
        core = self._xy_cores.get(key)
        if core is None:
            core = xy_core(self.graph, x, y)
            self._xy_cores[key] = core
            self._warm_state_version += 1
        return _copy_core(core)

    def max_xy_core(self) -> XYCore:
        """The maximum-product [x, y]-core (cached; copy returned)."""
        self._check_unmutated()
        if self._max_core is None:
            self._max_core = max_xy_core(self.graph)
            self._warm_state_version += 1
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
        """Apply one edge delta through the session and bring its caches along.

        The sanctioned alternative to rebuilding a session when the graph
        changes: the delta is normalized (:meth:`EdgeDelta.normalize
        <repro.incremental.delta.EdgeDelta.normalize>`), applied to the graph
        in one state-token step, and then each layer of cached state is
        brought along or dropped —

        * cached [x, y]-cores are re-peeled locally (removal-only deltas) or
          recomputed (deltas with insertions);
        * cached results are **certified** against the delta
          (:func:`~repro.incremental.certify.certify_result`): entries whose
          optimality still has a cheap proof are kept (and marked
          ``stats["certified_stale"]``), the rest are evicted and their keys
          remembered so the next identical query, a cold search, is counted
          (``local_research_runs``).  Certification runs no min-cut;
        * cached fixed-ratio outcomes and top-k lists are dropped, with no
          certification tier and no report counter.

        With ``certify=False`` every cached result is evicted unconditionally
        — the next query per key then re-searches, which is byte-identical
        to a cold rebuild (certification instead
        promises *correctness*: a certified entry may name a different but
        equally optimal pair than a cold run would when the optimum is
        non-unique).

        Returns the :class:`~repro.incremental.delta.UpdateReport` of
        everything that happened; counters aggregate in :meth:`cache_stats`
        (``updates_applied`` / ``certified_stale_hits`` /
        ``local_research_runs``).
        """
        self._check_unmutated()
        delta = EdgeDelta.normalize(self.graph, added_edges, removed_edges)
        report = UpdateReport(delta=delta, removal_only=delta.removal_only)
        if delta.is_empty:
            return report

        added_pairs, removed_pairs = self.graph.apply_delta(delta.added, delta.removed)
        self._graph_token = self.graph.state_token
        self._updates_applied += 1
        self._warm_state_version += 1
        report.edges_added = len(added_pairs)
        report.edges_removed = len(removed_pairs)
        report.nodes_added = len(delta.new_nodes)

        # The cheap derived structures (sub-problem, summary, bounds) just
        # recompute lazily on demand — each is O(n + m), not worth a patch
        # protocol of its own.
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

        if self._results:
            tolerance = self.exactness_tolerance()
            for key in list(self._results.keys()):
                if key[0] in (FIXED_RATIO_ENTRY, TOP_K_ENTRY):
                    del self._results[key]
                    continue
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
                )
                report.certificates.append(certificate)
                if certificate.certified:
                    result.stats["certified_stale"] = certificate.reason
                    self._certified_stale_hits += 1
                    report.results_certified += 1
                else:
                    del self._results[key]
                    self._invalidated_keys.add(key)
                    report.results_invalidated += 1
        return report

    # ------------------------------------------------------------------
    # cached derived state
    # ------------------------------------------------------------------
    def subproblem(self) -> STSubproblem:
        """The full-graph :class:`STSubproblem` (computed once per session)."""
        self._check_unmutated()
        if self._subproblem is None:
            self._subproblem = STSubproblem.from_graph(self.graph)
        return self._subproblem

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
    @property
    def warm_state_version(self) -> int:
        """Count of changes to the state the persistent store saves.

        Rises whenever an answer is cached, seeded or dropped, a core is
        computed or seeded (:meth:`seed_derived`), or :meth:`apply_updates`
        or :meth:`clear_cache` runs.  A cache hit's LRU touch leaves it
        alone (the store keeps no order), and so does computing the
        sub-problem, summary or bounds lazily: the store saves none of them.
        No answer depends on it; :class:`~repro.service.store.SessionStore`
        compares it with the value it saw at its last save to tell that
        nothing changed since.
        """
        return self._warm_state_version

    def cached_results(self) -> list[tuple[str, Any, Any]]:
        """Snapshot of the whole-answer cache as ``(method, config, answer)`` triples.

        Returns defensive copies in LRU order (least recently used first).
        A densest entry is ``(method, config, DDSResult)``; a fixed-ratio one
        ``(FIXED_RATIO_ENTRY, (ratio, lower, upper, tolerance),
        FixedRatioOutcome)``; a top-k one ``(TOP_K_ENTRY, (k, min_density,
        method, config), [DDSResult, ...])``.  This is the export half of the
        persistent-store contract (:class:`repro.service.store.SessionStore`);
        the import half is :meth:`seed_result`.  Like every export hook
        the store reads, it raises :class:`~repro.exceptions.GraphError`
        if the graph was mutated behind the session.
        """
        self._check_unmutated()
        return [
            (method, config, _copy_entry(value))
            for (method, config), value in self._results.items()
        ]

    def seed_result(self, method: str, config: Any, result: Any) -> bool:
        """Deposit an externally computed answer into the result cache.

        The warm-start hook of the persistent store: an answer computed by
        an earlier process (or another worker) is inserted under ``(method,
        config)``, in any shape :meth:`cached_results` exports, so the next
        identical query is served as a cache hit without recomputation.  The
        method name and config are validated exactly like a live query's (a
        registry method through the registry, a fixed-ratio key through the
        search's argument checks); the *caller* vouches that ``result``
        answers that query on this session's graph — the store backs that
        up with its content fingerprint and per-entry checksums.  Like a
        live query, a method config is keyed without its ``deadline_ms``.
        Returns ``False`` (and caches nothing) when result caching is
        disabled.
        """
        self._check_unmutated()
        key = _entry_key(method, config)
        return self._cache(key, _copy_entry(result))

    def cached_xy_cores(self) -> list[XYCore]:
        """Copies of every [x, y]-core this session has computed so far."""
        self._check_unmutated()
        return [_copy_core(core) for core in self._xy_cores.values()]

    def cached_max_core(self) -> XYCore | None:
        """The cached maximum-product core, or ``None`` — never computes it."""
        self._check_unmutated()
        return _copy_core(self._max_core) if self._max_core is not None else None

    def seed_derived(
        self,
        *,
        xy_cores: list[XYCore] | None = None,
        max_core: XYCore | None = None,
    ) -> None:
        """Adopt [x, y]-cores computed elsewhere (store warm start).

        Only the pieces passed are adopted; a core already cached in their
        place is overwritten.  Core node indices are validated against the
        graph's index range (mismatched state means it belongs to a
        different graph and raises :class:`~repro.exceptions.GraphError`
        here, not an ``IndexError`` at some later query).
        """
        self._check_unmutated()
        n = self.graph.num_nodes

        def checked_core(core: XYCore) -> XYCore:
            """Copy a core after verifying its indices fit this graph."""
            if any(not 0 <= index < n for index in (*core.s_nodes, *core.t_nodes)):
                raise GraphError(
                    f"seeded [{core.x}, {core.y}]-core holds node indices outside "
                    f"[0, {n}); it belongs to a different graph"
                )
            return _copy_core(core)

        self._warm_state_version += 1
        if xy_cores is not None:
            for core in xy_cores:
                self._xy_cores[(core.x, core.y)] = checked_core(core)
        if max_core is not None:
            self._max_core = checked_core(max_core)

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Session-wide cache and flow-engine counters.

        Every engine counter (:data:`repro.flow.engine.COUNTERS`:
        ``flow_calls``, ``networks_built``, ``arcs_pushed`` ...) is the
        session engine's lifetime total, so it aggregates every query served
        so far, which is what the repeated-query regression tests pin; the keys
        are defined once in the stats glossary of :mod:`repro.flow.engine`.
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
        for counter in COUNTERS:
            stats[counter] = getattr(self._engine, counter)
        stats["xy_cores_cached"] = len(self._xy_cores) + (1 if self._max_core is not None else 0)
        return stats

    def clear_cache(self) -> None:
        """Drop every cached answer and derived structure."""
        self._warm_state_version += 1
        self._results.clear()
        self._invalidated_keys.clear()
        self._subproblem = None
        self._xy_cores.clear()
        self._max_core = None
        self._summary = None
        self._density_upper = None
        self._exact_tolerance = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DDSSession(n={self.graph.num_nodes}, m={self.graph.num_edges}, "
            f"queries={self._queries})"
        )
