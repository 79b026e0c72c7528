"""``FlowExact`` — the baseline exact DDS algorithm (all candidate ratios).

This is the reproduction of the state-of-the-art *prior* to the paper: for
every distinct candidate ratio ``a = i/j`` (``1 <= i, j <= n``) run a
fixed-ratio search over the guess ``g`` (:mod:`repro.core.fixed_ratio`),
each step of which is one min-cut computation on the decision network.
Every search starts at ``lower = 0``, as in the baseline.  For the ratio
equal to ``|S*|/|T*|`` the surrogate is tight, so the best pair extracted
over all ratios is the exact DDS.

The algorithm needs ``Theta(n^2)`` fixed-ratio searches and is therefore only
usable on small graphs — exactly the behaviour the paper's evaluation
highlights and that experiments E2/E6 reproduce.
"""

from __future__ import annotations

from repro.core.config import ExactConfig
from repro.core.density import (
    directed_density_from_indices,
    exactness_tolerance,
    global_density_upper_bound,
)
from repro.core.fixed_ratio import (
    maximize_fixed_ratio,
    maximize_fixed_ratio_batch,
    partial_outcomes,
)
from repro.core.flow_network import decision_network_arc_count
from repro.core.network_cache import NetworkCache
from repro.core.ratio import all_candidate_ratios
from repro.core.results import DDSResult
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, DeadlineExceeded, EmptyGraphError
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph
from repro.runtime import AnytimeResult

#: FlowExact runs one fixed-ratio search per distinct ratio; above this node
#: count that is hopeless in pure Python, so we refuse instead of hanging.
DEFAULT_NODE_LIMIT = 300


def flow_exact(
    graph: DiGraph,
    config: ExactConfig | None = None,
    *,
    node_limit: int | None = None,
    tolerance: float | None = None,
    flow_solver: str | None = None,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
) -> DDSResult:
    """Exact DDS via exhaustive ratio enumeration (baseline ``Exact``).

    Parameters
    ----------
    graph:
        Input digraph with at least one edge.
    config:
        Normalized :class:`~repro.core.config.ExactConfig`; its
        ``node_limit`` guards against accidentally running the
        quadratic-ratio baseline on a large graph (default
        :data:`DEFAULT_NODE_LIMIT`) and its ``tolerance`` is the
        search stopping gap (default: the provably-exact
        :func:`~repro.core.density.exactness_tolerance`).
    node_limit / tolerance / flow_solver:
        Legacy per-field overrides resolved through ``config``.
    engine / network_cache:
        The session's shared engine (instrumentation) and decision-network
        cache.
    """
    cfg = ExactConfig.resolve(
        config, node_limit=node_limit, tolerance=tolerance, flow_solver=flow_solver
    )
    if graph.num_edges == 0:
        raise EmptyGraphError("flow_exact requires a graph with at least one edge")
    n = graph.num_nodes
    limit = cfg.node_limit if cfg.node_limit is not None else DEFAULT_NODE_LIMIT
    if n > limit:
        raise AlgorithmError(
            f"flow_exact enumerates O(n^2) ratios and is limited to n <= {limit}; "
            f"got n = {n}. Use dc_exact/core_exact instead."
        )

    tolerance = cfg.tolerance if cfg.tolerance is not None else exactness_tolerance(graph)
    upper = global_density_upper_bound(graph)
    subproblem = STSubproblem.from_graph(graph)
    engine = engine if engine is not None else FlowEngine(cfg.flow.solver)
    snapshot = engine.snapshot()
    if network_cache is None:
        network_cache = NetworkCache(cfg.flow.network_cache_size)

    best_s: list[int] = []
    best_t: list[int] = []
    best_density = 0.0
    fixed_ratio_searches = 0
    ratios = all_candidate_ratios(n)

    # Under the auto policy, consecutive ratios whose (identically sized)
    # decision networks are each below the vector backend's arc threshold but
    # clear it in aggregate are searched in lockstep as one block-diagonal
    # batched solve; everything else takes the sequential path unchanged.
    arc_count = decision_network_arc_count(subproblem)

    def absorb(outcome) -> None:
        nonlocal best_s, best_t, best_density, fixed_ratio_searches
        if outcome.flow_calls:
            fixed_ratio_searches += 1
        if outcome.best_density > best_density:
            best_density = outcome.best_density
            best_s, best_t = outcome.best_s, outcome.best_t

    index = 0
    try:
        while index < len(ratios):
            chunk = ratios[index : index + cfg.flow.batch_size]
            index += len(chunk)
            if len(chunk) >= 2 and engine.supports_batching([arc_count] * len(chunk)):
                for outcome in maximize_fixed_ratio_batch(
                    subproblem,
                    [float(ratio) for ratio in chunk],
                    lower=0.0,
                    upper=upper,
                    tolerance=tolerance,
                    engine=engine,
                    network_cache=network_cache,
                ):
                    absorb(outcome)
            else:
                # Absorb one search at a time so a mid-chunk deadline keeps the
                # incumbents of the searches that did finish.
                for ratio in chunk:
                    absorb(
                        maximize_fixed_ratio(
                            subproblem,
                            float(ratio),
                            lower=0.0,
                            upper=upper,
                            tolerance=tolerance,
                            engine=engine,
                            network_cache=network_cache,
                        )
                    )
    except DeadlineExceeded as error:
        for outcome in partial_outcomes(error):
            absorb(outcome)
        # Unexamined ratios have no bound tighter than the global one, so the
        # anytime upper bound for the baseline stays at ``upper``; the
        # incumbent's true density is the certified lower bound.
        density = (
            directed_density_from_indices(graph, best_s, best_t)
            if best_s and best_t
            else 0.0
        )
        error.partial = AnytimeResult(
            s_nodes=graph.labels_of(best_s),
            t_nodes=graph.labels_of(best_t),
            density=density,
            upper_bound=upper,
            method="flow-exact",
            elapsed_ms=engine.deadline.elapsed_ms() if engine.deadline is not None else 0.0,
        )
        raise

    if not best_s or not best_t:
        raise AlgorithmError("flow_exact failed to find any non-empty pair")

    density = directed_density_from_indices(graph, best_s, best_t)
    stats = {
        "ratios_examined": len(ratios),
        "fixed_ratio_searches": fixed_ratio_searches,
        "tolerance": tolerance,
    }
    stats.update(engine.stats_since(snapshot))
    return DDSResult(
        s_nodes=graph.labels_of(best_s),
        t_nodes=graph.labels_of(best_t),
        density=density,
        edge_count=graph.count_edges_between(best_s, best_t),
        method="flow-exact",
        is_exact=True,
        stats=stats,
    )
