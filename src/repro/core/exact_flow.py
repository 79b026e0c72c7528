"""``FlowExact`` — the baseline exact DDS algorithm (all candidate ratios).

This is the reproduction of the state-of-the-art *prior* to the paper: for
every distinct candidate ratio ``a = i/j`` (``1 <= i, j <= n``) run a
fixed-ratio search over the guess ``g`` (:mod:`repro.core.fixed_ratio`),
each step of which is one min-cut computation on the decision network.  The
ratios come from a Farey walk over ``[1/n, n]`` as ascending reduced pairs
``(p, q)`` (:func:`repro.core.ratio.all_candidate_ratios`), and each search
runs at ``p / q``.
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
from repro.core.fixed_ratio import maximize_fixed_ratio
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
    engine: FlowEngine | None = None,
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
    engine:
        The session's shared engine (instrumentation).
    """
    cfg = ExactConfig.resolve(config)
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
    engine = engine if engine is not None else FlowEngine()
    snapshot = engine.snapshot()

    best_s: list[int] = []
    best_t: list[int] = []
    best_density = 0.0
    fixed_ratio_searches = 0
    ratios = all_candidate_ratios(n)

    def absorb(outcome) -> None:
        nonlocal best_s, best_t, best_density, fixed_ratio_searches
        if outcome.flow_calls:
            fixed_ratio_searches += 1
        if outcome.best_density > best_density:
            best_density = outcome.best_density
            best_s, best_t = outcome.best_s, outcome.best_t

    try:
        for p, q in ratios:
            absorb(
                maximize_fixed_ratio(
                    subproblem, p / q, lower=0.0, upper=upper, tolerance=tolerance, engine=engine
                )
            )
    except DeadlineExceeded as error:
        absorb(error.outcome)
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
