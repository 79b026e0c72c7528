"""Workload construction shared by the benchmark modules."""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.session import DDSSession
from repro.utils.rng import RngLike, make_rng


def exact_method_matrix(include_baseline: bool = True) -> list[str]:
    """The exact-algorithm column set of experiments E2/E6/E7."""
    methods = ["dc-exact", "core-exact"]
    if include_baseline:
        methods.insert(0, "flow-exact")
    return methods


def approx_method_matrix() -> list[str]:
    """The approximation-algorithm column set of experiments E3/E4/E5."""
    return ["peel-approx", "inc-approx", "core-approx"]


def service_mixed_workload(num_ratios: int = 12, repeats: int = 2) -> list[dict]:
    """E6-style mixed batch used by the batch-order smoke gate and tests.

    ``repeats`` passes of (approx seeding, an exact run, ``num_ratios``
    fixed-ratio probes, a top-k) — the shape of a service tier replaying
    overlapping analyst sessions.  The second pass repeats every query of
    the first, so the densest and top-k repeats are result-cache hits.
    """
    queries: list[dict] = []
    for _ in range(repeats):
        queries.append({"query": "densest", "method": "core-approx"})
        queries.append({"query": "densest", "method": "core-exact"})
        for step in range(num_ratios):
            queries.append({"query": "fixed-ratio", "ratio": round(0.5 + 0.25 * step, 4)})
        queries.append({"query": "top-k", "k": 2, "method": "core-exact"})
    return queries


def edge_fraction_subgraph(graph: DiGraph, fraction: float, seed: RngLike = 0) -> DiGraph:
    """Random edge-induced subgraph keeping ``fraction`` of the edges.

    This is the workload of the scalability experiment (E5): the paper grows
    each dataset from 20% to 100% of its edges and measures runtime.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = make_rng(seed)
    sample = DiGraph(allow_self_loops=graph.allow_self_loops)
    for label in graph.nodes():
        sample.add_node(label)
    for u, v in graph.edges():
        if rng.random() < fraction:
            sample.add_edge(u, v)
    if sample.num_edges == 0 and graph.num_edges > 0:
        # Guarantee at least one edge so every algorithm stays well defined.
        u, v = next(iter(graph.edges()))
        sample.add_edge(u, v)
    return sample


def quality_reference_density(graph: DiGraph, exact_node_limit: int = 300) -> tuple[float, str]:
    """Reference density for the approximation-quality experiment (E4).

    Small graphs use the exact optimum; larger graphs fall back to the best
    answer any implemented algorithm finds (the paper does the same when the
    exact algorithms cannot finish on a dataset).
    """
    session = DDSSession(graph)
    if graph.num_nodes <= exact_node_limit:
        reference = session.densest_subgraph("core-exact")
        return reference.density, "core-exact"
    best_density = 0.0
    best_method = "none"
    for method in approx_method_matrix():
        result = session.densest_subgraph(method)
        if result.density > best_density:
            best_density = result.density
            best_method = method
    return best_density, best_method
