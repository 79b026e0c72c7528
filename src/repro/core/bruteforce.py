"""Brute-force DDS solver used as the ground-truth oracle in tests.

The solver enumerates every pair of non-empty vertex subsets, so it is only
usable for tiny graphs (``n <= ~8``, i.e. up to ``(2^8 - 1)^2 ≈ 65k`` pairs).
The property-based tests compare every other exact algorithm against it on
random small digraphs.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.core.config import ExactConfig
from repro.core.results import DDSResult
from repro.exceptions import AlgorithmError
from repro.graph.digraph import DiGraph

#: Enumeration is refused above this node count (the space grows as ``4^n``).
DEFAULT_MAX_NODES = 14


def _non_empty_subsets(indices: list[int]) -> list[list[int]]:
    subsets: list[list[int]] = []
    for size in range(1, len(indices) + 1):
        subsets.extend(list(combo) for combo in combinations(indices, size))
    return subsets


def brute_force_dds(graph: DiGraph, config: ExactConfig | None = None) -> DDSResult:
    """Exhaustively find the densest ``(S, T)`` pair.

    Parameters
    ----------
    graph:
        Input digraph; must have at least one edge.
    config:
        Normalized :class:`~repro.core.config.ExactConfig`; no field is
        consulted.  Graphs above :data:`DEFAULT_MAX_NODES` nodes are refused
        (the enumeration is exponential).
    """
    ExactConfig.resolve(config)
    n = graph.num_nodes
    if n > DEFAULT_MAX_NODES:
        raise AlgorithmError(
            f"brute_force_dds refuses graphs with more than {DEFAULT_MAX_NODES} nodes (got {n})"
        )
    if graph.num_edges == 0:
        raise AlgorithmError("brute_force_dds requires at least one edge")

    indices = list(range(n))
    # Only vertices with at least one outgoing (resp. incoming) edge can ever
    # help the S (resp. T) side; restricting to them keeps the enumeration
    # noticeably smaller without affecting optimality, because adding an
    # isolated-on-that-side vertex can only increase the denominator.
    s_candidates = [u for u in indices if len(graph.out_adj[u]) > 0]
    t_candidates = [v for v in indices if len(graph.in_adj[v]) > 0]

    best_density = -1.0
    best_pair: tuple[list[int], list[int]] = ([], [])
    best_edges = 0
    pairs_examined = 0

    for s_set in _non_empty_subsets(s_candidates):
        for t_set in _non_empty_subsets(t_candidates):
            pairs_examined += 1
            edges = graph.count_edges_between(s_set, t_set)
            density = edges / math.sqrt(len(s_set) * len(t_set))
            if density > best_density + 1e-15:
                best_density = density
                best_pair = (s_set, t_set)
                best_edges = edges

    s_idx, t_idx = best_pair
    return DDSResult(
        s_nodes=graph.labels_of(s_idx),
        t_nodes=graph.labels_of(t_idx),
        density=best_density,
        edge_count=best_edges,
        method="brute-force",
        is_exact=True,
        stats={"pairs_examined": pairs_examined},
    )
