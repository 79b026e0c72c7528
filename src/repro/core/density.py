"""The Kannan–Vinay directed density and helpers to evaluate it.

Given a directed graph ``G = (V, E)`` and two non-empty vertex sets
``S, T ⊆ V`` (which may overlap), let ``E(S, T)`` be the set of edges whose
tail lies in ``S`` and whose head lies in ``T``.  The directed density is

    rho(S, T) = |E(S, T)| / sqrt(|S| * |T|)

When ``S = T = V`` and the graph is symmetric this reduces (up to the factor
accounting for edge direction) to the classic undirected edge density, which
is why the DDS problem strictly generalises the undirected densest-subgraph
problem.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.exceptions import AlgorithmError
from repro.graph.digraph import DiGraph, NodeLabel


def edge_count_between(graph: DiGraph, s_nodes: Sequence[NodeLabel], t_nodes: Sequence[NodeLabel]) -> int:
    """``|E(S, T)|`` for label sets ``S`` and ``T``."""
    s_idx = graph.indices_of(s_nodes)
    t_idx = graph.indices_of(t_nodes)
    return graph.count_edges_between(s_idx, t_idx)


def directed_density(
    graph: DiGraph,
    s_nodes: Sequence[NodeLabel],
    t_nodes: Sequence[NodeLabel],
) -> float:
    """``rho(S, T)`` for label sets; 0.0 when either side is empty."""
    if not s_nodes or not t_nodes:
        return 0.0
    edges = edge_count_between(graph, s_nodes, t_nodes)
    return edges / math.sqrt(len(s_nodes) * len(t_nodes))


def directed_density_from_indices(
    graph: DiGraph,
    s_indices: Sequence[int],
    t_indices: Sequence[int],
) -> float:
    """``rho(S, T)`` for internal index sets; 0.0 when either side is empty."""
    if not s_indices or not t_indices:
        return 0.0
    edges = graph.count_edges_between(s_indices, t_indices)
    return edges / math.sqrt(len(s_indices) * len(t_indices))


def surrogate_denominator(s_size: int, t_size: int, ratio: float) -> float:
    """The ratio-``a`` surrogate denominator ``(|S|/sqrt(a) + sqrt(a)|T|) / 2``.

    By the AM–GM inequality this is always at least ``sqrt(|S| * |T|)``, with
    equality exactly when ``|S| / |T| == ratio`` — the fact underpinning both
    the per-ratio fixed-ratio search and the divide-and-conquer interval bound.
    """
    if ratio <= 0:
        raise AlgorithmError(f"ratio must be > 0, got {ratio}")
    root = math.sqrt(ratio)
    return (s_size / root + root * t_size) / 2.0


def surrogate_density(edges: int, s_size: int, t_size: int, ratio: float) -> float:
    """``|E(S,T)|`` divided by the ratio-``a`` surrogate denominator."""
    if s_size == 0 or t_size == 0:
        return 0.0
    return edges / surrogate_denominator(s_size, t_size, ratio)


def interval_relaxation_factor(low: float, high: float) -> float:
    """``f(a, b) = ((b/a)^(1/4) + (a/b)^(1/4)) / 2`` for ``0 < a <= b``.

    For any pair ``(S, T)`` whose ratio ``|S|/|T|`` lies in ``[a, b]`` and for
    the probe ratio ``x = sqrt(a*b)``, the surrogate denominator at ``x``
    over-estimates ``sqrt(|S||T|)`` by at most this factor, hence

        max over ratio-in-[a,b] pairs of rho(S, T)  <=  f(a, b) * val(x).

    The factor tends to 1 as the interval shrinks, which is what makes the
    divide-and-conquer pruning effective.
    """
    if low <= 0 or high <= 0:
        raise AlgorithmError("interval endpoints must be positive")
    if low > high:
        raise AlgorithmError(f"invalid interval [{low}, {high}]")
    quarter = (high / low) ** 0.25
    return (quarter + 1.0 / quarter) / 2.0


def global_density_upper_bound(graph: DiGraph) -> float:
    """A cheap upper bound on ``rho_opt``: ``min(sqrt(dout_max * din_max), sqrt(m))``.

    * ``|E(S,T)| <= |S| * dout_max`` and ``|E(S,T)| <= |T| * din_max`` give
      ``rho <= sqrt(dout_max * din_max)``.
    * ``|E(S,T)| <= |S| * |T|`` gives ``rho <= sqrt(|E(S,T)|) <= sqrt(m)``.
    """
    if graph.num_edges == 0:
        return 0.0
    degree_bound = math.sqrt(graph.max_out_degree() * graph.max_in_degree())
    return min(degree_bound, math.sqrt(graph.num_edges))


def exactness_tolerance(graph: DiGraph) -> float:
    """Fixed-ratio search stopping gap that separates distinct density values.

    Achievable densities have the form ``k / sqrt(i * j)`` with
    ``k <= m`` and ``i, j <= n``; two distinct such values differ by at least
    ``1 / (2 * m * n^3)``.  A search bracket narrowed below this gap therefore
    pins the optimum exactly.  The value is floored at ``1e-12`` to stay clear
    of double-precision noise; for graphs large enough to hit the floor the
    exact solvers still return a valid subgraph (densities of extracted pairs
    are always evaluated directly), only the optimality certificate becomes
    subject to that floating-point margin.
    """
    n = max(graph.num_nodes, 1)
    m = max(graph.num_edges, 1)
    return max(1.0 / (2.0 * m * n**3), 1e-12)


def validate_pair(
    graph: DiGraph,
    s_nodes: Iterable[NodeLabel],
    t_nodes: Iterable[NodeLabel],
) -> None:
    """Raise :class:`AlgorithmError` unless ``S`` and ``T`` are non-empty node subsets."""
    s_list = list(s_nodes)
    t_list = list(t_nodes)
    if not s_list or not t_list:
        raise AlgorithmError("S and T must both be non-empty")
    for label in s_list + t_list:
        if not graph.has_node(label):
            raise AlgorithmError(f"node {label!r} is not in the graph")
