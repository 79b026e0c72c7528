"""Peeling-based approximation algorithms (the baseline family).

``peel_fixed_ratio`` is the two-sided greedy peel of Khuller–Saha type for a
fixed ratio ``a``: repeatedly remove either the S-vertex with the smallest
out-degree into ``T`` or the T-vertex with the smallest in-degree from ``S``,
choosing the side by the rule ``remove from S iff a * min_dout <= min_din``,
and return the densest intermediate pair.

**Guarantee.**  Let ``(S*, T*)`` be optimal with ``a* = |S*|/|T*|`` and
consider the peel run with ``a``.  At the first moment a vertex of ``S*``
(from the S side) or of ``T*`` (from the T side) is removed, the current sets
satisfy ``S ⊇ S*`` and ``T ⊇ T*``.  The containment lemma
(:mod:`repro.core.bounds`) gives ``d_{S*→T*}(u) >= rho_opt/(2*sqrt(a*))`` for
``u ∈ S*`` and ``d_{S*→T*}(v) >= rho_opt*sqrt(a*)/2`` for ``v ∈ T*``.  A case
analysis on which side is removed, combined with the selection rule, shows
that at that moment

    min_dout * min_din >= rho_opt^2 / (4 * max(a*/a, a/a*)),

and since ``rho(S, T) >= sqrt(min_dout * min_din)`` always (each S vertex
contributes at least ``min_dout`` edges and each T vertex at least
``min_din``), the densest intermediate pair has density at least
``rho_opt / (2 * sqrt(max(a*/a, a/a*)))``.  With ``a = a*`` this is the
classic 2-approximation; sweeping a geometric ``(1+eps)`` grid over
``[1/n, n]`` (``peel_approx``) guarantees ``2*sqrt(1+eps)`` overall.
"""

from __future__ import annotations

import heapq
import math

from repro.core.config import ApproxConfig
from repro.core.density import directed_density_from_indices
from repro.core.ratio import geometric_ratio_grid
from repro.core.results import DDSResult
from repro.core.subproblem import STSubproblem
from repro.exceptions import EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.utils.validation import require_positive


def peel_fixed_ratio(
    subproblem: STSubproblem, ratio: float
) -> tuple[list[int], list[int], float]:
    """Two-sided peel for a fixed ratio; returns ``(S, T, density)`` (graph indices).

    Runs in ``O((n + m) log n)`` using lazy min-heaps.  Returns empty lists
    and density 0.0 on an empty sub-problem.
    """
    require_positive(ratio, "ratio")
    if subproblem.is_empty:
        return [], [], 0.0

    graph = subproblem.graph
    out_adj = graph.out_adj
    in_adj = graph.in_adj

    in_s: dict[int, bool] = {u: True for u in subproblem.s_candidates}
    in_t: dict[int, bool] = {v: True for v in subproblem.t_candidates}
    dout = subproblem.out_degrees()
    din = subproblem.in_degrees()
    edge_count = subproblem.num_edges
    s_size = len(in_s)
    t_size = len(in_t)

    s_heap = [(degree, u) for u, degree in dout.items()]
    t_heap = [(degree, v) for v, degree in din.items()]
    heapq.heapify(s_heap)
    heapq.heapify(t_heap)

    # Record the removal sequence so the best intermediate pair can be
    # reconstructed without copying S and T at every step.
    removals: list[tuple[str, int]] = []
    best_density = edge_count / math.sqrt(s_size * t_size)
    best_step = 0

    def pop_current(heap: list[tuple[int, int]], member: dict[int, bool], degree: dict[int, int]):
        """Peek the non-stale minimum of a lazy heap (or None if exhausted)."""
        while heap:
            key, node = heap[0]
            if not member.get(node, False) or key != degree[node]:
                heapq.heappop(heap)
                continue
            return key, node
        return None

    while edge_count > 0 and s_size > 0 and t_size > 0:
        s_entry = pop_current(s_heap, in_s, dout)
        t_entry = pop_current(t_heap, in_t, din)
        if s_entry is None or t_entry is None:
            break
        s_degree, s_node = s_entry
        t_degree, t_node = t_entry

        if ratio * s_degree <= t_degree:
            # Remove the weakest S vertex.
            in_s[s_node] = False
            s_size -= 1
            removals.append(("S", s_node))
            for v in out_adj[s_node]:
                if in_t.get(v, False):
                    din[v] -= 1
                    edge_count -= 1
                    heapq.heappush(t_heap, (din[v], v))
        else:
            # Remove the weakest T vertex.
            in_t[t_node] = False
            t_size -= 1
            removals.append(("T", t_node))
            for u in in_adj[t_node]:
                if in_s.get(u, False):
                    dout[u] -= 1
                    edge_count -= 1
                    heapq.heappush(s_heap, (dout[u], u))

        if s_size > 0 and t_size > 0:
            density = edge_count / math.sqrt(s_size * t_size)
            if density > best_density:
                best_density = density
                best_step = len(removals)

    # Reconstruct the best intermediate pair by replaying the removal prefix.
    best_s = set(subproblem.s_candidates)
    best_t = set(subproblem.t_candidates)
    for side, node in removals[:best_step]:
        if side == "S":
            best_s.discard(node)
        else:
            best_t.discard(node)
    return sorted(best_s), sorted(best_t), best_density


def peel_approx(graph: DiGraph, config: ApproxConfig | None = None) -> DDSResult:
    """``PeelApprox``: sweep a geometric ratio grid, peel each, keep the best.

    Parameters
    ----------
    graph:
        Input digraph with at least one edge.
    config:
        Normalized :class:`~repro.core.config.ApproxConfig`: ``epsilon`` is
        the multiplicative grid step (guarantee ``2*sqrt(1+epsilon)``) and
        ``ratios`` an optional explicit grid override (used by ablations).
    """
    cfg = ApproxConfig.resolve(config)
    if graph.num_edges == 0:
        raise EmptyGraphError("peel_approx requires a graph with at least one edge")
    epsilon = cfg.epsilon  # already validated > 0 by ApproxConfig

    subproblem = STSubproblem.from_graph(graph)
    grid: list[float] = (
        list(cfg.ratios) if cfg.ratios is not None else geometric_ratio_grid(graph.num_nodes, epsilon)
    )

    best_s: list[int] = []
    best_t: list[int] = []
    best_density = -1.0
    for ratio in grid:
        s_nodes, t_nodes, density = peel_fixed_ratio(subproblem, ratio)
        if density > best_density and s_nodes and t_nodes:
            best_density = density
            best_s, best_t = s_nodes, t_nodes

    density = directed_density_from_indices(graph, best_s, best_t)
    return DDSResult(
        s_nodes=graph.labels_of(best_s),
        t_nodes=graph.labels_of(best_t),
        density=density,
        edge_count=graph.count_edges_between(best_s, best_t),
        method="peel-approx",
        is_exact=False,
        approximation_ratio=2.0 * math.sqrt(1.0 + epsilon),
        stats={"ratios_examined": len(grid), "epsilon": epsilon},
    )
