"""The per-pair draw loops: the bit-for-bit reference of the bulk sweeps.

``gnp_random_digraph``, ``planted_dds_digraph`` and ``chung_lu_digraph`` in
:mod:`repro.graph.generators` take their ``rng.random()`` draws in bulk,
through a numpy ``RandomState`` that runs the caller's MT19937 state.  The
functions here are those generators as they were before, one draw a pair in
row-major order, with their argument checks left out: the production
generators must match them bit for bit, in the edge set, in the order the
edges are inserted (which ``edges()``, ``successors()`` and
``predecessors()`` iterate in) and in the state they leave the caller's
generator in (``tests/test_graph_generators.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.digraph import DiGraph
from repro.utils.rng import RngLike, make_rng


def gnp_random_digraph(n: int, p: float, seed: RngLike = None) -> DiGraph:
    """Directed Erdős–Rényi graph: each ordered pair (u, v), u != v, is an edge w.p. ``p``."""
    rng = make_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    if p <= 0.0:
        return graph
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def chung_lu_digraph(
    out_weights: Sequence[float],
    in_weights: Sequence[float],
    seed: RngLike = None,
) -> DiGraph:
    """Directed Chung–Lu graph: edge ``(u, v)`` w.p. ``min(1, out[u] * in[v] / sum(out))``."""
    n = len(out_weights)
    rng = make_rng(seed)
    total = sum(out_weights)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    if total <= 0:
        return graph
    for u in range(n):
        wu = out_weights[u]
        if wu <= 0:
            continue
        for v in range(n):
            if u == v:
                continue
            probability = wu * in_weights[v] / total
            if probability >= 1.0 or rng.random() < probability:
                graph.add_edge(u, v)
    return graph


def planted_dds_digraph(
    n_background: int,
    background_degree: float,
    s_size: int,
    t_size: int,
    p_dense: float = 0.9,
    seed: RngLike = None,
) -> tuple[DiGraph, list[int], list[int]]:
    """Sparse ``G(n, p)`` background plus a planted dense ``S -> T`` block."""
    rng = make_rng(seed)

    graph = DiGraph()
    total_nodes = n_background + s_size + t_size
    for node in range(total_nodes):
        graph.add_node(node)

    if n_background > 1 and background_degree > 0:
        p_background = min(1.0, background_degree / max(1, n_background - 1))
        for u in range(n_background):
            for v in range(n_background):
                if u != v and rng.random() < p_background:
                    graph.add_edge(u, v)

    planted_s = list(range(n_background, n_background + s_size))
    planted_t = list(range(n_background + s_size, total_nodes))
    for u in planted_s:
        for v in planted_t:
            if rng.random() < p_dense:
                graph.add_edge(u, v)

    if n_background > 0:
        for u in planted_s + planted_t:
            if rng.random() < 0.5:
                graph.add_edge(u, rng.randrange(n_background))
            if rng.random() < 0.5:
                graph.add_edge(rng.randrange(n_background), u)

    return graph, planted_s, planted_t
