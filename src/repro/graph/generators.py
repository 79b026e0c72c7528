"""Random and deterministic directed-graph generators.

These generators are the synthetic substitutes for the real datasets used in
the paper's evaluation (:mod:`repro.datasets.registry` registers named
instances of them).  They cover the structural regimes that matter for the
DDS algorithms:

* uniform random digraphs (Erdős–Rényi ``G(n, p)`` and ``G(n, m)``) — the
  regime where core-based pruning is least effective,
* heavy-tailed digraphs (Chung–Lu / power-law and an R-MAT-like recursive
  generator) — the regime of real social/web graphs where pruning shines,
* *planted-DDS* digraphs — a sparse background plus a small dense ``S -> T``
  block with known location, used for correctness and case-study experiments,
* small deterministic families (stars, paths, cycles, complete bipartite)
  used throughout the unit tests.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.graph.digraph import DiGraph
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import (
    require,
    require_non_negative_int,
    require_positive,
    require_probability,
)


# ----------------------------------------------------------------------
# uniform random digraphs
# ----------------------------------------------------------------------
def gnp_random_digraph(n: int, p: float, seed: RngLike = None) -> DiGraph:
    """Directed Erdős–Rényi graph: each ordered pair (u, v), u != v, is an edge w.p. ``p``."""
    require_non_negative_int(n, "n")
    require_probability(p, "p")
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


def gnm_random_digraph(n: int, m: int, seed: RngLike = None) -> DiGraph:
    """Directed graph with ``n`` nodes and exactly ``min(m, n(n-1))`` distinct edges."""
    require_non_negative_int(n, "n")
    require_non_negative_int(m, "m")
    rng = make_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    max_edges = n * (n - 1)
    target = min(m, max_edges)
    while graph.num_edges < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# heavy-tailed digraphs
# ----------------------------------------------------------------------
def _powerlaw_weights(n: int, exponent: float, rng) -> list[float]:
    """Sample ``n`` Pareto-like weights with tail exponent ``exponent`` (> 1)."""
    weights = []
    for _ in range(n):
        u = rng.random()
        # Inverse-CDF sampling of a Pareto(x_min=1) variable.
        weights.append((1.0 - u) ** (-1.0 / (exponent - 1.0)))
    return weights


def chung_lu_digraph(
    out_weights: Sequence[float],
    in_weights: Sequence[float],
    seed: RngLike = None,
) -> DiGraph:
    """Directed Chung–Lu graph with expected out/in degrees proportional to the weights.

    Edge ``(u, v)`` appears with probability
    ``min(1, out_weights[u] * in_weights[v] / W)`` where ``W = sum(out_weights)``.
    The expected out-degree of ``u`` is then approximately ``out_weights[u]``
    (scaled by ``sum(in_weights)/W``).
    """
    require(len(out_weights) == len(in_weights), "out_weights and in_weights must match in length")
    n = len(out_weights)
    rng = make_rng(seed)
    total = sum(out_weights)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    if total <= 0:
        return graph
    # Geometric skipping over the v index keeps this O(m) in expectation for
    # sparse weight products; with the modest n used in this repo a direct
    # double loop with an early probability cut-off is simpler and fast enough.
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


def powerlaw_digraph(
    n: int,
    average_degree: float = 4.0,
    exponent: float = 2.5,
    seed: RngLike = None,
) -> DiGraph:
    """Heavy-tailed digraph: Chung–Lu with Pareto(out) and Pareto(in) weights.

    ``average_degree`` rescales the sampled weights so that the expected number
    of edges is roughly ``n * average_degree``.
    """
    require_non_negative_int(n, "n")
    require_positive(average_degree, "average_degree")
    require(exponent > 1.0, "exponent must be > 1")
    rng = make_rng(seed)
    if n == 0:
        return DiGraph()
    out_weights = _powerlaw_weights(n, exponent, rng)
    in_weights = _powerlaw_weights(n, exponent, rng)
    scale_out = n * average_degree / sum(out_weights)
    scale_in = n * average_degree / sum(in_weights)
    out_weights = [w * scale_out for w in out_weights]
    in_weights = [w * scale_in for w in in_weights]
    # Renormalise so that sum(out) == sum(in) == n * average_degree exactly.
    return chung_lu_digraph(out_weights, in_weights, seed=rng)


def rmat_digraph(
    scale: int,
    edge_factor: int = 8,
    partition: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: RngLike = None,
) -> DiGraph:
    """R-MAT-style recursive-matrix digraph with ``2**scale`` nodes.

    ``edge_factor`` edges per node are sampled by recursively descending into
    the four quadrants of the adjacency matrix with probabilities
    ``partition = (a, b, c, d)``; duplicates are collapsed, so the final edge
    count is slightly below ``edge_factor * 2**scale``.
    """
    require_non_negative_int(scale, "scale")
    require_non_negative_int(edge_factor, "edge_factor")
    a, b, c, d = partition
    require(abs(a + b + c + d - 1.0) < 1e-9, "partition probabilities must sum to 1")
    rng = make_rng(seed)
    n = 1 << scale
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    target_edges = edge_factor * n
    for _ in range(target_edges):
        u, v = 0, 0
        half = n >> 1
        while half >= 1:
            roll = rng.random()
            if roll < a:
                pass
            elif roll < a + b:
                v += half
            elif roll < a + b + c:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        if u != v:
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# planted densest subgraphs
# ----------------------------------------------------------------------
def planted_dds_digraph(
    n_background: int,
    background_degree: float,
    s_size: int,
    t_size: int,
    p_dense: float = 0.9,
    seed: RngLike = None,
) -> tuple[DiGraph, list[int], list[int]]:
    """Sparse background digraph plus a planted dense ``S -> T`` block.

    Returns ``(graph, planted_S, planted_T)``.  The planted block occupies the
    node labels ``n_background .. n_background + s_size + t_size - 1``; edges
    inside the block go from each planted-S node to each planted-T node with
    probability ``p_dense``.  A few random edges connect the block to the
    background so it is not an isolated component.

    The planted pair is (with overwhelming probability, for the defaults used
    in the benchmarks) the densest directed subgraph, with density close to
    ``p_dense * sqrt(s_size * t_size)``, which far exceeds the background
    density.  Workloads built on this generator therefore have a known ground
    truth even at sizes where the exact algorithms would be slow.
    """
    require_non_negative_int(n_background, "n_background")
    require_non_negative_int(s_size, "s_size")
    require_non_negative_int(t_size, "t_size")
    require_probability(p_dense, "p_dense")
    require_positive(background_degree + 1.0, "background_degree")
    rng = make_rng(seed)

    graph = DiGraph()
    total_nodes = n_background + s_size + t_size
    for node in range(total_nodes):
        graph.add_node(node)

    # Sparse ER background.
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

    # Loosely attach the planted block to the background.
    if n_background > 0:
        for u in planted_s + planted_t:
            if rng.random() < 0.5:
                graph.add_edge(u, rng.randrange(n_background))
            if rng.random() < 0.5:
                graph.add_edge(rng.randrange(n_background), u)

    return graph, planted_s, planted_t


# ----------------------------------------------------------------------
# update-stream workloads (for the incremental layer)
# ----------------------------------------------------------------------
def edge_update_stream(
    graph: DiGraph,
    steps: int,
    batch_size: int = 4,
    p_add: float = 0.5,
    p_new_node: float = 0.0,
    seed: RngLike = None,
) -> list[tuple[list[tuple], list[tuple]]]:
    """Deterministic stream of edge-delta batches for ``graph``.

    Returns ``steps`` batches of ``(added_edges, removed_edges)`` label
    pairs, each valid against the graph state produced by applying all
    earlier batches in order — removals name edges that exist at that point,
    additions name edges that do not, and no edge appears on both sides of
    one batch.  The batches are therefore directly consumable by
    :meth:`DDSSession.apply_updates <repro.session.DDSSession.apply_updates>`
    (or by :meth:`DiGraph.apply_delta <repro.graph.digraph.DiGraph.apply_delta>`
    on a copy); ``graph`` itself is never mutated.

    Each batch slot is an insertion with probability ``p_add`` (when an
    absent pair can be found) and a removal otherwise; an insertion brings a
    brand-new node with probability ``p_new_node``, exercising the
    node-growth path of the maintenance layer.  Fixing ``seed`` fixes the
    whole stream — the workload the incremental benchmarks replay.
    """
    require_non_negative_int(steps, "steps")
    require_non_negative_int(batch_size, "batch_size")
    require_probability(p_add, "p_add")
    require_probability(p_new_node, "p_new_node")
    rng = make_rng(seed)

    nodes = [graph.label_of(index) for index in range(graph.num_nodes)]
    edges: list[tuple] = [
        (graph.label_of(u), graph.label_of(v))
        for u in range(graph.num_nodes)
        for v in sorted(graph.out_adj[u])
    ]
    edge_set = set(edges)
    fresh = 0

    def pop_edge(index: int) -> tuple:
        """Swap-pop for O(1) removal while keeping the list rng-indexable."""
        edges[index], edges[-1] = edges[-1], edges[index]
        edge = edges.pop()
        edge_set.discard(edge)
        return edge

    def sample_absent() -> tuple | None:
        """A uniform-ish absent non-loop pair, or ``None`` when too dense."""
        if len(nodes) < 2:
            return None
        for _ in range(8 * batch_size + 8):
            u = nodes[rng.randrange(len(nodes))]
            v = nodes[rng.randrange(len(nodes))]
            if u != v and (u, v) not in edge_set:
                return (u, v)
        return None

    batches: list[tuple[list[tuple], list[tuple]]] = []
    for _ in range(steps):
        added: list[tuple] = []
        removed: list[tuple] = []
        batch_edges: set[tuple] = set()
        for _ in range(batch_size):
            pair: tuple | None = None
            if rng.random() < p_add:
                if nodes and rng.random() < p_new_node:
                    fresh += 1
                    label = f"update_node_{fresh}"
                    anchor = nodes[rng.randrange(len(nodes))]
                    pair = (label, anchor) if rng.random() < 0.5 else (anchor, label)
                    nodes.append(label)
                else:
                    pair = sample_absent()
                if pair is not None and pair not in batch_edges:
                    added.append(pair)
                    batch_edges.add(pair)
                    edges.append(pair)
                    edge_set.add(pair)
                    continue
            if edges:
                index = rng.randrange(len(edges))
                if edges[index] not in batch_edges:
                    pair = pop_edge(index)
                    removed.append(pair)
                    batch_edges.add(pair)
        batches.append((added, removed))
    return batches


# ----------------------------------------------------------------------
# deterministic families (mostly for tests and docs)
# ----------------------------------------------------------------------
def complete_bipartite_digraph(s_size: int, t_size: int) -> DiGraph:
    """All edges from ``{s0..}`` to ``{t0..}``: density ``sqrt(s_size * t_size)``."""
    require_non_negative_int(s_size, "s_size")
    require_non_negative_int(t_size, "t_size")
    graph = DiGraph()
    sources = [f"s{i}" for i in range(s_size)]
    targets = [f"t{j}" for j in range(t_size)]
    for label in sources + targets:
        graph.add_node(label)
    for u in sources:
        for v in targets:
            graph.add_edge(u, v)
    return graph


def star_digraph(n_leaves: int, outward: bool = True) -> DiGraph:
    """Star with a hub and ``n_leaves`` leaves; edges point away from the hub if ``outward``."""
    require_non_negative_int(n_leaves, "n_leaves")
    graph = DiGraph()
    graph.add_node("hub")
    for i in range(n_leaves):
        leaf = f"leaf{i}"
        graph.add_node(leaf)
        if outward:
            graph.add_edge("hub", leaf)
        else:
            graph.add_edge(leaf, "hub")
    return graph


def path_digraph(n: int) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    require_non_negative_int(n, "n")
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    for node in range(n - 1):
        graph.add_edge(node, node + 1)
    return graph


def cycle_digraph(n: int) -> DiGraph:
    """Directed cycle on ``n`` nodes (empty graph for ``n < 2``)."""
    require_non_negative_int(n, "n")
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    if n >= 2:
        for node in range(n):
            graph.add_edge(node, (node + 1) % n)
    return graph


def expected_planted_density(s_size: int, t_size: int, p_dense: float) -> float:
    """Expected density of the planted block of :func:`planted_dds_digraph`."""
    if s_size == 0 or t_size == 0:
        return 0.0
    return p_dense * math.sqrt(s_size * t_size)
