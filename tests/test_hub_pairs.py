"""The hub pairs the divide-and-conquer driver pools before its first probe.

A hub pair is the ``k`` nodes of highest in-degree with all their
in-neighbours (or the out-degree mirror), for ``k = 1, 2, 4, …``; its edge
count is the heads' degree sum, so the driver pools it without a recount.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact_core import core_exact
from repro.core.exact_dc import (
    _hub_pairs,
    _SearchState,
    _seed_incumbent_with_core,
    _seed_incumbent_with_peeling,
    dc_exact,
)
from repro.core.subproblem import STSubproblem
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_digraph, star_digraph
from test_core_exact import HUB_HEAVY_DIGRAPHS


def _indexed_graph(num_nodes: int, edges: list[tuple[int, int]]) -> DiGraph:
    """A graph whose label ``i`` is internal index ``i``."""
    graph = DiGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _tied_in_degrees() -> DiGraph:
    """Heads 4..11 have the in-neighbours 0..3; head 12 has those and 13."""
    edges = [(tail, head) for head in range(4, 12) for tail in range(4)]
    edges += [(tail, 12) for tail in (0, 1, 2, 3, 13)]
    return _indexed_graph(14, edges)


def _two_hubs() -> DiGraph:
    """Heads 13 and 12 share the leaves 0..11, except that 12 misses leaf 11.

    Head 13 has the larger in-degree, so the ``k = 2`` in-hub pair lists its
    heads as ``[13, 12]``; with 23 edges on 12 × 2 nodes it is the densest pair.
    """
    edges = [(leaf, 13) for leaf in range(12)] + [(leaf, 12) for leaf in range(11)]
    return _indexed_graph(14, edges)


def _disjoint_union(*graphs: DiGraph) -> DiGraph:
    """Integer-labelled union: each graph's indices shifted past the previous ones."""
    edges = []
    offset = 0
    for graph in graphs:
        edges += [(offset + u, offset + v) for u, v in graph.edge_indices()]
        offset += graph.num_nodes
    return _indexed_graph(offset, edges)


class TestHubPairs:
    def test_heads_by_degree_then_index_at_powers_of_two(self):
        graph = _tied_in_degrees()
        pairs = list(_hub_pairs(graph.in_adj))
        # Head 12 has the largest in-degree; the tied heads follow by index.
        # At k = 8 there are only five tails, so the walk stops.
        assert [heads for heads, _, _ in pairs] == [[12], [12, 4], [12, 4, 5, 6]]
        assert [tails for _, tails, _ in pairs] == [[0, 1, 2, 3, 13]] * 3
        assert [edges for _, _, edges in pairs] == [5, 9, 17]
        for heads, tails, edges in pairs:
            assert edges == graph.count_edges_between(tails, heads)

    def test_out_degree_walk_mirrors_the_in_degree_walk(self):
        graph = _tied_in_degrees()
        assert list(_hub_pairs(graph.reverse().out_adj)) == list(_hub_pairs(graph.in_adj))

    def test_stops_when_the_nodes_with_degree_run_out(self):
        graph = _indexed_graph(5, [(0, 4), (1, 4), (2, 4), (0, 3), (1, 3)])
        # Two heads have in-degree; k = 4 is never reached.
        assert list(_hub_pairs(graph.in_adj)) == [([4], [0, 1, 2], 3), ([4, 3], [0, 1, 2], 5)]

    def test_state_pools_both_orientations_with_their_edge_counts(self):
        graph = _tied_in_degrees()
        state = _SearchState(graph=graph)
        state.offer_hub_pairs()
        # In-hubs as (S = tails, T = heads); out-hubs as (S = heads, T = tails).
        assert state.pool[(5, 5, 1)] == ([0, 1, 2, 3, 13], [12])
        assert state.pool[(9, 1, 9)] == ([0], list(range(4, 13)))
        for (edges, s_size, t_size), (s_nodes, t_nodes) in state.pool.items():
            assert (edges, s_size, t_size) == (
                graph.count_edges_between(s_nodes, t_nodes),
                len(s_nodes),
                len(t_nodes),
            )

    def test_an_adopted_hub_pair_has_ascending_sides(self):
        graph = _two_hubs()
        assert [heads for heads, _, _ in _hub_pairs(graph.in_adj)] == [[13], [13, 12]]
        state = _SearchState(graph=graph)
        state.offer_hub_pairs()
        assert state.pool[(23, 12, 2)] == (list(range(12)), [13, 12])
        assert (state.best_s, state.best_t) == (list(range(12)), [12, 13])
        assert state.best_density == 23 / math.sqrt(24)


@given(HUB_HEAVY_DIGRAPHS, st.booleans())
@settings(max_examples=40, deadline=None)
def test_seeded_pool_keys_match_a_recount_and_the_incumbent_dominates(graph, core_seed):
    if graph.num_edges == 0:
        return
    state = _SearchState(graph=graph)
    if core_seed:
        _seed_incumbent_with_core(graph, state, None)
    else:
        _seed_incumbent_with_peeling(STSubproblem.from_graph(graph), state)
    state.offer_hub_pairs()
    assert state.pool
    for (edges, s_size, t_size), (s_nodes, t_nodes) in state.pool.items():
        assert edges == graph.count_edges_between(s_nodes, t_nodes)
        assert (s_size, t_size) == (len(s_nodes), len(t_nodes))
        assert state.best_density >= edges / math.sqrt(s_size * t_size)
    best_edges = graph.count_edges_between(state.best_s, state.best_t)
    assert state.best_density == best_edges / math.sqrt(len(state.best_s) * len(state.best_t))


#: ``(graph, method) -> flow_calls`` of the hub-optimal graphs below, on
#: ``dinic``.  Without the hub pairs the runs took 11 / 6 and 8 / 4.
HUB_OPTIMUM_FLOW_CALLS = {
    ("star", "dc-exact"): 8,
    ("star", "core-exact"): 6,
    ("two hubs", "dc-exact"): 5,
    ("two hubs", "core-exact"): 3,
}


@pytest.mark.parametrize("solve", [dc_exact, core_exact], ids=["dc-exact", "core-exact"])
def test_a_star_optimum_is_reported_with_ascending_sides(solve):
    # A 12-leaf in-star beside a sparse random graph: the hub's in-star is
    # the unique optimum, and the k = 1 in-hub pair.
    graph = _disjoint_union(gnm_random_digraph(30, 40, seed=3), star_digraph(12, outward=False))
    hub = 30
    leaves = list(range(31, 43))
    result = solve(graph)
    assert result.density == 12 / math.sqrt(12)
    assert result.s_nodes == leaves
    assert result.t_nodes == [hub]
    assert result.stats["flow_calls"] == HUB_OPTIMUM_FLOW_CALLS["star", result.method]


@pytest.mark.parametrize("solve", [dc_exact, core_exact], ids=["dc-exact", "core-exact"])
def test_a_two_hub_optimum_is_reported_with_ascending_sides(solve):
    graph = _disjoint_union(_two_hubs(), gnm_random_digraph(20, 25, seed=5))
    result = solve(graph)
    assert result.density == 23 / math.sqrt(24)
    assert result.s_nodes == list(range(12))
    assert result.t_nodes == [12, 13]
    assert result.stats["flow_calls"] == HUB_OPTIMUM_FLOW_CALLS["two hubs", result.method]
