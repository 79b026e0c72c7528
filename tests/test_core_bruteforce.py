"""Unit tests for the brute-force oracle itself."""

from __future__ import annotations

import math

import pytest

from repro.core.bruteforce import DEFAULT_MAX_NODES, brute_force_dds
from repro.exceptions import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, cycle_digraph, star_digraph


def test_single_edge():
    g = DiGraph.from_edges([("a", "b")])
    result = brute_force_dds(g)
    assert result.density == pytest.approx(1.0)
    assert result.s_nodes == ["a"]
    assert result.t_nodes == ["b"]


def test_complete_bipartite():
    g = complete_bipartite_digraph(2, 3)
    result = brute_force_dds(g)
    assert result.density == pytest.approx(math.sqrt(6))
    assert result.s_size == 2
    assert result.t_size == 3
    assert result.edge_count == 6


def test_outward_star_prefers_full_fan():
    # hub -> k leaves: best is S={hub}, T=all leaves, density sqrt(k).
    g = star_digraph(6, outward=True)
    result = brute_force_dds(g)
    assert result.density == pytest.approx(math.sqrt(6))
    assert result.s_nodes == ["hub"]
    assert result.t_size == 6


def test_cycle_density_is_one():
    g = cycle_digraph(5)
    result = brute_force_dds(g)
    assert result.density == pytest.approx(1.0)


def test_overlapping_sides_used_when_beneficial():
    # Two mutual edges: S = T = {a, b} has density 2/2 = 1; any single edge
    # pair also gives 1 — the optimum must be exactly 1.
    g = DiGraph.from_edges([("a", "b"), ("b", "a")])
    result = brute_force_dds(g)
    assert result.density == pytest.approx(1.0)


def test_rejects_large_graph():
    g = complete_bipartite_digraph(8, 8)
    assert g.num_nodes > DEFAULT_MAX_NODES
    with pytest.raises(AlgorithmError, match=f"more than {DEFAULT_MAX_NODES} nodes"):
        brute_force_dds(g)


def test_rejects_edgeless_graph():
    g = DiGraph.from_edges([], nodes=[1, 2, 3])
    with pytest.raises(AlgorithmError):
        brute_force_dds(g)


def test_result_metadata():
    g = complete_bipartite_digraph(2, 2)
    result = brute_force_dds(g)
    assert result.method == "brute-force"
    assert result.is_exact
    assert result.stats["pairs_examined"] > 0
    assert result.ratio == pytest.approx(1.0)
    assert result.summary()["density"] == pytest.approx(2.0)
