"""Tests for result verification and the greedy top-k extension."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import DDSResult
from repro.core.verify import (
    certify_against_bounds,
    check_result,
    is_locally_maximal,
    verify_result,
)
from repro.exceptions import AlgorithmError, EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
)
from repro.session import DDSSession


class TestVerifyResult:
    def test_exact_result_verifies(self):
        g = gnm_random_digraph(12, 45, seed=3)
        result = DDSSession(g).densest_subgraph("core-exact")
        report = verify_result(g, result)
        assert report.ok
        assert report.recomputed_density == pytest.approx(result.density)
        assert report.messages == ()

    def test_approx_result_verifies_against_guarantee(self):
        g = gnm_random_digraph(40, 200, seed=4)
        result = DDSSession(g).densest_subgraph("core-approx")
        report = verify_result(g, result)
        assert report.consistent
        assert report.within_core_bounds

    def test_tampered_density_detected(self):
        g = complete_bipartite_digraph(2, 3)
        result = DDSSession(g).densest_subgraph("core-exact")
        tampered = DDSResult(
            s_nodes=result.s_nodes,
            t_nodes=result.t_nodes,
            density=result.density + 1.0,
            edge_count=result.edge_count,
            method=result.method,
            is_exact=True,
        )
        consistent, _, messages = check_result(g, tampered)
        assert not consistent
        assert any("does not match" in message for message in messages)

    def test_suboptimal_pair_flagged_as_not_locally_maximal(self):
        g = complete_bipartite_digraph(3, 3)
        # Only two of the three S vertices: adding the third improves density.
        bogus = DDSResult(
            s_nodes=["s0", "s1"],
            t_nodes=["t0", "t1", "t2"],
            density=6 / math.sqrt(6),
            edge_count=6,
            method="made-up",
            is_exact=True,
        )
        maximal, messages = is_locally_maximal(g, bogus)
        assert not maximal
        assert any("adding" in message for message in messages)

    def test_wrong_nodes_rejected(self):
        g = complete_bipartite_digraph(2, 2)
        bogus = DDSResult(["ghost"], ["t0"], 1.0, 1, "made-up", True)
        consistent, _, messages = check_result(g, bogus)
        assert not consistent
        assert "not in the graph" in messages[0]

    def test_repeated_label_rejected(self):
        g = DiGraph.from_edges([("a", "b"), ("a", "c")])
        # Counting "a" twice would claim density 2.0, which no pair reaches.
        bogus = DDSResult(["a", "a"], ["b", "c"], 2.0, 4, "made-up", True)
        consistent, _, messages = check_result(g, bogus)
        assert not consistent
        assert messages == ["node 'a' is listed twice in S"]
        bogus = DDSResult(["a"], ["b", "c", "b"], 2 / math.sqrt(2), 2, "made-up", True)
        consistent, _, messages = check_result(g, bogus)
        assert not consistent
        assert messages == ["node 'b' is listed twice in T"]

    def test_bounds_certificate_catches_impossible_exact_claim(self):
        g = complete_bipartite_digraph(3, 3)
        # Claim an "exact" density below the core lower bound sqrt(9) = 3.
        bogus = DDSResult(["s0"], ["t0"], 1.0, 1, "made-up", True)
        ok, messages = certify_against_bounds(g, bogus)
        assert not ok
        assert "below the core lower bound" in messages[0]

    def test_empty_graph_rejected(self):
        g = DiGraph.from_edges([], nodes=[1])
        result = DDSResult([1], [1], 0.0, 0, "made-up", False)
        with pytest.raises(AlgorithmError):
            verify_result(g, result)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_exact_results_always_verify(self, seed):
        g = gnm_random_digraph(9, 28, seed=seed)
        if g.num_edges == 0:
            return
        result = DDSSession(g).densest_subgraph("core-exact")
        assert verify_result(g, result).ok


class TestTopK:
    def test_first_result_is_the_dds(self):
        g = gnm_random_digraph(15, 60, seed=5)
        single = DDSSession(g).densest_subgraph("core-exact")
        ranked = DDSSession(g).top_k(3, method="core-exact")
        assert ranked[0].density == pytest.approx(single.density)

    def test_densities_non_increasing_and_edge_disjoint(self):
        graph, _, _ = planted_dds_digraph(40, 2.0, 4, 5, 1.0, seed=6)
        ranked = DDSSession(graph).top_k(4, method="core-exact")
        densities = [result.density for result in ranked]
        assert densities == sorted(densities, reverse=True)
        # Edge-disjointness: the same (u, v) edge never appears in two results.
        seen: set[tuple[str, str]] = set()
        for result in ranked:
            s_idx = graph.indices_of(result.s_nodes)
            t_idx = graph.indices_of(result.t_nodes)
            for u, v in graph.edges_between(s_idx, t_idx):
                edge = (graph.label_of(u), graph.label_of(v))
                assert edge not in seen
                seen.add(edge)

    def test_two_planted_blocks_found_in_order(self):
        g = DiGraph()
        # Block A: 3x4 complete (density sqrt(12)); block B: 2x3 complete (sqrt(6)).
        for i in range(3):
            for j in range(4):
                g.add_edge(f"a_s{i}", f"a_t{j}")
        for i in range(2):
            for j in range(3):
                g.add_edge(f"b_s{i}", f"b_t{j}")
        ranked = DDSSession(g).top_k(2, method="core-exact")
        assert ranked[0].density == pytest.approx(math.sqrt(12))
        assert ranked[1].density == pytest.approx(math.sqrt(6))
        assert all(label.startswith("a_") for label in ranked[0].s_nodes)
        assert all(label.startswith("b_") for label in ranked[1].s_nodes)

    def test_min_density_cutoff(self):
        g = complete_bipartite_digraph(2, 2)
        ranked = DDSSession(g).top_k(5, method="core-exact", min_density=10.0)
        assert ranked == []

    def test_k_larger_than_available_structure(self):
        g = DiGraph.from_edges([(0, 1), (2, 3)])
        ranked = DDSSession(g).top_k(10, method="core-exact")
        assert 1 <= len(ranked) <= 2
        assert sum(result.edge_count for result in ranked) <= 2

    def test_input_graph_not_modified(self):
        g = gnm_random_digraph(12, 40, seed=7)
        edges_before = g.num_edges
        DDSSession(g).top_k(2, method="core-approx")
        assert g.num_edges == edges_before

    def test_parameter_validation(self):
        g = complete_bipartite_digraph(2, 2)
        with pytest.raises(AlgorithmError):
            DDSSession(g).top_k(0)
        for min_density in (-1.0, float("nan"), float("inf")):
            with pytest.raises(AlgorithmError, match="min_density"):
                DDSSession(g).top_k(2, min_density=min_density)
        with pytest.raises(EmptyGraphError):
            DDSSession(DiGraph.from_edges([], nodes=[1])).top_k(2)
