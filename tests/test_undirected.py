"""Tests for the undirected companion algorithms (k-core, Charikar, Goldberg)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, cycle_digraph, gnm_random_digraph
from repro.undirected.charikar import charikar_peel
from repro.undirected.goldberg import goldberg_exact
from repro.undirected.kcore import core_decomposition, k_core, max_core
from repro.undirected.models import edge_density, symmetrize, undirected_edge_count


def _clique(n: int) -> DiGraph:
    g = DiGraph()
    for u in range(n):
        for v in range(n):
            if u != v:
                g.add_edge(u, v)
    return g


class TestSymmetrize:
    def test_symmetrize_adds_reverse_arcs(self):
        g = DiGraph.from_edges([(1, 2), (2, 3)])
        symmetric = symmetrize(g)
        assert symmetric.has_edge(2, 1)
        assert symmetric.has_edge(3, 2)
        assert symmetric.num_edges == 4

    def test_undirected_edge_count(self):
        g = DiGraph.from_edges([(1, 2), (2, 1), (2, 3)])
        symmetric = symmetrize(g)
        assert undirected_edge_count(symmetric, [1, 2, 3]) == 2
        assert edge_density(symmetric, [1, 2]) == pytest.approx(0.5)
        assert edge_density(symmetric, []) == 0.0


class TestKCore:
    def test_clique_core_numbers(self):
        g = _clique(5)
        numbers = core_decomposition(g)
        assert all(value == 4 for value in numbers.values())
        k, nodes = max_core(g)
        assert k == 4
        assert len(nodes) == 5

    def test_cycle_core_numbers(self):
        numbers = core_decomposition(cycle_digraph(6))
        assert all(value == 2 for value in numbers.values())

    def test_path_with_pendant(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        numbers = core_decomposition(g)
        assert numbers[3] == 1
        assert numbers[0] == 2

    def test_k_core_extraction(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert set(k_core(g, 2)) == {0, 1, 2}
        assert set(k_core(g, 1)) == {0, 1, 2, 3}
        assert k_core(g, 5) == []

    def test_empty_graph(self):
        assert core_decomposition(DiGraph()) == {}
        assert max_core(DiGraph()) == (0, [])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_core_number_at_most_degree(self, seed):
        g = gnm_random_digraph(12, 40, seed=seed)
        symmetric = symmetrize(g)
        numbers = core_decomposition(g)
        for label, core_number in numbers.items():
            undirected_degree = len(symmetric.successors(label))
            assert core_number <= undirected_degree

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_k_core_min_degree(self, seed):
        """Inside the k_max-core every vertex has undirected degree >= k_max."""
        g = gnm_random_digraph(12, 45, seed=seed)
        if g.num_edges == 0:
            return
        k, nodes = max_core(g)
        symmetric = symmetrize(g)
        node_set = set(nodes)
        for label in nodes:
            inside = sum(1 for other in symmetric.successors(label) if other in node_set)
            assert inside >= k


class TestDensestSubgraphUndirected:
    def test_goldberg_on_clique_plus_pendant(self):
        g = _clique(4)
        g.add_edge(0, 99)
        result = goldberg_exact(g)
        assert result.density == pytest.approx(6 / 4)
        assert set(result.nodes) == {0, 1, 2, 3}
        assert result.is_exact

    def test_charikar_half_guarantee_on_random_graphs(self):
        for seed in range(6):
            g = gnm_random_digraph(12, 40, seed=seed)
            if g.num_edges == 0:
                continue
            exact = goldberg_exact(g)
            approx = charikar_peel(g)
            assert approx.density >= exact.density / 2.0 - 1e-9
            assert approx.density <= exact.density + 1e-9

    def test_bipartite_densest(self):
        g = complete_bipartite_digraph(3, 3)
        result = goldberg_exact(g)
        assert result.density == pytest.approx(9 / 6)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            goldberg_exact(DiGraph.from_edges([], nodes=[1]))
        with pytest.raises(EmptyGraphError):
            charikar_peel(DiGraph.from_edges([], nodes=[1]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_goldberg_at_least_half_average_degree(self, seed):
        """The densest subgraph density is at least m/n (the whole graph is a candidate)."""
        g = gnm_random_digraph(10, 30, seed=seed)
        if g.num_edges == 0:
            return
        symmetric = symmetrize(g)
        whole_density = (symmetric.num_edges // 2) / symmetric.num_nodes
        assert goldberg_exact(g).density >= whole_density - 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_property_goldberg_is_exact(self, seed):
        """``e(H) / |H|`` of Goldberg's answer is the maximum over all vertex subsets."""
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = gnm_random_digraph(n, rng.randint(1, n * (n - 1)), seed=seed)
        nodes = g.nodes()
        bit = {label: 1 << index for index, label in enumerate(nodes)}
        pairs = {bit[u] | bit[v] for u, v in g.edges()}
        best = max(
            Fraction(sum(1 for pair in pairs if pair & subset == pair), bin(subset).count("1"))
            for subset in range(1, 1 << len(nodes))
        )
        result = goldberg_exact(g)
        assert Fraction(result.edge_count, len(result.nodes)) == best
        assert result.edge_count == undirected_edge_count(symmetrize(g), result.nodes)
