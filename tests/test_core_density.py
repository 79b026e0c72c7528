"""Unit and property tests for density definitions and bounds helpers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import (
    directed_density,
    directed_density_from_indices,
    edge_count_between,
    exactness_tolerance,
    global_density_upper_bound,
    interval_relaxation_factor,
    surrogate_denominator,
    surrogate_density,
)
from repro.exceptions import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph


class TestDirectedDensity:
    def test_complete_bipartite_density(self):
        g = complete_bipartite_digraph(2, 3)
        s = [f"s{i}" for i in range(2)]
        t = [f"t{j}" for j in range(3)]
        assert directed_density(g, s, t) == pytest.approx(math.sqrt(6))

    def test_overlapping_sets_allowed(self):
        g = DiGraph.from_edges([(1, 2), (2, 1), (1, 3)])
        density = directed_density(g, [1, 2], [1, 2])
        assert density == pytest.approx(2 / 2)

    def test_repeated_labels_count_once(self):
        g = DiGraph.from_edges([("a", "b"), ("a", "c")])
        assert edge_count_between(g, ["a", "a"], ["b", "c", "c"]) == 2
        assert directed_density(g, ["a", "a"], ["b", "c"]) == directed_density(g, ["a"], ["b", "c"])
        assert directed_density(g, ["a"], ["b", "c", "b"]) == pytest.approx(2 / math.sqrt(2))

    def test_empty_side_gives_zero(self):
        g = DiGraph.from_edges([(1, 2)])
        assert directed_density(g, [], [2]) == 0.0
        assert directed_density(g, [1], []) == 0.0

    def test_edge_count_between(self):
        g = DiGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        assert edge_count_between(g, [1], [2, 3]) == 2
        assert edge_count_between(g, [3], [1]) == 0

    def test_index_and_label_views_agree(self):
        g = gnm_random_digraph(10, 30, seed=1)
        labels = g.nodes()[:4]
        indices = g.indices_of(labels)
        assert directed_density(g, labels, labels) == pytest.approx(
            directed_density_from_indices(g, indices, indices)
        )


class TestSurrogate:
    def test_denominator_at_matching_ratio_equals_geometric_mean(self):
        assert surrogate_denominator(4, 2, ratio=2.0) == pytest.approx(math.sqrt(8))

    def test_denominator_rejects_bad_ratio(self):
        with pytest.raises(AlgorithmError):
            surrogate_denominator(1, 1, ratio=0.0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_amgm_lower_bound(self, s_size, t_size, ratio):
        """AM-GM: the surrogate denominator never under-estimates sqrt(|S||T|)."""
        denominator = surrogate_denominator(s_size, t_size, ratio)
        assert denominator >= math.sqrt(s_size * t_size) - 1e-9

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_property_amgm_tight_at_true_ratio(self, s_size, t_size):
        ratio = s_size / t_size
        denominator = surrogate_denominator(s_size, t_size, ratio)
        assert denominator == pytest.approx(math.sqrt(s_size * t_size))

    def test_surrogate_density_zero_for_empty_sides(self):
        assert surrogate_density(5, 0, 3, 1.0) == 0.0

    def test_surrogate_density_never_exceeds_true_density(self):
        # surrogate <= true density because the denominator is never smaller.
        edges, s_size, t_size = 7, 3, 4
        true_density = edges / math.sqrt(s_size * t_size)
        for ratio in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert surrogate_density(edges, s_size, t_size, ratio) <= true_density + 1e-12


class TestIntervalFactor:
    def test_unit_interval_factor_is_one(self):
        assert interval_relaxation_factor(2.0, 2.0) == pytest.approx(1.0)

    def test_factor_grows_with_interval_width(self):
        assert interval_relaxation_factor(1.0, 4.0) > interval_relaxation_factor(1.0, 2.0) > 1.0

    def test_invalid_interval(self):
        with pytest.raises(AlgorithmError):
            interval_relaxation_factor(2.0, 1.0)
        with pytest.raises(AlgorithmError):
            interval_relaxation_factor(0.0, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=900),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_interval_bound(self, a, b, s_size, t_size, edges):
        """rho(S,T) <= f(a,b) * surrogate at sqrt(ab) whenever |S|/|T| is in [a, b]."""
        low, high = min(a, b), max(a, b)
        ratio = s_size / t_size
        if not low <= ratio <= high:
            return
        probe = math.sqrt(low * high)
        factor = interval_relaxation_factor(low, high)
        true_density = edges / math.sqrt(s_size * t_size)
        surrogate = surrogate_density(edges, s_size, t_size, probe)
        assert true_density <= factor * surrogate + 1e-9


class TestGlobalBounds:
    def test_upper_bound_dominates_every_pair(self):
        g = gnm_random_digraph(12, 40, seed=6)
        upper = global_density_upper_bound(g)
        nodes = list(range(g.num_nodes))
        # Spot-check a family of pairs, including the whole graph.
        for size in (1, 3, 6, len(nodes)):
            s, t = nodes[:size], nodes[-size:]
            assert directed_density_from_indices(g, s, t) <= upper + 1e-9

    def test_upper_bound_empty_graph(self):
        assert global_density_upper_bound(DiGraph()) == 0.0

    def test_exactness_tolerance_positive_and_small(self):
        g = gnm_random_digraph(10, 30, seed=1)
        tol = exactness_tolerance(g)
        assert 0 < tol <= 1.0 / (2 * 30 * 10**3) + 1e-15

    def test_exactness_tolerance_floor(self):
        g = gnm_random_digraph(200, 3000, seed=1)
        assert exactness_tolerance(g) >= 1e-12
