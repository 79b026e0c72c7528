"""Correctness and guarantee tests for the approximation algorithms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_core import core_approx, inc_approx
from repro.core.approx_peel import peel_approx, peel_fixed_ratio
from repro.core.bruteforce import brute_force_dds
from repro.core.config import ApproxConfig
from repro.core.density import directed_density
from repro.core.ratio import geometric_ratio_grid
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, ConfigError, EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
    star_digraph,
)

APPROX_SOLVERS = [core_approx, inc_approx, peel_approx]


@pytest.mark.parametrize("solver", APPROX_SOLVERS)
class TestApproxBasics:
    def test_complete_bipartite_found_exactly(self, solver):
        g = complete_bipartite_digraph(3, 4)
        result = solver(g)
        assert result.density == pytest.approx(math.sqrt(12))
        assert not result.is_exact

    def test_star(self, solver):
        g = star_digraph(9, outward=True)
        result = solver(g)
        # The full fan has density 3; the guarantee only promises >= 1.5,
        # but on a star every sensible algorithm finds the fan exactly.
        assert result.density == pytest.approx(3.0)

    def test_rejects_edgeless_graph(self, solver):
        with pytest.raises(EmptyGraphError):
            solver(DiGraph.from_edges([], nodes=[1]))

    def test_reported_density_matches_pair(self, solver):
        g = gnm_random_digraph(30, 140, seed=3)
        result = solver(g)
        assert result.density == pytest.approx(
            directed_density(g, result.s_nodes, result.t_nodes)
        )


class TestApproximationGuarantees:
    @pytest.mark.parametrize("seed", range(10))
    def test_core_approx_half_optimal(self, seed):
        g = gnm_random_digraph(8, 24, seed=seed)
        if g.num_edges == 0:
            pytest.skip("empty draw")
        optimum = brute_force_dds(g).density
        assert core_approx(g).density >= optimum / 2.0 - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_peel_approx_guarantee(self, seed):
        epsilon = 0.5
        g = gnm_random_digraph(8, 24, seed=seed)
        if g.num_edges == 0:
            pytest.skip("empty draw")
        optimum = brute_force_dds(g).density
        result = peel_approx(g, ApproxConfig(epsilon=epsilon))
        assert result.density >= optimum / (2.0 * math.sqrt(1.0 + epsilon)) - 1e-9
        assert result.approximation_ratio == pytest.approx(2.0 * math.sqrt(1.0 + epsilon))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_core_approx_half_optimal(self, seed):
        g = gnm_random_digraph(7, 20, seed=seed)
        if g.num_edges == 0:
            return
        optimum = brute_force_dds(g).density
        assert core_approx(g).density >= optimum / 2.0 - 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_peel_approx_guarantee(self, seed):
        g = gnm_random_digraph(7, 20, seed=seed)
        if g.num_edges == 0:
            return
        optimum = brute_force_dds(g).density
        result = peel_approx(g, ApproxConfig(epsilon=0.3))
        assert result.density >= optimum / (2.0 * math.sqrt(1.3)) - 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_core_and_inc_agree(self, seed):
        """CoreApprox and IncApprox compute the same maximum-product core."""
        g = gnm_random_digraph(10, 35, seed=seed)
        if g.num_edges == 0:
            return
        fast = core_approx(g)
        slow = inc_approx(g)
        assert fast.stats["core_x"] * fast.stats["core_y"] == (
            slow.stats["core_x"] * slow.stats["core_y"]
        )
        assert fast.density == pytest.approx(slow.density)


class TestPeeling:
    def test_peel_fixed_ratio_on_bipartite(self):
        g = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(g)
        s_nodes, t_nodes, density = peel_fixed_ratio(sub, ratio=2.0 / 3.0)
        assert density == pytest.approx(math.sqrt(6))
        assert len(s_nodes) == 2
        assert len(t_nodes) == 3

    def test_peel_fixed_ratio_empty_subproblem(self):
        g = DiGraph.from_edges([(0, 1)])
        sub = STSubproblem.from_graph(g, s_candidates=[], t_candidates=[])
        assert peel_fixed_ratio(sub, 1.0) == ([], [], 0.0)

    def test_peel_fixed_ratio_rejects_bad_ratio(self):
        g = DiGraph.from_edges([(0, 1)])
        sub = STSubproblem.from_graph(g)
        with pytest.raises(AlgorithmError):
            peel_fixed_ratio(sub, 0.0)

    def test_peel_approx_custom_ratio_list(self):
        # No list replaces the grid: every sweep walks the geometric one.
        g = complete_bipartite_digraph(3, 3)
        with pytest.raises(ConfigError, match="ratios"):
            peel_approx(g, ApproxConfig.resolve(None, ratios=[1.0]))
        result = peel_approx(g, ApproxConfig(epsilon=0.25))
        assert result.density == pytest.approx(3.0)
        assert result.stats["ratios_examined"] == len(geometric_ratio_grid(g.num_nodes, 0.25))

    def test_peel_approx_epsilon_validation(self):
        g = complete_bipartite_digraph(2, 2)
        with pytest.raises(AlgorithmError):
            peel_approx(g, ApproxConfig(epsilon=0.0))

    def test_peel_finds_planted_block(self):
        graph, planted_s, planted_t = planted_dds_digraph(
            n_background=100, background_degree=2.0, s_size=5, t_size=8, p_dense=1.0, seed=17
        )
        result = peel_approx(graph, ApproxConfig(epsilon=0.25))
        expected = 40 / math.sqrt(40)
        assert result.density >= expected / (2 * math.sqrt(1.25)) - 1e-9
        # In practice the peel recovers the planted block exactly.
        assert set(planted_s) <= set(result.s_nodes)


class TestCoreApproxMetadata:
    def test_core_orders_reported(self):
        g = complete_bipartite_digraph(3, 5)
        result = core_approx(g)
        assert result.stats["core_x"] == 5
        assert result.stats["core_y"] == 3
        assert result.approximation_ratio == 2.0

    def test_bounds_consistency(self):
        g = gnm_random_digraph(25, 120, seed=9)
        result = core_approx(g)
        assert result.stats["density_lower_bound"] <= result.density + 1e-9
        assert result.density <= result.stats["density_upper_bound"] + 1e-9
