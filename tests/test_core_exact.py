"""Correctness tests for the exact DDS algorithms (FlowExact, DCExact, CoreExact).

The central property: every exact algorithm returns the same optimal density
as brute-force enumeration on random digraphs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_dds
from repro.core.density import directed_density
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.core.exact_flow import flow_exact
from repro.exceptions import AlgorithmError, EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    cycle_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
    star_digraph,
)

EXACT_SOLVERS = [flow_exact, dc_exact, core_exact]


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
class TestExactSolversOnKnownGraphs:
    def test_single_edge(self, solver):
        g = DiGraph.from_edges([("a", "b")])
        result = solver(g)
        assert result.density == pytest.approx(1.0)
        assert result.is_exact

    def test_complete_bipartite(self, solver):
        g = complete_bipartite_digraph(3, 4)
        result = solver(g)
        assert result.density == pytest.approx(math.sqrt(12))
        assert result.s_size == 3
        assert result.t_size == 4

    def test_star(self, solver):
        g = star_digraph(7, outward=True)
        result = solver(g)
        assert result.density == pytest.approx(math.sqrt(7))

    def test_cycle(self, solver):
        g = cycle_digraph(6)
        result = solver(g)
        assert result.density == pytest.approx(1.0)

    def test_reported_density_matches_reported_pair(self, solver):
        g = gnm_random_digraph(12, 45, seed=11)
        result = solver(g)
        recomputed = directed_density(g, result.s_nodes, result.t_nodes)
        assert result.density == pytest.approx(recomputed)
        assert result.edge_count == round(result.density * math.sqrt(result.s_size * result.t_size))

    def test_rejects_edgeless_graph(self, solver):
        g = DiGraph.from_edges([], nodes=[1, 2])
        with pytest.raises(EmptyGraphError):
            solver(g)


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
@pytest.mark.parametrize("seed", range(12))
def test_exact_matches_bruteforce_random(solver, seed):
    g = gnm_random_digraph(8, 22, seed=seed)
    if g.num_edges == 0:
        pytest.skip("empty random draw")
    expected = brute_force_dds(g).density
    assert solver(g).density == pytest.approx(expected, abs=1e-9)


def disjoint_union(*graphs: DiGraph) -> DiGraph:
    """One graph holding a relabelled copy of each of ``graphs``."""
    return DiGraph.from_edges(
        ((index, u), (index, v)) for index, graph in enumerate(graphs) for u, v in graph.edges()
    )


def _in_and_out_star(leaves: int) -> DiGraph:
    """One hub with ``leaves`` out-leaves and ``leaves`` in-leaves."""
    return DiGraph.from_edges(
        [("hub", f"out{i}") for i in range(leaves)] + [(f"in{i}", "hub") for i in range(leaves)]
    )


#: Unions of equally dense blocks, whose optima tie at several ratios: seeded
#: probes may end on a different surrogate maximiser than unseeded ones.
TIE_HEAVY_SHAPES = {
    "K23+K23": lambda: disjoint_union(
        complete_bipartite_digraph(2, 3), complete_bipartite_digraph(2, 3)
    ),
    "K33+K33": lambda: disjoint_union(
        complete_bipartite_digraph(3, 3), complete_bipartite_digraph(3, 3)
    ),
    "K23+K32": lambda: disjoint_union(
        complete_bipartite_digraph(2, 3), complete_bipartite_digraph(3, 2)
    ),
    "K13+K31": lambda: disjoint_union(
        complete_bipartite_digraph(1, 3), complete_bipartite_digraph(3, 1)
    ),
    "K22+K14": lambda: disjoint_union(
        complete_bipartite_digraph(2, 2), complete_bipartite_digraph(1, 4)
    ),
    "out-star+in-star": lambda: disjoint_union(
        star_digraph(4, outward=True), star_digraph(4, outward=False)
    ),
    "in-and-out-star": lambda: _in_and_out_star(4),
}


@pytest.mark.parametrize("solver", [dc_exact, core_exact], ids=["dc-exact", "core-exact"])
@pytest.mark.parametrize("shape", list(TIE_HEAVY_SHAPES))
def test_dc_and_core_match_bruteforce_on_tie_heavy_shapes(solver, shape):
    g = TIE_HEAVY_SHAPES[shape]()
    expected = brute_force_dds(g).density
    result = solver(g)
    assert result.density == pytest.approx(expected, abs=1e-9)
    recomputed = directed_density(g, result.s_nodes, result.t_nodes)
    assert recomputed == pytest.approx(result.density, abs=1e-12)


class TestExactHypothesis:
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_dc_and_core_match_bruteforce(self, n, m, seed):
        g = gnm_random_digraph(n, m, seed=seed)
        if g.num_edges == 0:
            return
        expected = brute_force_dds(g).density
        assert dc_exact(g).density == pytest.approx(expected, abs=1e-9)
        assert core_exact(g).density == pytest.approx(expected, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_flow_exact_matches_bruteforce(self, seed):
        g = gnm_random_digraph(7, 18, seed=seed)
        if g.num_edges == 0:
            return
        expected = brute_force_dds(g).density
        assert flow_exact(g).density == pytest.approx(expected, abs=1e-9)


class TestExactOnPlantedGraphs:
    def test_planted_block_recovered_exactly(self):
        graph, planted_s, planted_t = planted_dds_digraph(
            n_background=60, background_degree=1.5, s_size=4, t_size=6, p_dense=1.0, seed=8
        )
        result = core_exact(graph)
        assert set(result.s_nodes) == set(planted_s)
        assert set(result.t_nodes) == set(planted_t)
        assert result.density == pytest.approx(24 / math.sqrt(24))

    def test_dc_and_core_agree_on_medium_planted(self):
        graph, _, _ = planted_dds_digraph(
            n_background=120, background_degree=2.0, s_size=6, t_size=9, p_dense=0.9, seed=21
        )
        dc_result = dc_exact(graph)
        core_result = core_exact(graph)
        assert dc_result.density == pytest.approx(core_result.density, abs=1e-9)


class TestExactInstrumentation:
    def test_flow_exact_examines_all_ratios(self):
        g = gnm_random_digraph(6, 15, seed=2)
        result = flow_exact(g)
        # n=6 has at most 36 (i, j) pairs and 23 distinct ratios.
        assert result.stats["ratios_examined"] == 23

    def test_core_exact_makes_fewer_flow_calls_than_flow_exact(self):
        g = gnm_random_digraph(12, 45, seed=7)
        baseline = flow_exact(g)
        fast = core_exact(g)
        assert fast.stats["flow_calls"] < baseline.stats["flow_calls"]
        assert fast.density == pytest.approx(baseline.density)

    def test_flow_exact_node_limit(self):
        g = gnm_random_digraph(40, 100, seed=1)
        with pytest.raises(AlgorithmError):
            flow_exact(g, node_limit=30)

    def test_core_exact_records_network_sizes(self):
        g = gnm_random_digraph(12, 45, seed=7)
        result = core_exact(g)
        assert result.stats["network_nodes"]
        assert len(result.stats["network_nodes"]) == result.stats["flow_calls"]
        assert result.stats["use_core_restriction"] is True

    def test_dc_exact_core_seed_ablation_same_answer(self):
        g = gnm_random_digraph(10, 35, seed=13)
        plain = dc_exact(g, seed_with_core=False)
        seeded = dc_exact(g, seed_with_core=True)
        assert plain.density == pytest.approx(seeded.density)
