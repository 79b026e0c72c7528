"""Correctness tests for the exact DDS algorithms (FlowExact, DCExact, CoreExact).

The central property: every exact algorithm returns the same optimal density
as brute-force enumeration on random digraphs.
"""

from __future__ import annotations

import math

import pytest
from flow_oracle import CHECKED_SOLVERS, ORACLE_SOLVER, use_solver
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_dds
from repro.core.config import ExactConfig
from repro.core.density import directed_density
from repro.core.exact_core import core_exact
from repro.core.exact_dc import LEAF_RATIO_COUNT, _dc_driver, dc_exact
from repro.core.exact_flow import DEFAULT_NODE_LIMIT, flow_exact
from repro.core.verify import check_result
from repro.datasets.registry import dataset_names, load_dataset
from repro.exceptions import AlgorithmError, EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    cycle_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
    powerlaw_digraph,
    rmat_digraph,
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


@pytest.mark.parametrize(
    "solver", [dc_exact, core_exact, flow_exact], ids=["dc-exact", "core-exact", "flow-exact"]
)
@pytest.mark.parametrize("shape", list(TIE_HEAVY_SHAPES))
def test_dc_and_core_match_bruteforce_on_tie_heavy_shapes(solver, shape, request):
    g = TIE_HEAVY_SHAPES[shape]()
    expected = brute_force_dds(g).density
    answers = set()
    # dinic, then the Edmonds–Karp oracle.
    for flow_solver in CHECKED_SOLVERS:
        use_solver(request, flow_solver)
        result = solver(g)
        assert result.density == pytest.approx(expected, abs=1e-9), flow_solver
        consistent, recomputed, messages = check_result(g, result)
        assert consistent, (flow_solver, messages)
        assert recomputed == pytest.approx(result.density, abs=1e-12)
        answers.add((result.density, tuple(result.s_nodes), tuple(result.t_nodes)))
    assert len(answers) == 1, answers


#: Divide-and-conquer counters on ``dinic``, recorded with the graph's hub
#: pairs pooled before the first probe: ``(ratios_examined, leaf_ratios,
#: intervals_processed, intervals_pruned, flow_calls, networks_built)`` per
#: ``(graph, method, leaf_ratio_count)``.  A leaf test that silently turned a
#: different set of intervals into leaves would move them, and so would a
#: slide back to probes seeded without the hub pairs (333 flow calls over the
#: table instead of 265).
DRIVER_COUNTER_PINS = {
    ("foodweb-tiny", "dc-exact", 2): (5, 0, 5, 3, 8, 5),
    ("foodweb-tiny", "core-exact", 2): (4, 0, 5, 3, 6, 4),
    ("social-tiny", "dc-exact", 2): (7, 0, 7, 4, 10, 7),
    ("social-tiny", "core-exact", 2): (6, 0, 7, 4, 9, 6),
    ("flights-small", "dc-exact", 2): (7, 0, 7, 4, 11, 7),
    ("flights-small", "core-exact", 2): (7, 0, 7, 4, 11, 7),
    ("advogato-small", "dc-exact", 2): (5, 0, 6, 2, 8, 5),
    ("advogato-small", "core-exact", 2): (4, 0, 6, 2, 7, 4),
    ("er-small", "dc-exact", 2): (11, 0, 11, 6, 19, 11),
    ("er-small", "core-exact", 2): (9, 0, 11, 6, 18, 9),
    ("K23+K23", "dc-exact", 2): (4, 1, 4, 1, 3, 3),
    ("K23+K23", "core-exact", 2): (3, 0, 4, 2, 3, 3),
    ("K33+K33", "dc-exact", 2): (5, 2, 5, 0, 2, 2),
    ("K33+K33", "core-exact", 2): (3, 0, 5, 2, 2, 2),
    ("K23+K32", "dc-exact", 2): (4, 1, 4, 1, 3, 3),
    ("K23+K32", "core-exact", 2): (3, 0, 4, 2, 3, 3),
    ("K13+K31", "dc-exact", 2): (3, 0, 3, 2, 3, 3),
    ("K13+K31", "core-exact", 2): (3, 0, 3, 2, 3, 3),
    ("K22+K14", "dc-exact", 2): (6, 1, 6, 2, 5, 5),
    ("K22+K14", "core-exact", 2): (5, 0, 6, 3, 5, 5),
    ("out-star+in-star", "dc-exact", 2): (5, 2, 5, 0, 3, 3),
    ("out-star+in-star", "core-exact", 2): (5, 2, 5, 0, 3, 3),
    ("in-and-out-star", "dc-exact", 2): (4, 1, 4, 1, 3, 3),
    ("in-and-out-star", "core-exact", 2): (4, 1, 4, 1, 3, 3),
    # A wider leaf limit turns more intervals into leaves.
    ("foodweb-tiny", "dc-exact", 8): (10, 6, 5, 2, 12, 10),
    ("flights-small", "core-exact", 8): (14, 8, 7, 3, 18, 14),
    ("K13+K31", "dc-exact", 8): (15, 14, 3, 0, 15, 15),
    ("K13+K31", "core-exact", 8): (15, 14, 3, 0, 15, 15),
    ("K22+K14", "dc-exact", 8): (12, 8, 6, 1, 11, 11),
    ("K22+K14", "core-exact", 8): (11, 7, 6, 2, 11, 11),
    ("out-star+in-star", "dc-exact", 8): (17, 16, 3, 0, 17, 17),
    ("in-and-out-star", "core-exact", 8): (15, 14, 3, 0, 15, 15),
}

_PINNED_COUNTERS = (
    "ratios_examined",
    "leaf_ratios",
    "intervals_processed",
    "intervals_pruned",
    "flow_calls",
    "networks_built",
)


def test_driver_counter_pins_cover_the_small_tier_and_tie_heavy_shapes():
    pinned = {(name, method) for name, method, limit in DRIVER_COUNTER_PINS if limit == 2}
    for name in [*dataset_names("small"), *TIE_HEAVY_SHAPES]:
        assert {(name, "dc-exact"), (name, "core-exact")} <= pinned, name


@pytest.mark.parametrize("name, method, leaf_ratio_count", list(DRIVER_COUNTER_PINS))
def test_driver_counters_match_the_pins(name, method, leaf_ratio_count):
    graph = TIE_HEAVY_SHAPES[name]() if name in TIE_HEAVY_SHAPES else load_dataset(name)
    core = method == "core-exact"
    # dc_exact / core_exact are the driver at the default leaf limit.
    if leaf_ratio_count == LEAF_RATIO_COUNT:
        stats = (core_exact if core else dc_exact)(graph).stats
    else:
        stats = _dc_driver(graph, method, core, core, None, leaf_ratio_count=leaf_ratio_count).stats
    counters = tuple(stats[key] for key in _PINNED_COUNTERS)
    assert counters == DRIVER_COUNTER_PINS[name, method, leaf_ratio_count]


#: Small heavy-tailed digraphs that brute force can check: power-law graphs of
#: at most 10 nodes and 8-node R-MAT graphs.  Their in- and out-degree hubs
#: seed most of the divide-and-conquer probes.
HUB_HEAVY_DIGRAPHS = st.one_of(
    st.builds(
        powerlaw_digraph,
        st.integers(min_value=3, max_value=10),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([2.1, 2.5]),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(
        rmat_digraph,
        st.just(3),
        st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
)


class TestExactHypothesis:
    @given(
        st.one_of(
            st.builds(
                gnm_random_digraph,
                st.integers(min_value=3, max_value=8),
                st.integers(min_value=2, max_value=25),
                seed=st.integers(min_value=0, max_value=10_000),
            ),
            HUB_HEAVY_DIGRAPHS,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_dc_and_core_match_bruteforce(self, g):
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
        g = gnm_random_digraph(DEFAULT_NODE_LIMIT + 1, 400, seed=1)
        with pytest.raises(AlgorithmError, match=f"limited to n <= {DEFAULT_NODE_LIMIT}"):
            flow_exact(g)

    def test_core_exact_records_network_sizes(self):
        g = gnm_random_digraph(12, 45, seed=7)
        result = core_exact(g)
        assert result.stats["network_nodes"]
        assert len(result.stats["network_nodes"]) == result.stats["flow_calls"]
        assert result.stats["use_core_restriction"] is True

    def test_dc_exact_core_seed_ablation_same_answer(self):
        g = gnm_random_digraph(10, 35, seed=13)
        plain = dc_exact(g, ExactConfig(seed_with_core=False))
        seeded = dc_exact(g, ExactConfig(seed_with_core=True))
        assert plain.density == pytest.approx(seeded.density)


def _answer(result) -> tuple:
    """The fields every solver must reproduce: density, pair and flow calls."""
    return (
        result.density,
        sorted(result.s_nodes),
        sorted(result.t_nodes),
        result.stats["flow_calls"],
    )


class TestSolverAgreement:
    """The Edmonds–Karp oracle must reproduce ``dinic``'s answers on every exact method.

    This is the one method-level check that runs the oracle, swapped in as
    the engine's solver class, through all three flow-backed exact methods.
    """

    @pytest.mark.parametrize("solver", CHECKED_SOLVERS)
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_dc_exact_identical_answers(self, solver, seed, request):
        graph = gnm_random_digraph(10, 35, seed=seed)
        reference = _answer(dc_exact(graph))
        use_solver(request, solver)
        assert _answer(dc_exact(graph)) == reference

    @pytest.mark.parametrize("solver", CHECKED_SOLVERS)
    def test_core_exact_identical_answers(self, solver, request):
        graph = gnm_random_digraph(12, 50, seed=2)
        reference = _answer(core_exact(graph))
        use_solver(request, solver)
        assert _answer(core_exact(graph)) == reference

    def test_flow_exact_identical_answers(self, request):
        graph = gnm_random_digraph(8, 22, seed=4)
        reference = _answer(flow_exact(graph))
        use_solver(request, ORACLE_SOLVER)
        assert _answer(flow_exact(graph)) == reference
