"""Unit and property tests for the max-flow substrate."""

from __future__ import annotations

import math
import random

import pytest
from flow_oracle import edmonds_karp_max_flow
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FlowError
from repro.flow.dinic import DinicSolver, dinic_max_flow
from repro.flow import network as network_module
from repro.flow.network import INFINITY, FlowNetwork


def _random_network(n: int, m: int, seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    network = FlowNetwork(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            network.add_edge(u, v, rng.randint(1, 10))
    return network


class TestFlowNetwork:
    def test_add_edge_and_arc_count(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 3.0)
        assert net.num_arcs == 4  # each edge stores a residual partner

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_edge(0, 1, -1.0)

    def test_node_out_of_range(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_edge(0, 5, 1.0)

    def test_add_node(self):
        net = FlowNetwork(1)
        new = net.add_node()
        assert new == 1
        net.add_edge(0, 1, 1.0)

    def test_arc_flow_and_reset(self):
        net = FlowNetwork(3)
        arc = net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 3.0)
        flow = dinic_max_flow(net, 0, 2)
        assert flow == pytest.approx(3.0)
        assert net.arc_flow(arc) == pytest.approx(3.0)
        net.reset_flow()
        assert net.arc_flow(arc) == pytest.approx(0.0)

    def test_arcs_iteration_reports_flow(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 4.0)
        dinic_max_flow(net, 0, 1)
        arcs = list(net.arcs())
        assert len(arcs) == 1
        assert arcs[0].capacity == pytest.approx(4.0)
        assert arcs[0].flow == pytest.approx(4.0)

    def test_infinite_capacity_arc_reports_finite_flow(self):
        """Regression: flow on an INFINITY arc must not be ``inf - inf = nan``."""
        net = FlowNetwork(3)
        arc = net.add_edge(0, 1, INFINITY)
        net.add_edge(1, 2, 5.0)
        assert dinic_max_flow(net, 0, 2) == pytest.approx(5.0)
        assert net.arc_flow(arc) == pytest.approx(5.0)
        inf_arcs = [a for a in net.arcs() if a.capacity == INFINITY]
        assert len(inf_arcs) == 1
        assert not math.isnan(inf_arcs[0].flow)
        assert inf_arcs[0].flow == pytest.approx(5.0)

    def test_set_capacity_retunes_in_place(self):
        net = FlowNetwork(3)
        arc = net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 3.0)
        assert dinic_max_flow(net, 0, 2) == pytest.approx(3.0)
        net.set_capacity(arc, 1.0)
        net.reset_flow()
        assert dinic_max_flow(net, 0, 2) == pytest.approx(1.0)
        with pytest.raises(FlowError):
            net.set_capacity(arc + 1, 1.0)  # reverse arcs are not retunable
        with pytest.raises(FlowError):
            net.set_capacity(arc, -1.0)

    def test_add_edge_rejects_nan_capacity(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError, match="capacity"):
            net.add_edge(0, 1, math.nan)
        assert net.num_arcs == 0
        net.add_edge(0, 1, INFINITY)  # +inf stays legal
        assert net.num_arcs == 2

    def test_set_capacity_rejects_nan(self):
        net = FlowNetwork(2)
        arc = net.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError, match="capacity"):
            net.set_capacity(arc, math.nan)
        assert net.arc_base_capacity(arc) == 1.0

    def test_csr_views_consistent_after_add_node(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 1.0)
        new = net.add_node()
        net.add_edge(1, new, 2.0)
        heads, targets = net.solver_views()
        assert len(heads) == 3
        assert [targets[a] for a in heads[1]] == [0, new]  # residual + forward
        assert dinic_max_flow(net, 0, new) == pytest.approx(1.0)


needs_numpy = pytest.mark.skipif(network_module._np is None, reason="numpy not importable")


@pytest.fixture(params=["numpy", "scalar"])
def column_path(request, monkeypatch):
    """Run a paired-arc test on the numpy columns and on the scalar fallback."""
    if request.param == "scalar":
        monkeypatch.setattr(network_module, "_np", None)
    elif network_module._np is None:
        pytest.skip("numpy not importable")
    return request.param


def _bad_columns(column: str, bad: float) -> tuple[list[float], list[float]]:
    """One paired arc ``1 -> 2`` whose ``column`` holds ``bad`` on the forward arc."""
    capacities, base = [1.0, 0.0], [1.0, 0.0]
    (capacities if column == "capacities" else base)[0] = bad
    return capacities, base


@pytest.mark.parametrize("column", ["capacities", "base"])
@pytest.mark.parametrize("bad", [-1.0, math.nan])
class TestPairedArcCapacities:
    def test_append_rejects_and_leaves_the_network_untouched(self, column_path, column, bad):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 1.0)
        before = [(a.source, a.target, a.capacity, a.flow) for a in net.arcs()]
        capacities, base = _bad_columns(column, bad)
        with pytest.raises(FlowError, match="capacity"):
            net.append_paired_arcs([1, 2], [2, 1], capacities, base)
        assert net.num_arcs == 2
        assert [(a.source, a.target, a.capacity, a.flow) for a in net.arcs()] == before
        net.append_paired_arcs([1, 2], [2, 1], [1.0, 0.0], [1.0, 0.0])
        assert dinic_max_flow(net, 0, 2) == 1.0

    def test_attach_rejects(self, column_path, column, bad):
        """An empty network loaded with copied arc columns in one call rejects them too."""
        net = FlowNetwork(3)
        capacities, base = _bad_columns(column, bad)
        with pytest.raises(FlowError, match="capacity"):
            net.append_paired_arcs([1, 2], [2, 1], capacities, base)
        assert net.num_arcs == 0


@needs_numpy
class TestAppendPairedArcs:
    def _by_add_edge(self, arcs):
        network = FlowNetwork(4)
        for tail, target, capacity in arcs:
            network.add_edge(tail, target, capacity)
        return network

    def test_matches_add_edge_construction(self):
        import numpy as np

        arcs = [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 4.0), (0, 3, 0.5)]
        expected = self._by_add_edge(arcs)
        network = FlowNetwork(4)
        exp_starts, exp_order, exp_targets, exp_caps, exp_tails, exp_base = (
            expected.numpy_csr()
        )
        first = network.append_paired_arcs(
            exp_tails.copy(), exp_targets.copy(), exp_caps.copy(), exp_base.copy()
        )
        assert first == 0
        starts, order, targets, caps, tails, base = network.numpy_csr()
        assert np.array_equal(starts, exp_starts)
        assert np.array_equal(order, exp_order)
        assert np.array_equal(targets, exp_targets)
        assert np.array_equal(caps, exp_caps)
        assert np.array_equal(tails, exp_tails)
        assert np.array_equal(base, exp_base)

    def test_rejects_unpaired_and_mismatched_columns(self):
        import numpy as np

        network = FlowNetwork(3)
        with pytest.raises(FlowError, match="even number"):
            network.append_paired_arcs(
                np.array([0]), np.array([1]), np.array([1.0]), np.array([1.0])
            )
        with pytest.raises(FlowError, match="length"):
            network.append_paired_arcs(
                np.array([0, 1]), np.array([1, 0]), np.array([1.0]), np.array([1.0, 0.0])
            )

    def test_out_of_range_nodes_roll_back_cleanly(self):
        import numpy as np

        network = FlowNetwork(3)
        network.add_edge(0, 1, 1.0)
        before = network.num_arcs
        for bad in (5, -1):
            with pytest.raises(FlowError, match=f"node {bad} out of range"):
                network.append_paired_arcs(
                    np.array([1, bad], dtype=np.int64),
                    np.array([bad, 1], dtype=np.int64),
                    np.array([1.0, 0.0]),
                    np.array([1.0, 0.0]),
                )
            assert network.num_arcs == before
        # The network stays fully usable after the rollback.
        network.add_edge(1, 2, 2.0)
        assert network.num_arcs == before + 2


@needs_numpy
class TestZeroCopyViews:
    def test_view_writes_are_visible_through_the_network(self):
        network = FlowNetwork(3)
        first = network.add_edge(0, 1, 4.0)
        network.add_edge(1, 2, 2.0)
        _, _, _, caps, _, _ = network.numpy_csr()
        caps[first] = 1.25
        assert network.arc_capacities[first] == 1.25
        # ... and network-side writes are visible through the view.
        network.reset_flow()
        assert caps[first] == 4.0

    def test_views_cached_per_topology_and_invalidated_on_growth(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 1.0)
        assert network.numpy_csr()[3] is network.numpy_csr()[3]
        # Growing the topology drops the cached views; the fresh ones cover
        # the new arcs.  (No caller holds the old views here — a held view
        # pins the buffer, see the test below.)
        network.add_edge(1, 0, 1.0)
        assert len(network.numpy_csr()[3]) == 4

    def test_held_view_blocks_topology_growth(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 1.0)
        caps_view = network.numpy_csr()[3]
        # A live zero-copy view pins the underlying buffer: growing the
        # network mid-solve is a caller error and fails loudly.
        with pytest.raises(BufferError):
            network.add_edge(1, 0, 1.0)
        # The refused append must be all-or-nothing: the parallel arc
        # arrays stay aligned, and after the view is released the next
        # edge gets the even index the twin-pairing contract requires.
        assert network.num_arcs == 2
        del caps_view
        arc = network.add_edge(1, 0, 1.0)
        assert arc == 2 and arc % 2 == 0
        assert network.num_arcs == 4
        assert network.arc_flow(arc) == 0.0


class TestDinicBasics:
    def test_single_path(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3.0)
        net.add_edge(1, 2, 2.0)
        net.add_edge(2, 3, 5.0)
        assert dinic_max_flow(net, 0, 3) == pytest.approx(2.0)

    def test_parallel_paths(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3.0)
        net.add_edge(1, 3, 3.0)
        net.add_edge(0, 2, 4.0)
        net.add_edge(2, 3, 2.0)
        assert dinic_max_flow(net, 0, 3) == pytest.approx(5.0)

    def test_classic_textbook_network(self):
        # CLRS-style example with a known max flow of 23.
        net = FlowNetwork(6)
        net.add_edge(0, 1, 16)
        net.add_edge(0, 2, 13)
        net.add_edge(1, 2, 10)
        net.add_edge(2, 1, 4)
        net.add_edge(1, 3, 12)
        net.add_edge(3, 2, 9)
        net.add_edge(2, 4, 14)
        net.add_edge(4, 3, 7)
        net.add_edge(3, 5, 20)
        net.add_edge(4, 5, 4)
        assert dinic_max_flow(net, 0, 5) == pytest.approx(23.0)

    def test_disconnected_sink(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        assert dinic_max_flow(net, 0, 2) == pytest.approx(0.0)

    def test_infinite_capacity_edge(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, INFINITY)
        net.add_edge(1, 2, 7.0)
        assert dinic_max_flow(net, 0, 2) == pytest.approx(7.0)

    def test_source_equals_sink_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            DinicSolver(net, 0, 0)

    def test_min_cut_separates_source_from_sink(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 10.0)
        net.add_edge(2, 3, 10.0)
        solver = DinicSolver(net, 0, 3)
        solver.max_flow()
        side = solver.min_cut_source_side()
        assert 0 in side
        assert 3 not in side

    def test_min_cut_value_matches_crossing_capacity(self):
        net = _random_network(8, 20, seed=1)
        solver = DinicSolver(net, 0, 7)
        flow = solver.max_flow()
        source_side = set(solver.min_cut_source_side())
        net.reset_flow()
        crossing = sum(
            arc.capacity
            for arc in net.arcs()
            if arc.source in source_side and arc.target not in source_side
        )
        assert flow == pytest.approx(crossing)


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_dinic_matches_edmonds_karp(self, seed):
        net_a = _random_network(10, 30, seed=seed)
        net_b = _random_network(10, 30, seed=seed)
        assert dinic_max_flow(net_a, 0, 9) == pytest.approx(
            edmonds_karp_max_flow(net_b, 0, 9)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_dinic_matches_networkx(self, seed):
        networkx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        nx_graph = networkx.DiGraph()
        net = FlowNetwork(9)
        nx_graph.add_nodes_from(range(9))
        for _ in range(25):
            u, v = rng.randrange(9), rng.randrange(9)
            if u == v:
                continue
            capacity = rng.randint(1, 9)
            if not nx_graph.has_edge(u, v):
                nx_graph.add_edge(u, v, capacity=capacity)
                net.add_edge(u, v, capacity)
        expected = networkx.maximum_flow_value(nx_graph, 0, 8) if nx_graph.number_of_edges() else 0
        assert dinic_max_flow(net, 0, 8) == pytest.approx(float(expected))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_dinic_equals_edmonds_karp(self, seed):
        net_a = _random_network(7, 16, seed=seed)
        net_b = _random_network(7, 16, seed=seed)
        flow_a = dinic_max_flow(net_a, 0, 6)
        flow_b = edmonds_karp_max_flow(net_b, 0, 6)
        assert flow_a == pytest.approx(flow_b)
