"""Unit and property tests for the max-flow substrate."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from flow_oracle import edmonds_karp_max_flow, forward_arcs, network_from_arcs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FlowError
from repro.flow.dinic import DinicSolver, dinic_max_flow
from repro.flow.network import INFINITY, FlowNetwork, FlowTopology


def _random_network(n: int, m: int, seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    arcs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.append((u, v, rng.randint(1, 10)))
    return network_from_arcs(n, arcs)


class TestFlowTopology:
    def test_negative_node_count_rejected(self):
        with pytest.raises(FlowError, match="num_nodes must be >= 0"):
            FlowTopology(-1, [], [])

    def test_twins_must_run_in_reverse(self):
        # Arc 1 runs 2 -> 0 instead of 1 -> 0, the reverse of arc 0.
        with pytest.raises(FlowError, match="arc i \\^ 1"):
            FlowTopology(3, [0, 2, 1, 2], [1, 0, 2, 1])

    def test_rejects_unpaired_and_mismatched_columns(self):
        with pytest.raises(FlowError, match="even length"):
            FlowTopology(3, [0], [1])
        with pytest.raises(FlowError, match="even length"):
            FlowTopology(3, [0, 1], [1])

    def test_columns_are_read_only_copies(self):
        tails, targets = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])
        topology = FlowTopology(3, tails, targets)
        tails[0] = 2
        assert topology.tails.tolist() == [0, 1, 1, 2]
        assert topology.starts.tolist() == [0, 1, 3, 4]
        assert topology.order.tolist() == [0, 1, 2, 3]
        for column in (topology.tails, topology.targets, topology.starts, topology.order):
            assert column.dtype == np.int64 and not column.flags.writeable

    def test_empty_topology(self):
        network = FlowNetwork(FlowTopology(2, [], []), [])
        assert network.num_arcs == 0
        assert dinic_max_flow(network, 0, 1) == 0.0
        network.reset_flow()


class TestFlowNetwork:
    def test_arc_count(self):
        net = network_from_arcs(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert net.num_arcs == 4  # each edge stores a residual partner

    def test_negative_capacity_rejected(self):
        with pytest.raises(FlowError, match="capacity must be >= 0"):
            FlowNetwork(FlowTopology(2, [0, 1], [1, 0]), [-1.0, 0.0])

    def test_node_out_of_range(self):
        with pytest.raises(FlowError, match="out of range"):
            FlowTopology(2, [0, 5], [5, 0])

    def test_arc_flow_and_reset(self):
        net = network_from_arcs(3, [(0, 1, 5.0), (1, 2, 3.0)])
        flow = dinic_max_flow(net, 0, 2)
        assert flow == pytest.approx(3.0)
        assert forward_arcs(net)[0][3] == pytest.approx(3.0)
        net.reset_flow()
        assert [flow for *_, flow in forward_arcs(net)] == [0.0, 0.0]
        assert net.arc_capacities.tolist() == [5.0, 0.0, 3.0, 0.0]

    def test_arcs_iteration_reports_flow(self):
        """The residual twin of a forward arc holds the flow it carries."""
        net = network_from_arcs(2, [(0, 1, 4.0)])
        dinic_max_flow(net, 0, 1)
        assert forward_arcs(net) == [(0, 1, 4.0, 4.0)]

    def test_infinite_capacity_arc_reports_finite_flow(self):
        """Regression: flow on an INFINITY arc must not be ``inf - inf = nan``."""
        net = network_from_arcs(3, [(0, 1, INFINITY), (1, 2, 5.0)])
        assert dinic_max_flow(net, 0, 2) == pytest.approx(5.0)
        inf_arcs = [a for a in forward_arcs(net) if a[2] == INFINITY]
        assert len(inf_arcs) == 1
        assert not math.isnan(inf_arcs[0][3])
        assert inf_arcs[0][3] == pytest.approx(5.0)
        assert net.arc_capacities[0] == INFINITY

    def test_add_edge_rejects_nan_capacity(self):
        """An edge whose capacity is NaN is refused; ``+inf`` stays legal."""
        topology = FlowTopology(2, [0, 1], [1, 0])
        with pytest.raises(FlowError, match="capacity"):
            FlowNetwork(topology, [math.nan, 0.0])
        assert FlowNetwork(topology, [INFINITY, 0.0]).num_arcs == 2

    def test_rejects_a_capacity_count_other_than_the_arc_count(self):
        topology = FlowTopology(2, [0, 1], [1, 0])
        for capacities in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
            with pytest.raises(FlowError, match="expected 2 capacities"):
                FlowNetwork(topology, capacities)

    def test_capacities_are_copied_and_retuned_in_place(self):
        base = np.array([4.0, 0.0])
        network = FlowNetwork(FlowTopology(2, [0, 1], [1, 0]), base)
        base[0] = 1.0
        assert network.base_capacities.tolist() == network.arc_capacities.tolist() == [4.0, 0.0]
        network.base_capacities[0] = 2.0
        network.reset_flow()
        assert dinic_max_flow(network, 0, 1) == 2.0


@pytest.fixture(params=["numpy", "list"])
def column_kind(request):
    """Hand the constructors their columns as numpy arrays or as plain lists."""
    return np.asarray if request.param == "numpy" else list


@pytest.mark.parametrize("column", ["base"])
@pytest.mark.parametrize("bad", [-1.0, math.nan])
class TestPairedArcCapacities:
    def test_attach_rejects(self, column_kind, column, bad):
        """Capacities attached to a topology reject ``bad`` on either arc of a pair.

        ``column`` names the capacity column a network is built from; its
        residual column is not an input but starts as a copy of it.
        """
        topology = FlowTopology(3, column_kind([1, 2]), column_kind([2, 1]))
        for capacities in ([bad, 0.0], [1.0, bad]):
            with pytest.raises(FlowError, match="capacity"):
                FlowNetwork(topology, **{f"{column}_capacities": column_kind(capacities)})
        network = FlowNetwork(topology, **{f"{column}_capacities": column_kind([1.0, 0.0])})
        assert dinic_max_flow(network, 1, 2) == 1.0


class TestAppendPairedArcs:
    """Arcs handed to :class:`FlowTopology` in pairs, as whole columns."""

    def test_out_of_range_nodes_roll_back_cleanly(self):
        for bad in (5, -1):
            tails = np.array([0, 1, 1, bad], dtype=np.int64)
            targets = np.array([1, 0, bad, 1], dtype=np.int64)
            with pytest.raises(FlowError, match="out of range"):
                FlowTopology(3, tails, targets)
            # The refused build leaves the caller's columns as they were.
            assert tails.flags.writeable and targets.flags.writeable
            assert tails.tolist() == [0, 1, 1, bad] and targets.tolist() == [1, 0, bad, 1]
        # ... so they can be mended and built from again.
        tails[3] = targets[2] = 2
        network = FlowNetwork(FlowTopology(3, tails, targets), [1.0, 0.0, 2.0, 0.0])
        assert dinic_max_flow(network, 0, 2) == 1.0


class TestDinicBasics:
    def test_single_path(self):
        net = network_from_arcs(4, [(0, 1, 3.0), (1, 2, 2.0), (2, 3, 5.0)])
        assert dinic_max_flow(net, 0, 3) == pytest.approx(2.0)

    def test_parallel_paths(self):
        net = network_from_arcs(4, [(0, 1, 3.0), (1, 3, 3.0), (0, 2, 4.0), (2, 3, 2.0)])
        assert dinic_max_flow(net, 0, 3) == pytest.approx(5.0)

    def test_classic_textbook_network(self):
        # CLRS-style example with a known max flow of 23.
        net = network_from_arcs(
            6,
            [
                (0, 1, 16),
                (0, 2, 13),
                (1, 2, 10),
                (2, 1, 4),
                (1, 3, 12),
                (3, 2, 9),
                (2, 4, 14),
                (4, 3, 7),
                (3, 5, 20),
                (4, 5, 4),
            ],
        )
        assert dinic_max_flow(net, 0, 5) == pytest.approx(23.0)

    def test_disconnected_sink(self):
        net = network_from_arcs(3, [(0, 1, 5.0)])
        assert dinic_max_flow(net, 0, 2) == pytest.approx(0.0)

    def test_infinite_capacity_edge(self):
        net = network_from_arcs(3, [(0, 1, INFINITY), (1, 2, 7.0)])
        assert dinic_max_flow(net, 0, 2) == pytest.approx(7.0)

    def test_source_equals_sink_rejected(self):
        net = network_from_arcs(2, [])
        with pytest.raises(FlowError):
            DinicSolver(net, 0, 0)

    def test_min_cut_separates_source_from_sink(self):
        net = network_from_arcs(4, [(0, 1, 1.0), (1, 2, 10.0), (2, 3, 10.0)])
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
            capacity
            for tail, target, capacity, _ in forward_arcs(net)
            if tail in source_side and target not in source_side
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
        arcs = []
        nx_graph.add_nodes_from(range(9))
        for _ in range(25):
            u, v = rng.randrange(9), rng.randrange(9)
            if u == v:
                continue
            capacity = rng.randint(1, 9)
            if not nx_graph.has_edge(u, v):
                nx_graph.add_edge(u, v, capacity=capacity)
                arcs.append((u, v, capacity))
        net = network_from_arcs(9, arcs)
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
