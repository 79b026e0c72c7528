"""Unit and property tests for the push–relabel max-flow solver.

The push–relabel implementation is the vectorised ``numpy-push-relabel``
backend, so the module is skipped where numpy is not importable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.exceptions import FlowError
from repro.flow.dinic import dinic_max_flow
from repro.flow.network import FlowNetwork
from repro.flow.numpy_backend import (
    NumpyPushRelabelSolver,
    numpy_push_relabel_max_flow,
)


def _random_network(n: int, m: int, seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    network = FlowNetwork(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            network.add_edge(u, v, rng.randint(1, 10))
    return network


class TestPushRelabelBasics:
    def test_single_path(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3.0)
        net.add_edge(1, 2, 2.0)
        net.add_edge(2, 3, 5.0)
        assert numpy_push_relabel_max_flow(net, 0, 3) == pytest.approx(2.0)

    def test_parallel_paths(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3.0)
        net.add_edge(1, 3, 3.0)
        net.add_edge(0, 2, 4.0)
        net.add_edge(2, 3, 2.0)
        assert numpy_push_relabel_max_flow(net, 0, 3) == pytest.approx(5.0)

    def test_classic_textbook_network(self):
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
        assert numpy_push_relabel_max_flow(net, 0, 5) == pytest.approx(23.0)

    def test_disconnected_sink(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        assert numpy_push_relabel_max_flow(net, 0, 2) == pytest.approx(0.0)

    def test_source_equals_sink_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            NumpyPushRelabelSolver(net, 1, 1)

    def test_min_cut_side(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 10.0)
        net.add_edge(2, 3, 10.0)
        solver = NumpyPushRelabelSolver(net, 0, 3)
        flow = solver.max_flow()
        side = solver.min_cut_source_side()
        assert flow == pytest.approx(1.0)
        assert 0 in side
        assert 3 not in side


class TestPushRelabelAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dinic_on_random_networks(self, seed):
        net_a = _random_network(9, 28, seed=seed)
        net_b = _random_network(9, 28, seed=seed)
        assert numpy_push_relabel_max_flow(net_a, 0, 8) == pytest.approx(dinic_max_flow(net_b, 0, 8))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_dinic(self, seed):
        net_a = _random_network(7, 18, seed=seed)
        net_b = _random_network(7, 18, seed=seed)
        assert numpy_push_relabel_max_flow(net_a, 0, 6) == pytest.approx(dinic_max_flow(net_b, 0, 6))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_min_cut_matches_flow_value(self, seed):
        net = _random_network(8, 22, seed=seed)
        solver = NumpyPushRelabelSolver(net, 0, 7)
        flow = solver.max_flow()
        source_side = set(solver.min_cut_source_side())
        net.reset_flow()
        crossing = sum(
            arc.capacity
            for arc in net.arcs()
            if arc.source in source_side and arc.target not in source_side
        )
        assert flow == pytest.approx(crossing)
