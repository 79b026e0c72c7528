"""The start flow a cold decision network carries into its first solve.

:meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow` routes a
greedy flow along the network's ``s -> o_u -> t`` and ``s -> o_u -> i_v ->
t`` paths before a cold solve.  These tests pin what it routes and that it
changes nothing a search reports:

* the routed flow is feasible: no residual below zero, conservation at every
  interior node within ``EPSILON``;
* every arc carries what a scalar greedy written here routes, within
  :data:`FLOW_TOLERANCE`, also when the sub-problem's edges are not grouped
  by tail;
* a network below :data:`~repro.core.flow_network.START_FLOW_MIN_ARCS` keeps
  zero flow;
* a fixed-ratio search reports the same outcome with the start flow as with
  it patched out, on ``dinic`` and on the Edmonds–Karp oracle.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from flow_oracle import EdmondsKarpSolver, flow_value, forward_arcs
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_core_exact import TIE_HEAVY_SHAPES

from repro.core import flow_network
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.flow_network import DecisionNetwork, build_decision_network
from repro.core.subproblem import STSubproblem
from repro.flow.dinic import DinicSolver
from repro.flow.engine import FlowEngine
from repro.flow.network import EPSILON
from repro.graph.generators import gnm_random_digraph

#: Allowed gap between a routed arc flow and the scalar greedy's.  The two
#: differ only by the rounding of prefix sums over at most 2 * 132 terms
#: (12 nodes), each at most 2, so every partial sum stays below 512, where
#: one float64 rounding is at most 2**-44; 264 of them stay below 2e-11.
FLOW_TOLERANCE = 2e-11

#: (ratio, guess) probes: both penalty kinds binding, neither, and one each.
PROBES = [(1.0, 0.0), (1.0, 0.7), (0.5, 1.3), (2.0, 2.5), (3.0, 0.2), (0.25, 6.0)]


@pytest.fixture
def route_every_network(monkeypatch):
    """Route the start flow however small the network is."""
    monkeypatch.setattr(flow_network, "START_FLOW_MIN_ARCS", 0)


def _started(subproblem: STSubproblem, ratio: float, guess: float) -> DecisionNetwork:
    decision = build_decision_network(subproblem, ratio, guess)
    decision.route_start_flow()
    return decision


def _scalar_start_flow(subproblem: STSubproblem, ratio: float, guess: float) -> list[float]:
    """Per forward arc flow of the greedy, in the network's arc order."""
    root = math.sqrt(ratio)
    s_penalty, t_penalty = guess / root, guess * root
    out_degree = Counter(u for u, _ in subproblem.edges)
    direct = {u: min(2.0 * out_degree[u], s_penalty) for u in subproblem.s_candidates}
    spare = {u: 2.0 * out_degree[u] - direct[u] for u in subproblem.s_candidates}
    offers = []
    for u, _ in subproblem.edges:
        offer = min(2.0, max(spare[u], 0.0))
        spare[u] -= offer
        offers.append(offer)
    room = {v: t_penalty for v in subproblem.t_candidates}
    routed = []
    for (_, v), offer in zip(subproblem.edges, offers):
        take = min(offer, max(room[v], 0.0))
        room[v] -= take
        routed.append(take)
    source_flow = dict(direct)
    sink_flow = dict.fromkeys(subproblem.t_candidates, 0.0)
    for (u, v), take in zip(subproblem.edges, routed):
        source_flow[u] += take
        sink_flow[v] += take
    flows = []
    for u in subproblem.s_candidates:
        flows += [source_flow[u], direct[u]]
    flows += [sink_flow[v] for v in subproblem.t_candidates]
    return flows + routed


def _check_start_flow(subproblem: STSubproblem, ratio: float, guess: float) -> None:
    decision = _started(subproblem, ratio, guess)
    network = decision.network
    assert min(network.arc_capacities) >= 0.0
    balance = [0.0] * network.num_nodes
    arcs = forward_arcs(network)
    for tail, target, _, flow in arcs:
        balance[tail] -= flow
        balance[target] += flow
    for node in range(2, network.num_nodes):
        assert abs(balance[node]) <= EPSILON, node
    routed = [flow for *_, flow in arcs]
    expected = _scalar_start_flow(subproblem, ratio, guess)
    assert routed == pytest.approx(expected, rel=0.0, abs=FLOW_TOLERANCE)


def _unordered(subproblem: STSubproblem, seed: int) -> STSubproblem:
    """The same sub-problem with its edges shuffled out of tail order."""
    edges = list(subproblem.edges)
    random.Random(seed).shuffle(edges)
    return STSubproblem(subproblem.graph, subproblem.s_candidates, subproblem.t_candidates, edges)


#: The fixtures these hypothesis tests use set the same state for every example.
SHARED_FIXTURES = [HealthCheck.function_scoped_fixture]


@pytest.mark.usefixtures("route_every_network")
class TestStartFlowIsTheGreedy:
    @settings(max_examples=40, deadline=None, suppress_health_check=SHARED_FIXTURES)
    @given(
        n=st.integers(min_value=2, max_value=12),
        m=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
        probe=st.sampled_from(PROBES),
        shuffle=st.booleans(),
    )
    def test_hypothesis_graphs(self, n, m, seed, probe, shuffle):
        subproblem = STSubproblem.from_graph(gnm_random_digraph(n, m, seed=seed))
        if subproblem.is_empty:
            return
        if shuffle:
            subproblem = _unordered(subproblem, seed)
        _check_start_flow(subproblem, *probe)

    @pytest.mark.parametrize("shape", list(TIE_HEAVY_SHAPES))
    def test_tie_heavy_shapes(self, shape):
        subproblem = STSubproblem.from_graph(TIE_HEAVY_SHAPES[shape]())
        for probe in PROBES:
            _check_start_flow(subproblem, *probe)
            _check_start_flow(_unordered(subproblem, 3), *probe)

    def test_edges_out_of_tail_order(self):
        graph = gnm_random_digraph(9, 40, seed=4)
        grouped = STSubproblem.from_graph(graph)
        unordered = _unordered(grouped, 11)
        assert [u for u, _ in unordered.edges] != sorted(u for u, _ in unordered.edges)
        for probe in PROBES:
            _check_start_flow(unordered, *probe)


def test_small_network_keeps_zero_flow():
    subproblem = STSubproblem.from_graph(gnm_random_digraph(8, 20, seed=2))
    decision = _started(subproblem, 1.0, 1.0)
    assert decision.num_arcs < flow_network.START_FLOW_MIN_ARCS
    assert list(decision.network.arc_capacities) == list(
        build_decision_network(subproblem, 1.0, 1.0).network.arc_capacities
    )
    assert flow_value(decision.network, decision.source) == 0.0


def test_large_network_starts_with_flow():
    subproblem = STSubproblem.from_graph(gnm_random_digraph(40, 200, seed=2))
    decision = _started(subproblem, 1.0, 1.0)
    assert decision.num_arcs >= flow_network.START_FLOW_MIN_ARCS
    assert flow_value(decision.network, decision.source) > 0.0


def _search_outcomes(graph) -> list[tuple]:
    subproblem = STSubproblem.from_graph(graph)
    upper = math.sqrt(max(graph.num_edges, 1)) + 1.0
    outcomes = []
    for ratio in (0.5, 1.0, 1.5, 3.0):
        outcome = maximize_fixed_ratio(
            subproblem, ratio, 0.0, upper, 1e-6, engine=FlowEngine()
        )
        outcomes.append(
            (
                outcome.lower,
                outcome.upper,
                outcome.best_s,
                outcome.best_t,
                outcome.last_s,
                outcome.last_t,
                outcome.flow_calls,
                outcome.networks_built,
                outcome.network_arcs,
            )
        )
    return outcomes


@pytest.mark.usefixtures("route_every_network")
class TestSearchOutcomeUnchanged:
    """Patching the start flow out changes no search outcome, on either solver."""

    SOLVERS = (DinicSolver, EdmondsKarpSolver)

    def _compare(self, graph, monkeypatch):
        for solver_class in self.SOLVERS:
            with monkeypatch.context() as patch:
                patch.setattr(FlowEngine, "solver_class", solver_class)
                with_start = _search_outcomes(graph)
                patch.setattr(DecisionNetwork, "route_start_flow", lambda self: None)
                without = _search_outcomes(graph)
            assert with_start == without, solver_class.__name__

    @settings(max_examples=15, deadline=None, suppress_health_check=SHARED_FIXTURES)
    @given(
        n=st.integers(min_value=3, max_value=10),
        m=st.integers(min_value=2, max_value=35),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_hypothesis_graphs(self, n, m, seed, monkeypatch):
        self._compare(gnm_random_digraph(n, m, seed=seed), monkeypatch)

    @pytest.mark.parametrize("shape", list(TIE_HEAVY_SHAPES))
    def test_tie_heavy_shapes(self, shape, monkeypatch):
        self._compare(TIE_HEAVY_SHAPES[shape](), monkeypatch)
