"""Cross-solver property tests for the flow engine.

The one min-cut solver, ``dinic``, and the test suite's Edmonds–Karp oracle
(``tests/flow_oracle.py``) must agree on the max-flow value of randomly
generated networks with mixed unit / float / infinite capacities, and the
min-cut certificate each solver extracts must certify the value: the total
original capacity crossing from the source side to the sink side equals the
flow (max-flow = min-cut).  Independent implementations agreeing on ~50
seeded random instances is a strong correctness signal for both; the
hypothesis-driven :class:`TestHypothesisCrossSolver` searches the network
space adversarially instead of sampling it from fixed seeds.

Every solver continues from the flow its network already holds and
returns the *total* value, so solving an already-solved network again must
reproduce the same value and cut.
"""

from __future__ import annotations

import random

import pytest
from flow_oracle import (
    CHECKED_SOLVERS,
    ORACLE_SOLVER,
    EdmondsKarpSolver,
    RestartDinicSolver,
    copy_network,
    forward_arcs,
    network_from_arcs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExactConfig, FlowConfig, strip_solver_name
from repro.exceptions import ConfigError, DeadlineExceeded, FlowError
from repro.flow.dinic import DinicSolver
from repro.flow.engine import FlowEngine
from repro.flow.network import INFINITY, FlowNetwork
from repro.graph.generators import gnm_random_digraph
from repro.runtime import Deadline
from repro.session import DDSSession

NUM_SEEDED_NETWORKS = 50
#: ``dinic`` first, the reference, then the oracle.
SOLVERS = {"dinic": DinicSolver, ORACLE_SOLVER: EdmondsKarpSolver}


def _mixed_capacity_network(seed: int) -> FlowNetwork:
    """A random network mixing unit, float, and infinite capacities.

    Node 0 is the source and node ``n - 1`` the sink.  Infinite capacities
    are only placed on arcs between interior nodes, mirroring the DDS
    decision networks (where only node-splitting arcs are uncuttable), so
    the max flow stays finite.
    """
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    m = rng.randint(2 * n, 4 * n)
    arcs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        kind = rng.random()
        interior = u not in (0, n - 1) and v not in (0, n - 1)
        if kind < 0.2 and interior:
            capacity = INFINITY
        elif kind < 0.6:
            capacity = float(rng.randint(1, 4))  # unit-ish integer capacity
        else:
            capacity = rng.uniform(0.1, 10.0)
        arcs.append((u, v, capacity))
    return network_from_arcs(n, arcs)


def _crossing_capacity(network: FlowNetwork, source_side: list[int]) -> float:
    side = set(source_side)
    return sum(
        capacity
        for tail, target, capacity, _ in forward_arcs(network)
        if tail in side and target not in side
    )


class TestRegistry:
    """What is left of the solver registry: every engine runs ``dinic``, and no other name."""

    def test_builtin_solvers_registered(self):
        assert FlowEngine.solver_class is DinicSolver
        assert FlowEngine().solver_class is DinicSolver

    def test_unknown_solver_rejected(self):
        with pytest.raises(FlowError, match="unknown flow solver 'no-such-solver'"):
            strip_solver_name("no-such-solver")


class TestAutoSolverName:
    """``"auto"`` and ``"dinic"`` are still accepted where callers pass them, and select nothing."""

    def test_config_accepts_auto_and_rejects_unknown(self):
        assert strip_solver_name("auto") is None
        assert strip_solver_name("dinic") is None
        assert strip_solver_name(None) is None
        budget = FlowConfig(deadline_ms=5)
        assert strip_solver_name(budget) is budget
        for unknown in ("no-such-backend", "edmonds-karp", "", 5):
            with pytest.raises(FlowError, match="unknown flow solver"):
                strip_solver_name(unknown)
        # Configs name no solver at all.
        with pytest.raises(TypeError):
            FlowConfig(solver="auto")
        with pytest.raises(ConfigError, match="flow must be a FlowConfig"):
            ExactConfig(flow="auto")

    def test_session_auto_matches_dinic(self):
        graph = gnm_random_digraph(16, 60, seed=7)
        sessions = [DDSSession(graph.copy(), flow=flow) for flow in ("auto", "dinic", None)]
        results = [session.densest_subgraph("dc-exact") for session in sessions]
        for result in results:
            assert result.s_nodes == results[0].s_nodes
            assert result.t_nodes == results[0].t_nodes
            assert result.density == results[0].density
            assert result.stats == results[0].stats
            assert "flow_solver" not in result.stats
        assert results[0].stats["flow_calls"] > 0
        for session in sessions:
            assert session.flow == FlowConfig()


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", range(NUM_SEEDED_NETWORKS))
    def test_all_solvers_agree_and_certify(self, seed):
        n = _mixed_capacity_network(seed).num_nodes
        source, sink = 0, n - 1
        values: dict[str, float] = {}
        for name in CHECKED_SOLVERS:
            network = _mixed_capacity_network(seed)
            solver = SOLVERS[name](network, source, sink)
            flow = solver.max_flow()
            values[name] = flow
            # The min-cut source side certifies the flow value.
            side = solver.min_cut_source_side()
            assert source in side
            assert sink not in side
            assert _crossing_capacity(network, side) == pytest.approx(flow, abs=1e-6)
            # Instrumentation: the counter is maintained by every solver.
            assert solver.arcs_pushed >= 0
        reference = values[CHECKED_SOLVERS[0]]
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=1e-6), (
                f"{name} disagrees with {CHECKED_SOLVERS[0]} on seed {seed}"
            )


@st.composite
def _network_description(draw):
    """A hypothesis-built network: node count plus an arbitrary arc list.

    Capacities mix integers, awkward floats, and (on interior arcs only,
    keeping the max flow finite) ``INFINITY`` — the same regimes the seeded
    generator covers, but with hypothesis free to shrink and to probe
    corners such as parallel arcs, zero capacities, and dangling nodes.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.one_of(
                    st.integers(min_value=0, max_value=6).map(float),
                    st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=32),
                    st.just(INFINITY),
                ),
            ),
            max_size=30,
        )
    )
    return n, arcs


def _build_from_description(description) -> FlowNetwork:
    n, arcs = description
    kept = []
    for u, v, capacity in arcs:
        if u == v:
            continue
        if capacity == INFINITY and (u in (0, n - 1) or v in (0, n - 1)):
            capacity = 4.0  # keep the max flow finite, like the seeded generator
        kept.append((u, v, capacity))
    return network_from_arcs(n, kept)


class TestHypothesisCrossSolver:
    """Property: every solver agrees on hypothesis-found networks."""

    @settings(max_examples=60, deadline=None)
    @given(description=_network_description())
    def test_all_solvers_agree_and_certify(self, description):
        n = description[0]
        source, sink = 0, n - 1
        values = {}
        sides = {}
        for name in CHECKED_SOLVERS:
            network = _build_from_description(description)
            solver = SOLVERS[name](network, source, sink)
            values[name] = solver.max_flow()
            side = solver.min_cut_source_side()
            sides[name] = side
            assert source in side
            assert sink not in side
            assert _crossing_capacity(network, side) == pytest.approx(
                values[name], abs=1e-6
            )
        reference = values[CHECKED_SOLVERS[0]]
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=1e-6), name
        # The canonical cut (residual reachability) is a max-flow invariant:
        # every solver must produce the same source side, node for node.
        for name, side in sides.items():
            assert side == sides[CHECKED_SOLVERS[0]], name


def _reachable_side(network: FlowNetwork, source: int) -> list[int]:
    return [node for node, flag in enumerate(network.residual_reachable(source)) if flag]


class TestDinicCutSide:
    """Dinic's cut side, read off its final BFS, is the residual-reachable set."""

    @pytest.mark.parametrize("seed", range(NUM_SEEDED_NETWORKS))
    def test_levels_match_residual_reachability(self, seed):
        network = _mixed_capacity_network(seed)
        source, sink = 0, network.num_nodes - 1
        solver = DinicSolver(network, source, sink)
        # Before a completed solve the solver falls back to the walk.
        assert solver.min_cut_source_side() == _reachable_side(network, source)
        solver.max_flow()
        assert solver.min_cut_source_side() == _reachable_side(network, source)

    @settings(max_examples=60, deadline=None)
    @given(description=_network_description())
    def test_cold_and_warm_solves_match_residual_reachability(self, description):
        n = description[0]
        network = _build_from_description(description)
        cold = DinicSolver(network, 0, n - 1)
        cold.max_flow()
        assert cold.min_cut_source_side() == _reachable_side(network, 0)
        # A second solve on the already-maximal flow runs only the final BFS.
        warm = DinicSolver(network, 0, n - 1)
        warm.max_flow()
        assert warm.min_cut_source_side() == _reachable_side(network, 0)


class TestResolveContinuesHeldFlow:
    """Solving an already-solved network returns the total, not the increment."""

    @pytest.mark.parametrize("solver_name", CHECKED_SOLVERS)
    def test_path_network_resolves_to_the_same_value(self, solver_name):
        network = network_from_arcs(4, [(0, 1, 3.0), (1, 2, 5.0), (2, 3, 4.0)])
        solver_class = SOLVERS[solver_name]
        assert solver_class(network, 0, 3).max_flow() == pytest.approx(3.0)
        again = solver_class(network, 0, 3)
        assert again.max_flow() == pytest.approx(3.0)
        assert again.min_cut_source_side() == [0]

    @pytest.mark.parametrize("solver_name", CHECKED_SOLVERS)
    @pytest.mark.parametrize("seed", range(10))
    def test_resolve_matches_first_solve(self, solver_name, seed):
        network = _mixed_capacity_network(seed)
        sink = network.num_nodes - 1
        solver_class = SOLVERS[solver_name]
        first = solver_class(network, 0, sink)
        value = first.max_flow()
        side = first.min_cut_source_side()
        again = solver_class(network, 0, sink)
        assert again.max_flow() == pytest.approx(value, abs=1e-6)
        assert again.min_cut_source_side() == side


def _solve_state(solver_class, network: FlowNetwork, source: int, sink: int) -> tuple:
    """Everything a solve leaves behind, in bit-comparable form."""
    solver = solver_class(network, source, sink)
    value = solver.max_flow()
    return (
        value.hex(),
        bytes(network.arc_capacities),
        solver.arcs_pushed,
        solver.min_cut_source_side(),
    )


def _decision_networks(seed: int):
    """Decision networks at several guesses: cold, and with start flow.

    Yields ``(label, network)`` pairs; each network is a fresh object the
    caller may solve.  The start-flow networks route regardless of size.
    """
    from repro.core import flow_network
    from repro.core.flow_network import build_decision_network
    from repro.core.subproblem import STSubproblem
    from repro.graph.generators import gnm_random_digraph

    rng = random.Random(7000 + seed)
    graph = gnm_random_digraph(rng.randint(5, 14), rng.randint(10, 60), seed=seed)
    subproblem = STSubproblem.from_graph(graph)
    schedule = [(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0]), rng.uniform(0.0, 4.0)) for _ in range(4)]
    for step, (ratio, guess) in enumerate(schedule):
        yield f"cold {step}", build_decision_network(subproblem, ratio, guess).network
        started = build_decision_network(subproblem, ratio, guess)
        saved = flow_network.START_FLOW_MIN_ARCS
        flow_network.START_FLOW_MIN_ARCS = 0
        try:
            started.route_start_flow()
        finally:
            flow_network.START_FLOW_MIN_ARCS = saved
        yield f"start flow {step}", started.network


class TestDinicMatchesRestartReference:
    """The resuming DFS and sink-stopped BFS push exactly the reference's paths.

    :class:`flow_oracle.RestartDinicSolver` restarts every augmenting-path
    search at the source and labels every level graph in full; the
    production solver must agree with it bit for bit: value, residual
    capacities, ``arcs_pushed`` and cut.
    """

    @settings(max_examples=80, deadline=None)
    @given(description=_network_description())
    def test_hypothesis_networks(self, description):
        sink = description[0] - 1
        reference = _solve_state(RestartDinicSolver, _build_from_description(description), 0, sink)
        assert _solve_state(DinicSolver, _build_from_description(description), 0, sink) == reference

    @pytest.mark.parametrize("seed", range(NUM_SEEDED_NETWORKS))
    def test_seeded_mixed_capacity_networks(self, seed):
        sink = _mixed_capacity_network(seed).num_nodes - 1
        reference = _solve_state(RestartDinicSolver, _mixed_capacity_network(seed), 0, sink)
        assert _solve_state(DinicSolver, _mixed_capacity_network(seed), 0, sink) == reference

    @pytest.mark.parametrize("seed", range(12))
    def test_decision_networks(self, seed):
        for label, network in _decision_networks(seed):
            twin = copy_network(network)
            reference = _solve_state(RestartDinicSolver, twin, 0, 1)
            assert _solve_state(DinicSolver, network, 0, 1) == reference, (seed, label)

    @pytest.mark.parametrize("expiring_round", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_deadline_leaves_the_entry_state(self, seed, expiring_round):
        for label, network in _decision_networks(seed):
            entry = bytes(network.arc_capacities)
            readings = iter(range(10_000))
            solver = DinicSolver(network, 0, 1)
            # One reading at construction, one per BFS round after it: the
            # budget runs out at the check before round ``expiring_round``.
            solver.deadline = Deadline(
                float(expiring_round), clock=lambda: next(readings) / 1000.0
            )
            try:
                solver.max_flow()
            except DeadlineExceeded:
                pass
            else:
                # The solve needed fewer rounds than the budget allowed.
                continue
            assert bytes(network.arc_capacities) == entry, (seed, label, expiring_round)


def _unbounded_networks():
    """Networks where infinite-capacity arcs join source 0 to the last node."""
    direct = network_from_arcs(3, [(0, 1, INFINITY), (1, 2, INFINITY), (0, 2, 1.0)])
    # Finite shortest paths first: the infinite path is the longest one.
    detour = network_from_arcs(
        6,
        [
            (0, 5, 2.0),
            (0, 1, 3.0),
            (1, 5, 1.5),
            (0, 2, INFINITY),
            (2, 3, INFINITY),
            (3, 4, INFINITY),
            (4, 5, INFINITY),
            (3, 1, 2.0),
        ],
    )
    return {"direct": direct, "detour": detour}


class TestUnboundedFlow:
    """An infinite-capacity source-sink path is an error, not a corrupt network."""

    @pytest.mark.parametrize("shape", ["direct", "detour"])
    @pytest.mark.parametrize("solver_name", ["dinic"])
    def test_solver_raises_before_touching_the_network(self, solver_name, shape):
        network = _unbounded_networks()[shape]
        sink = network.num_nodes - 1
        entry = bytes(network.arc_capacities)
        with pytest.raises(FlowError, match="unbounded"):
            SOLVERS[solver_name](network, 0, sink).max_flow()
        assert bytes(network.arc_capacities) == entry
