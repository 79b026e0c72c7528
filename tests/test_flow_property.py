"""Cross-solver property tests for the flow engine.

Every registered solver must agree on the max-flow value of randomly
generated networks with mixed unit / float / infinite capacities, and the
min-cut certificate each solver extracts must certify the value: the total
original capacity crossing from the source side to the sink side equals the
flow (max-flow = min-cut).  Three independent implementations agreeing on
~50 seeded random instances is a strong correctness signal for all of them.

Every solver continues from the flow its network already holds and
returns the *total* value, so solving an already-solved network again must
reproduce the same value and cut.  The warm/cold equivalence class extends
the same idea to warm retunes: on random *decision* networks (the DAGs the
DDS reduction produces), a chain of warm retunes and solves must reproduce,
guess for guess, the cut values and extracted pairs of cold
rebuild-and-solve runs — for every registered solver.

Because every class parametrises over ``available_flow_solvers()``, the
vectorised ``numpy-push-relabel`` backend is covered automatically exactly
when numpy is importable (the registry lists it only then) — including by
the hypothesis-driven :class:`TestHypothesisCrossSolver`, which searches the
network space adversarially instead of sampling it from fixed seeds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.network import INFINITY, FlowNetwork
from repro.flow.registry import available_flow_solvers, get_solver_class

NUM_SEEDED_NETWORKS = 50
SOLVER_NAMES = available_flow_solvers()


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
    network = FlowNetwork(n)
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
        network.add_edge(u, v, capacity)
    return network


def _crossing_capacity(network: FlowNetwork, source_side: list[int]) -> float:
    side = set(source_side)
    return sum(
        arc.capacity
        for arc in network.arcs()
        if arc.source in side and arc.target not in side
    )


class TestRegistry:
    def test_three_builtin_solvers_registered(self):
        assert {"dinic", "push-relabel", "edmonds-karp"} <= set(SOLVER_NAMES)

    def test_unknown_solver_rejected(self):
        from repro.exceptions import FlowError

        with pytest.raises(FlowError):
            get_solver_class("no-such-solver")

    def test_register_and_unregister(self):
        from repro.flow.registry import register_solver, unregister_solver

        class Fake:
            def __init__(self, network, source, sink):
                pass

            def max_flow(self):
                return 0.0

            def min_cut_source_side(self):
                return [0]

        register_solver("fake", Fake)
        try:
            assert get_solver_class("fake") is Fake
        finally:
            unregister_solver("fake")
        assert "fake" not in available_flow_solvers()

    def test_register_rejects_incomplete_class(self):
        from repro.exceptions import FlowError
        from repro.flow.registry import register_solver

        class NotASolver:
            pass

        with pytest.raises(FlowError):
            register_solver("bad", NotASolver)


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", range(NUM_SEEDED_NETWORKS))
    def test_all_solvers_agree_and_certify(self, seed):
        n = _mixed_capacity_network(seed).num_nodes
        source, sink = 0, n - 1
        values: dict[str, float] = {}
        for name in SOLVER_NAMES:
            network = _mixed_capacity_network(seed)
            solver = get_solver_class(name)(network, source, sink)
            flow = solver.max_flow()
            values[name] = flow
            # The min-cut source side certifies the flow value.
            side = solver.min_cut_source_side()
            assert source in side
            assert sink not in side
            assert _crossing_capacity(network, side) == pytest.approx(flow, abs=1e-6)
            # Instrumentation: the counter is maintained by every solver.
            assert solver.arcs_pushed >= 0
        reference = values[SOLVER_NAMES[0]]
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=1e-6), (
                f"{name} disagrees with {SOLVER_NAMES[0]} on seed {seed}"
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
    network = FlowNetwork(n)
    for u, v, capacity in arcs:
        if u == v:
            continue
        if capacity == INFINITY and (u in (0, n - 1) or v in (0, n - 1)):
            capacity = 4.0  # keep the max flow finite, like the seeded generator
        network.add_edge(u, v, capacity)
    return network


class TestHypothesisCrossSolver:
    """Property: every registered solver agrees on hypothesis-found networks."""

    @settings(max_examples=60, deadline=None)
    @given(description=_network_description())
    def test_all_solvers_agree_and_certify(self, description):
        n = description[0]
        source, sink = 0, n - 1
        values = {}
        sides = {}
        for name in SOLVER_NAMES:
            network = _build_from_description(description)
            solver = get_solver_class(name)(network, source, sink)
            values[name] = solver.max_flow()
            side = solver.min_cut_source_side()
            sides[name] = side
            assert source in side
            assert sink not in side
            assert _crossing_capacity(network, side) == pytest.approx(
                values[name], abs=1e-6
            )
        reference = values[SOLVER_NAMES[0]]
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=1e-6), name
        # The canonical cut (residual reachability) is a max-flow invariant:
        # every solver must produce the same source side, node for node.
        for name, side in sides.items():
            assert side == sides[SOLVER_NAMES[0]], name


def _reachable_side(network: FlowNetwork, source: int) -> list[int]:
    return [node for node, flag in enumerate(network.residual_reachable(source)) if flag]


class TestDinicCutSide:
    """Dinic's cut side, read off its final BFS, is the residual-reachable set."""

    @pytest.mark.parametrize("seed", range(NUM_SEEDED_NETWORKS))
    def test_levels_match_residual_reachability(self, seed):
        network = _mixed_capacity_network(seed)
        source, sink = 0, network.num_nodes - 1
        solver = get_solver_class("dinic")(network, source, sink)
        # Before a completed solve the solver falls back to the walk.
        assert solver.min_cut_source_side() == _reachable_side(network, source)
        solver.max_flow()
        assert solver.min_cut_source_side() == _reachable_side(network, source)

    @settings(max_examples=60, deadline=None)
    @given(description=_network_description())
    def test_cold_and_warm_solves_match_residual_reachability(self, description):
        n = description[0]
        network = _build_from_description(description)
        dinic = get_solver_class("dinic")
        cold = dinic(network, 0, n - 1)
        cold.max_flow()
        assert cold.min_cut_source_side() == _reachable_side(network, 0)
        # A second solve on the already-maximal flow runs only the final BFS.
        warm = dinic(network, 0, n - 1)
        warm.max_flow()
        assert warm.min_cut_source_side() == _reachable_side(network, 0)


class TestResolveContinuesHeldFlow:
    """Solving an already-solved network returns the total, not the increment."""

    @pytest.mark.parametrize("solver_name", SOLVER_NAMES)
    def test_path_network_resolves_to_the_same_value(self, solver_name):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 3.0)
        network.add_edge(1, 2, 5.0)
        network.add_edge(2, 3, 4.0)
        solver_class = get_solver_class(solver_name)
        assert solver_class(network, 0, 3).max_flow() == pytest.approx(3.0)
        again = solver_class(network, 0, 3)
        assert again.max_flow() == pytest.approx(3.0)
        assert again.min_cut_source_side() == [0]

    @pytest.mark.parametrize("solver_name", SOLVER_NAMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_resolve_matches_first_solve(self, solver_name, seed):
        network = _mixed_capacity_network(seed)
        sink = network.num_nodes - 1
        solver_class = get_solver_class(solver_name)
        first = solver_class(network, 0, sink)
        value = first.max_flow()
        side = first.min_cut_source_side()
        again = solver_class(network, 0, sink)
        assert again.max_flow() == pytest.approx(value, abs=1e-6)
        assert again.min_cut_source_side() == side


class TestWarmColdEquivalence:
    """Warm-start chains match cold runs on random decision networks."""

    @pytest.mark.parametrize("solver_name", SOLVER_NAMES)
    @pytest.mark.parametrize("seed", range(12))
    def test_warm_chain_matches_cold_chain(self, solver_name, seed):
        from repro.core.flow_network import build_decision_network
        from repro.core.subproblem import STSubproblem
        from repro.flow.engine import FlowEngine
        from repro.graph.generators import gnm_random_digraph

        rng = random.Random(1000 + seed)
        graph = gnm_random_digraph(rng.randint(6, 12), rng.randint(15, 45), seed=seed)
        subproblem = STSubproblem.from_graph(graph)
        schedule = [
            (rng.choice([0.5, 1.0, 2.0, 3.0]), rng.uniform(0.0, 4.0)) for _ in range(8)
        ]

        warm = build_decision_network(subproblem, *schedule[0])
        engine = FlowEngine(solver_name)
        first = True
        for ratio, guess in schedule:
            warm.retune(ratio, guess, warm_start=not first)
            cut_warm, solver_warm = engine.min_cut(
                warm.network, warm.source, warm.sink, warm_start=not first
            )
            cold = build_decision_network(subproblem, ratio, guess)
            cut_cold, solver_cold = FlowEngine(solver_name).min_cut(
                cold.network, cold.source, cold.sink
            )
            assert cut_warm == pytest.approx(cut_cold, abs=1e-7), (solver_name, seed, ratio, guess)
            assert warm.extract_pair(solver_warm.min_cut_source_side()) == cold.extract_pair(
                solver_cold.min_cut_source_side()
            ), (solver_name, seed, ratio, guess)
            first = False
        # Every solver continued warm after the first (cold) solve.
        assert engine.warm_starts_used == len(schedule) - 1
