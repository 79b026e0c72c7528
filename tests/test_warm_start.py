"""Warm residual reuse: equivalence, cross-solver agreement, instrumentation.

Every registered solver continues from the flow its network holds, so a
warm retune (:meth:`DecisionNetwork.retune(..., warm_start=True)
<repro.core.flow_network.DecisionNetwork.retune>`) followed by a solve must
change the amount of flow *work*, never the answer: on random decision
networks a warm retune chain matches cold rebuild-and-solve runs cut for
cut, and on every exact method each solver reproduces ``dinic``'s density,
pair and ``flow_calls``.  Warm continuation only reaches the network a
search fetches or builds: guesses solved on narrowed networks are cold.  A
dc-exact or core-exact probe starts at a pooled pair and narrows at its
first cut, so the checks that warm starts engage run flow-exact, whose
searches start at 0 and retune the search network warm at their second
guess.
"""

from __future__ import annotations

import pytest

from repro.core.config import ExactConfig, FlowConfig
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.core.exact_flow import flow_exact
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.flow_network import build_decision_network
from repro.core.subproblem import STSubproblem
from repro.exceptions import FlowError
from repro.flow.engine import FlowEngine
from repro.flow.network import FlowNetwork
from repro.flow.registry import available_flow_solvers
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph
from repro.session import DDSSession

SOLVER_NAMES = available_flow_solvers()


def _warm_engagement_graph():
    """Flow-exact graph of the warm-engagement checks: 55 of its 159 dinic
    solves run warm."""
    return gnm_random_digraph(9, 30, seed=3)


def _config(solver: str) -> ExactConfig:
    return ExactConfig(flow=FlowConfig(solver=solver))


def _answer(result) -> tuple:
    """The fields every solver must reproduce: density, pair and flow calls."""
    return (
        result.density,
        sorted(result.s_nodes),
        sorted(result.t_nodes),
        result.stats["flow_calls"],
    )


# ----------------------------------------------------------------------
# FlowNetwork primitives
# ----------------------------------------------------------------------
class TestFlowNetworkPrimitives:
    def _solved_path_network(self) -> FlowNetwork:
        """0 -> 1 -> 2 with capacities 3/2, solved to its max flow of 2."""
        network = FlowNetwork(3)
        network.add_edge(0, 1, 3.0)
        network.add_edge(1, 2, 2.0)
        engine = FlowEngine("dinic")
        value, _ = engine.min_cut(network, 0, 2)
        assert value == 2.0
        return network

    def test_preserving_update_keeps_fitting_flow(self):
        network = self._solved_path_network()
        overflow = network.set_capacity_preserving_flow(2, 5.0)  # arc 1 -> 2
        assert overflow == 0.0
        assert network.arc_flow(2) == 2.0
        assert network.flow_value(0) == 2.0

    def test_preserving_update_clamps_and_reports_overflow(self):
        network = self._solved_path_network()
        overflow = network.set_capacity_preserving_flow(2, 0.5)
        assert overflow == pytest.approx(1.5)
        assert network.arc_flow(2) == 0.5
        # Conservation at node 1 is broken by exactly the overflow ...
        network.return_excess([(1, overflow)], source=0)
        # ... and returning it restores a valid flow of the clamped value.
        assert network.flow_value(0) == pytest.approx(0.5)
        assert network.arc_flow(0) == pytest.approx(0.5)

    def test_return_excess_walks_back_sub_epsilon_overflow(self):
        """Tiny clamp overflows must be repaired, not silently stranded.

        Cached decision networks are retuned indefinitely across a session's
        lifetime, so per-retune imbalances below EPSILON would otherwise
        accumulate into flow-value drift.
        """
        network = self._solved_path_network()
        tiny = 1e-12
        overflow = network.set_capacity_preserving_flow(2, 2.0 - tiny)
        assert 0.0 < overflow < 1e-9
        network.return_excess([(1, overflow)], source=0)
        # Conservation is exactly restored: source outflow == arc 1->2 flow.
        assert network.flow_value(0) == pytest.approx(network.arc_flow(2), abs=1e-15)

    def test_return_excess_rejects_impossible_excess(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 3.0)
        network.add_edge(1, 2, 2.0)
        # No flow anywhere: there is nothing to cancel, so returning fails.
        with pytest.raises(FlowError):
            network.return_excess([(1, 1.0)], source=0)

    def test_preserving_update_validates_like_set_capacity(self):
        network = self._solved_path_network()
        with pytest.raises(FlowError):
            network.set_capacity_preserving_flow(1, 1.0)  # odd index
        with pytest.raises(FlowError):
            network.set_capacity_preserving_flow(0, -1.0)


# ----------------------------------------------------------------------
# Solver-level equivalence on decision networks
# ----------------------------------------------------------------------
class TestWarmRetuneEqualsCold:
    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_matches_cold_restart(self, solver, seed):
        """Warm retunes across a (ratio, guess) sweep match cold rebuild+solve."""
        graph = gnm_random_digraph(11, 45, seed=seed)
        subproblem = STSubproblem.from_graph(graph)
        pairs = [(r, g) for r in (0.5, 1.0, 2.0) for g in (0.0, 0.9, 2.4, 1.1)]

        warm = build_decision_network(subproblem, *pairs[0])
        cold = build_decision_network(subproblem, *pairs[0])
        engine_warm = FlowEngine(solver)
        engine_cold = FlowEngine(solver)
        first = True
        for ratio, guess in pairs:
            warm.retune(ratio, guess, warm_start=not first)
            cold.retune(ratio, guess)
            cut_warm, solver_warm = engine_warm.min_cut(
                warm.network, warm.source, warm.sink, warm_start=not first
            )
            cut_cold, solver_cold = engine_cold.min_cut(cold.network, cold.source, cold.sink)
            assert cut_warm == pytest.approx(cut_cold, abs=1e-7)
            assert warm.extract_pair(solver_warm.min_cut_source_side()) == cold.extract_pair(
                solver_cold.min_cut_source_side()
            )
            first = False
        # All but the first solve were warm.
        assert engine_warm.warm_starts_used == len(pairs) - 1
        assert engine_warm.cold_starts == 1
        assert engine_cold.warm_starts_used == 0

    def test_guess_increase_keeps_flow_feasible(self):
        """Raising the guess only raises penalty capacities: flow survives intact."""
        graph = complete_bipartite_digraph(3, 3)
        subproblem = STSubproblem.from_graph(graph)
        decision = build_decision_network(subproblem, 1.0, 0.5)
        engine = FlowEngine("dinic")
        engine.min_cut(decision.network, decision.source, decision.sink)
        value_before = decision.network.flow_value(decision.source)
        decision.retune(1.0, 2.0, warm_start=True)
        # No clamping happened, so the previous flow is still fully routed.
        assert decision.network.flow_value(decision.source) == value_before

    def test_guess_decrease_clamps_to_feasible_flow(self):
        graph = complete_bipartite_digraph(3, 3)
        subproblem = STSubproblem.from_graph(graph)
        decision = build_decision_network(subproblem, 1.0, 3.0)
        engine = FlowEngine("dinic")
        engine.min_cut(decision.network, decision.source, decision.sink)
        decision.retune(1.0, 0.25, warm_start=True)
        network = decision.network
        # The warm state is a valid flow under the *new* capacities: every
        # penalty arc's flow fits its shrunken capacity.
        for arc_index in decision.s_penalty_arcs + decision.t_penalty_arcs:
            assert network.arc_flow(arc_index) <= network._original_capacity(arc_index) + 1e-12
        assert network.flow_value(decision.source) >= 0.0


# ----------------------------------------------------------------------
# Method-level agreement across solvers
# ----------------------------------------------------------------------
class TestWarmColdMethodEquivalence:
    """Every solver runs warm; each must reproduce ``dinic``'s answers.

    This is the one method-level check that runs every registered solver,
    ``edmonds-karp`` included, through the warm retune chains of all three
    flow-backed exact methods.
    """

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_dc_exact_identical_answers(self, solver, seed):
        graph = gnm_random_digraph(10, 35, seed=seed)
        result = dc_exact(graph, _config(solver))
        assert _answer(result) == _answer(dc_exact(graph, _config("dinic")))
        assert result.stats["warm_starts_used"] + result.stats["cold_starts"] == result.stats[
            "flow_calls"
        ]

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_core_exact_identical_answers(self, solver):
        graph = gnm_random_digraph(12, 50, seed=2)
        result = core_exact(graph, _config(solver))
        assert _answer(result) == _answer(core_exact(graph, _config("dinic")))

    def test_flow_exact_identical_answers(self):
        graph = gnm_random_digraph(8, 22, seed=4)
        reference = flow_exact(graph, _config("dinic"))
        assert reference.stats["warm_starts_used"] >= 1
        for solver in SOLVER_NAMES:
            result = flow_exact(graph, _config(solver))
            assert _answer(result) == _answer(reference), solver
            assert result.stats["warm_starts_used"] == reference.stats["warm_starts_used"]

    def test_fixed_ratio_outcome_counts_warm_and_cold(self):
        graph = gnm_random_digraph(10, 40, seed=6)
        subproblem = STSubproblem.from_graph(graph)
        outcomes = [
            maximize_fixed_ratio(
                subproblem, 1.0, lower=0.0, upper=10.0, tolerance=1e-3, engine=FlowEngine(solver)
            )
            for solver in SOLVER_NAMES
        ]
        for outcome in outcomes:
            assert outcome.flow_calls == outcome.warm_starts_used + outcome.cold_starts
            # The first solve (freshly built network) is necessarily cold.
            assert outcome.cold_starts >= 1
            assert outcome.warm_starts_used >= 1
        assert len(
            {
                (o.lower, o.upper, tuple(sorted(o.best_s)), tuple(sorted(o.best_t)))
                for o in outcomes
            }
        ) == 1

    def test_warm_run_uses_warm_starts(self):
        result = flow_exact(_warm_engagement_graph(), _config("dinic"))
        assert result.stats["warm_starts_used"] >= 1
        assert (
            result.stats["warm_starts_used"] + result.stats["cold_starts"]
            == result.stats["flow_calls"]
        )


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionWarmStarts:
    def test_cache_stats_reports_warm_counters(self):
        session = DDSSession(_warm_engagement_graph())
        session.densest_subgraph("flow-exact")
        stats = session.cache_stats()
        assert stats["warm_starts_used"] >= 1
        assert stats["warm_starts_used"] + stats["cold_starts"] == stats["flow_calls"]

    def test_repeated_fixed_ratio_probe_warm_starts_from_cache(self):
        """The second probe at a ratio reuses the cached network *and* its flow."""
        session = DDSSession(gnm_random_digraph(10, 40, seed=8))
        first = session.fixed_ratio(1.0, tolerance=1e-2)
        assert first.networks_built == 1
        second = session.fixed_ratio(1.0, tolerance=1e-3)
        assert second.networks_built == 0
        assert second.networks_reused == 1
        # The second probe's first solve continued from the cached residual
        # flow; its solves on narrowed networks are cold.
        assert second.warm_starts_used >= 1
        assert second.warm_starts_used + second.cold_starts == second.flow_calls

    def test_config_only_flow_change_does_not_warn_solver_ignored(self):
        """Changing a flow knob other than the solver is not a solver request."""
        import warnings as warnings_module

        session = DDSSession(complete_bipartite_digraph(2, 3))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", UserWarning)
            result = session.densest_subgraph(
                "brute-force", config=ExactConfig(flow=FlowConfig(network_cache_size=8))
            )
        assert "flow_solver_ignored" not in result.stats

    def test_explicit_solver_on_non_flow_method_still_warns_once(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        config = ExactConfig(flow=FlowConfig(solver="push-relabel"))
        with pytest.warns(UserWarning, match="flow_solver='push-relabel' is ignored"):
            result = session.densest_subgraph("brute-force", config=config)
        assert result.stats["flow_solver_ignored"] == {
            "flow_solver": "push-relabel",
            "method": "brute-force",
        }
        # Same (method, flow_solver) key: no second warning.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", UserWarning)
            session.densest_subgraph("brute-force", config=config)


# ----------------------------------------------------------------------
# Push-relabel heights across warm retunes
# ----------------------------------------------------------------------
class TestHeightReuse:
    """Push–relabel continuing warm across retunes up *and* down.

    Each solve starts its height labels from zero on whatever flow the
    retune left, which must always yield the cold solve's max-flow value.
    """

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_repeated_retuned_solves_stay_exact(self, seed):
        """Sweep guesses up and down on one network: every warm solve must
        match a cold solve of a freshly built network."""
        graph = gnm_random_digraph(12, 50, seed=seed)
        subproblem = STSubproblem.from_graph(graph)
        network = build_decision_network(subproblem, 1.0, 1.0)
        engine = FlowEngine("push-relabel")
        guesses = [1.0, 2.5, 0.75, 3.5, 0.25, 2.0]
        for index, guess in enumerate(guesses):
            network.retune(1.0, guess, warm_start=True)
            value, _ = engine.min_cut(
                network.network, network.source, network.sink, warm_start=index > 0
            )
            reference = build_decision_network(subproblem, 1.0, guess)
            cold_engine = FlowEngine("push-relabel")
            expected, _ = cold_engine.min_cut(reference.network, reference.source, reference.sink)
            assert value == pytest.approx(expected, abs=1e-9)
        assert engine.warm_starts_used == len(guesses) - 1
