"""The vectorised numpy flow backend: zero-copy views, auto policy, parity.

The cross-solver property suite (``tests/test_flow_property.py``) already
covers the backend's max-flow values and warm/cold equivalence because it
parametrises over every *registered* solver; this module pins the pieces
unique to the vectorised backend:

* **zero-copy** — the solver state really is a view over the network's CSR
  buffers: writes through the numpy view are visible via
  ``FlowNetwork.arc_capacities`` (and vice versa), and a solve needs no
  write-back;
* **bit-identical cuts** — ``min_cut_source_side`` matches the scalar
  solvers node-for-node, warm and cold;
* **the ``auto`` policy** — per-network backend selection at the arc
  threshold, the ``backend_selections`` counter, graceful degradation when
  the vector backend is unregistered, and config/CLI acceptance of
  ``"auto"``.

Everything here is skipped wholesale when numpy is not importable — exactly
the environments in which the registry does not list the backend.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.config import ExactConfig, FlowConfig
from repro.core.flow_network import build_decision_network
from repro.core.subproblem import STSubproblem
from repro.exceptions import ConfigError, FlowError
from repro.flow.engine import FlowEngine
from repro.flow.network import FlowNetwork
from repro.flow.numpy_backend import NumpyPushRelabelSolver
from repro.flow.registry import (
    AUTO_ARC_THRESHOLD,
    AUTO_SOLVER,
    VECTOR_SOLVER,
    available_flow_solvers,
    flow_solver_choices,
    has_vector_backend,
    resolve_auto_solver,
)
from repro.graph.generators import gnm_random_digraph
from repro.session import DDSSession


def _random_decision_network(seed: int, nodes: int = 12, edges: int = 40):
    graph = gnm_random_digraph(nodes, edges, seed=seed)
    subproblem = STSubproblem.from_graph(graph)
    return build_decision_network(subproblem, 1.0, 1.5)


class TestRegistration:
    def test_vector_backend_is_registered_with_numpy_present(self):
        assert has_vector_backend()
        assert VECTOR_SOLVER in available_flow_solvers()

    def test_auto_is_a_choice_but_not_a_registry_entry(self):
        assert AUTO_SOLVER in flow_solver_choices()
        assert AUTO_SOLVER not in available_flow_solvers()


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

    def test_solver_mutates_residual_state_in_place(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 3.0)
        arc = network.add_edge(1, 2, 2.0)
        solver = NumpyPushRelabelSolver(network, 0, 2)
        assert solver.max_flow() == pytest.approx(2.0)
        # No write-back step: the canonical capacities already hold the
        # residual state (flow of 2 on arc 1 -> 2).
        assert network.arc_flow(arc) == pytest.approx(2.0)

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


class TestTrailingArclessNodes:
    def test_conservation_with_trailing_arcless_node(self):
        """The last non-empty CSR segment must not be truncated by reduceat.

        Node 3 has no arcs, so its segment starts at ``m`` — the boundary
        case where clipped reduceat indices would silently drop the final
        arc position from node 2's per-node reductions, breaking flow
        conservation in the residual state.
        """
        network = FlowNetwork(4)
        network.add_edge(0, 2, 5.0)
        network.add_edge(2, 1, 2.0)
        network.add_edge(2, 1, 2.0)
        solver = NumpyPushRelabelSolver(network, 0, 1)
        assert solver.max_flow() == pytest.approx(4.0)
        # The residual state encodes the full flow (conservation holds) ...
        assert network.flow_value(0) == pytest.approx(4.0)
        # ... so a re-solve reproduces the value instead of losing it.
        warm = NumpyPushRelabelSolver(network, 0, 1)
        assert warm.max_flow() == pytest.approx(4.0)
        # The 2+2 arcs into the sink are the cut; the arc-less node 3 is
        # unreachable, so the canonical source side is exactly {0, 2}.
        assert warm.min_cut_source_side() == [0, 2]

    def test_return_excess_with_trailing_arcless_node(self):
        network = FlowNetwork(4)
        network.add_edge(0, 2, 5.0)
        downstream = network.add_edge(2, 1, 4.0)
        engine = FlowEngine(VECTOR_SOLVER)
        value, _ = engine.min_cut(network, 0, 1)
        assert value == pytest.approx(4.0)
        # Clamp the downstream arc: its tail (node 2) is left holding the
        # overflow, which the walk cancels back along 0 -> 2.
        overflow = network.set_capacity_preserving_flow(downstream, 1.0)
        assert overflow == pytest.approx(3.0)
        network.return_excess([(2, overflow)], source=0)
        assert network.flow_value(0) == pytest.approx(1.0)


class TestBitIdenticalCuts:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_cut_matches_dinic(self, seed):
        reference = _random_decision_network(seed)
        value_ref, solver_ref = FlowEngine("dinic").min_cut(
            reference.network, reference.source, reference.sink
        )
        vector = _random_decision_network(seed)
        value_vec, solver_vec = FlowEngine(VECTOR_SOLVER).min_cut(
            vector.network, vector.source, vector.sink
        )
        assert value_vec == pytest.approx(value_ref, abs=1e-9)
        assert solver_vec.min_cut_source_side() == solver_ref.min_cut_source_side()

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_retune_chain_cut_matches_dinic(self, seed):
        rng = random.Random(seed)
        schedule = [(rng.choice([0.5, 1.0, 2.0]), rng.uniform(0.0, 3.0)) for _ in range(6)]
        nets = {name: _random_decision_network(seed) for name in ("dinic", VECTOR_SOLVER)}
        engines = {name: FlowEngine(name) for name in nets}
        first = True
        for ratio, guess in schedule:
            sides = {}
            for name, decision in nets.items():
                decision.retune(ratio, guess, warm_start=not first)
                _, solver = engines[name].min_cut(
                    decision.network, decision.source, decision.sink, warm_start=not first
                )
                sides[name] = solver.min_cut_source_side()
            assert sides[VECTOR_SOLVER] == sides["dinic"], (seed, ratio, guess)
            first = False


class TestAutoPolicy:
    def test_resolve_below_and_above_threshold(self):
        name_small, _ = resolve_auto_solver(AUTO_ARC_THRESHOLD - 1)
        name_large, _ = resolve_auto_solver(AUTO_ARC_THRESHOLD)
        assert name_small == "dinic"
        assert name_large == VECTOR_SOLVER

    def test_resolve_falls_back_without_vector_backend(self, monkeypatch):
        import repro.flow.registry as registry

        solvers = {k: v for k, v in registry._SOLVERS.items() if k != VECTOR_SOLVER}
        monkeypatch.setattr(registry, "_SOLVERS", solvers)
        assert not registry.has_vector_backend()
        name, _ = registry.resolve_auto_solver(AUTO_ARC_THRESHOLD * 10)
        assert name == "dinic"
        assert VECTOR_SOLVER not in registry.available_flow_solvers()
        assert AUTO_SOLVER in registry.flow_solver_choices()

    def test_engine_counts_backend_selections(self):
        decision = _random_decision_network(1)  # far below the threshold
        engine = FlowEngine(AUTO_SOLVER)
        engine.min_cut(decision.network, decision.source, decision.sink)
        assert engine.backend_selections == 1
        assert engine.auto_backend_choices == {"dinic": 1}
        # A concrete-solver engine never records selections.
        plain = FlowEngine("dinic")
        fresh = _random_decision_network(1)
        plain.min_cut(fresh.network, fresh.source, fresh.sink)
        assert plain.backend_selections == 0
        assert plain.auto_backend_choices == {}

    def test_config_accepts_auto_and_rejects_unknown(self):
        config = FlowConfig(solver=AUTO_SOLVER)
        assert config.solver == AUTO_SOLVER
        assert ExactConfig(flow="auto").flow.solver == AUTO_SOLVER
        with pytest.raises((FlowError, ConfigError)):
            FlowConfig(solver="no-such-backend")

    def test_session_auto_matches_dinic_and_reports_counters(self):
        graph = gnm_random_digraph(16, 60, seed=7)
        auto = DDSSession(graph.copy(), flow=FlowConfig(solver=AUTO_SOLVER))
        dinic = DDSSession(graph.copy(), flow=FlowConfig(solver="dinic"))
        result_auto = auto.densest_subgraph("dc-exact")
        result_dinic = dinic.densest_subgraph("dc-exact")
        assert result_auto.density == result_dinic.density
        assert sorted(result_auto.s_nodes) == sorted(result_dinic.s_nodes)
        assert sorted(result_auto.t_nodes) == sorted(result_dinic.t_nodes)
        stats = auto.cache_stats()
        assert stats["backend_selections"] == stats["flow_calls"] > 0
        assert sum(stats["auto_backends"].values()) == stats["backend_selections"]
        assert result_auto.stats["backend_selections"] > 0
        # The concrete-solver session reports zero selections and no map.
        assert dinic.cache_stats()["backend_selections"] == 0
        assert "auto_backends" not in dinic.cache_stats()


class TestBatchLanes:
    def test_executor_lanes_on_the_vector_backend_match_dinic(self):
        from repro.datasets.registry import load_dataset
        from repro.service import BatchExecutor, payload_answer, plan_batch

        queries = [
            {"query": "densest", "method": "dc-exact", "dataset": "foodweb-tiny"},
            {"query": "densest", "method": "dc-exact", "dataset": "social-tiny"},
            {"query": "fixed-ratio", "ratio": 1.0, "dataset": "foodweb-tiny"},
        ]
        def strip_solver(payload):
            """Drop the only field that legitimately differs between lanes."""
            if isinstance(payload, dict):
                return {k: v for k, v in payload.items() if k != "flow_solver"}
            return payload

        answers = {}
        for solver in ("dinic", VECTOR_SOLVER):
            plan = plan_batch(queries, default_graph_key="foodweb-tiny")
            executor = BatchExecutor(
                load_dataset, flow=FlowConfig(solver=solver), max_workers=2
            )
            report = executor.execute(plan)
            answers[solver] = [
                strip_solver(payload_answer(p)) for p in report.results_in_input_order()
            ]
        assert answers[VECTOR_SOLVER] == answers["dinic"]
