"""Retune-vs-rebuild equivalence and flow-engine instrumentation regressions.

The retune path (:meth:`~repro.core.flow_network.DecisionNetwork.retune`)
must be observationally identical to building a fresh decision network for
every ``(ratio, guess)``: bit-identical min-cut values and identical
extracted ``(S, T)`` pairs.  On top of that, every fixed-ratio search must
build exactly one network (``networks_built == fixed_ratio_searches``) and
the total flow-call counts must not exceed the counts recorded in
:mod:`repro.bench.baselines`.
"""

from __future__ import annotations

import pytest
from flow_oracle import ORACLE_SOLVER, use_solver

from repro.bench.baselines import SEED_FLOW_CALLS
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.core.flow_network import build_decision_network
from repro.core.subproblem import STSubproblem
from repro.datasets.registry import load_dataset
from repro.flow.engine import FlowEngine
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph


def _sweep_pairs():
    """20 (ratio, guess) probe pairs spanning the interesting range."""
    ratios = [0.25, 0.5, 1.0, 2.0, 4.0]
    guesses = [0.0, 0.7, 1.9, 3.3]
    return [(r, g) for r in ratios for g in guesses]


class TestRetuneEqualsRebuild:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: gnm_random_digraph(12, 50, seed=7),
            lambda: complete_bipartite_digraph(3, 4),
        ],
        ids=["gnm-12-50", "k-3-4"],
    )
    def test_bit_identical_cuts_and_pairs(self, graph_factory):
        graph = graph_factory()
        subproblem = STSubproblem.from_graph(graph)
        pairs = _sweep_pairs()
        assert len(pairs) == 20

        retuned = build_decision_network(subproblem, *pairs[0])
        for ratio, guess in pairs:
            retuned.retune(ratio, guess)
            fresh = build_decision_network(subproblem, ratio, guess)

            # Identical parameterisation: same capacities, bit for bit.
            assert list(retuned.network.arc_capacities) == list(fresh.network.arc_capacities)

            engine = FlowEngine()
            cut_retuned, solver_retuned = engine.min_cut(
                retuned.network, retuned.source, retuned.sink
            )
            cut_fresh, solver_fresh = engine.min_cut(fresh.network, fresh.source, fresh.sink)
            assert cut_retuned == cut_fresh  # bit-identical, not approx

            pair_retuned = retuned.extract_pair(solver_retuned.min_cut_source_side())
            pair_fresh = fresh.extract_pair(solver_fresh.min_cut_source_side())
            assert pair_retuned == pair_fresh

    def test_retune_validates_parameters(self):
        graph = complete_bipartite_digraph(2, 2)
        decision = build_decision_network(STSubproblem.from_graph(graph), 1.0, 1.0)
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError):
            decision.retune(0.0, 1.0)
        with pytest.raises(AlgorithmError):
            decision.retune(1.0, -1.0)


class TestEngineInstrumentation:
    """Regressions against the recorded seed counts (repro.bench.baselines)."""
    @pytest.mark.parametrize("dataset", ["foodweb-tiny", "social-tiny"])
    @pytest.mark.parametrize("solver_fn", [dc_exact, core_exact], ids=["dc", "core"])
    def test_one_network_per_fixed_ratio_search(self, dataset, solver_fn):
        graph = load_dataset(dataset)
        result = solver_fn(graph)
        stats = result.stats
        # Every search builds exactly one network.
        assert stats["networks_built"] == stats["fixed_ratio_searches"]
        assert stats["networks_built"] >= 1
        assert stats["flow_calls"] >= stats["networks_built"]
        assert stats["arcs_pushed"] > 0
        assert "flow_solver" not in stats

        recorded = SEED_FLOW_CALLS[(dataset, result.method)]
        assert stats["flow_calls"] <= recorded, (
            f"flow_calls regressed on {dataset}/{result.method}: "
            f"{stats['flow_calls']} > seed {recorded}"
        )

    def test_cross_solver_identical_density(self, request):
        graph = load_dataset("foodweb-tiny")
        reference = dc_exact(graph).density
        use_solver(request, ORACLE_SOLVER)
        assert dc_exact(graph).density == pytest.approx(reference, abs=1e-9)

    def test_flow_exact_counts_one_network_per_search(self):
        from repro.core.exact_flow import flow_exact

        graph = gnm_random_digraph(8, 20, seed=3)
        result = flow_exact(graph)
        stats = result.stats
        assert stats["networks_built"] == stats["fixed_ratio_searches"]
        assert stats["flow_calls"] >= stats["networks_built"]
