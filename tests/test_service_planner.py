"""The cache-aware batch planner and the concurrent executor.

Pins the two service-tier acceptance criteria:

* **Permutation safety** — any execution order of a batch (the planner's,
  file order, or a random permutation) yields bit-identical per-query
  *answers*; only the instrumentation counters may differ (property test).
* **Cache effectiveness** — on the mixed E6-style workload the planned
  order records strictly more result + network cache hits than ``--no-plan``
  file order (the regression pin behind the smoke gate).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import service_mixed_workload
from repro.core.config import FlowConfig
from repro.datasets.registry import load_dataset
from repro.exceptions import BatchQueryError, ConfigError
from repro.service import BatchExecutor, payload_answer, plan_batch
from repro.service.queries import run_batch_query
from repro.session import DDSSession
from repro.service.planner import PHASE_EXACT, PHASE_PROBE, PHASE_SEED

MIXED = [
    {"query": "densest", "method": "core-exact"},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "densest", "method": "core-approx"},
    {"query": "top-k", "k": 2, "method": "core-exact"},
    {"query": "densest", "method": "core-exact"},
    {"query": "xy-core", "x": 1, "y": 1},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "summary"},
]


def _executor(**kwargs) -> BatchExecutor:
    return BatchExecutor(lambda key: load_dataset(key), **kwargs)


class TestPlanShape:
    def test_identity_plan_preserves_file_order(self):
        plan = plan_batch(MIXED, default_graph_key="foodweb-tiny", planned=False)
        assert [entry.index for entry in plan.entries] == list(range(len(MIXED)))
        assert plan.moves == 0 and plan.planned is False

    def test_phases_order_approx_before_probes_before_exact(self):
        plan = plan_batch(MIXED, default_graph_key="foodweb-tiny")
        phases = [entry.phase for entry in plan.entries]
        assert phases == sorted(phases)
        by_index = {entry.index: entry.phase for entry in plan.entries}
        assert by_index[2] == PHASE_SEED  # core-approx seeds
        assert by_index[1] == PHASE_PROBE  # fixed-ratio probes
        assert by_index[0] == PHASE_EXACT  # core-exact runs last

    def test_identical_queries_become_adjacent(self):
        plan = plan_batch(MIXED, default_graph_key="foodweb-tiny")
        order = [entry.index for entry in plan.entries]
        # The two identical fixed-ratio probes and the two identical densest
        # queries must sit next to each other in the planned order.
        assert abs(order.index(1) - order.index(6)) == 1
        assert abs(order.index(0) - order.index(4)) == 1

    def test_graph_affinity_makes_contiguous_lanes(self):
        queries = [
            {"query": "densest", "method": "core-approx"},
            {"query": "densest", "method": "core-approx", "dataset": "social-tiny"},
            {"query": "summary"},
            {"query": "summary", "dataset": "social-tiny"},
        ]
        plan = plan_batch(queries, default_graph_key="foodweb-tiny")
        keys = [entry.graph_key for entry in plan.entries]
        assert keys == ["foodweb-tiny", "foodweb-tiny", "social-tiny", "social-tiny"]
        assert set(plan.lanes) == {"foodweb-tiny", "social-tiny"}

    def test_explain_reports_groups_and_predictions(self):
        plan = plan_batch(MIXED, default_graph_key="foodweb-tiny")
        explanation = plan.explain()
        assert explanation["queries"] == len(MIXED)
        assert sorted(explanation["execution_order"]) == list(range(len(MIXED)))
        assert explanation["predicted"]["result_cache_hits"] >= 1
        assert explanation["predicted"]["network_cache_hits"] >= 1
        regrouped = [index for group in explanation["groups"] for index in group["queries"]]
        assert regrouped == explanation["execution_order"]

    def test_deterministic(self):
        first = plan_batch(MIXED, default_graph_key="g")
        second = plan_batch(MIXED, default_graph_key="g")
        assert [e.index for e in first.entries] == [e.index for e in second.entries]

    def test_rejects_malformed_batches(self):
        with pytest.raises(BatchQueryError, match="list"):
            plan_batch({"query": "densest"})  # type: ignore[arg-type]
        with pytest.raises(BatchQueryError, match="JSON objects"):
            plan_batch(["densest"])  # type: ignore[list-item]
        with pytest.raises(BatchQueryError, match="dataset"):
            plan_batch([{"query": "densest", "dataset": 7}])


class TestPermutationSafety:
    @settings(max_examples=8, deadline=None)
    @given(st.permutations(list(range(len(MIXED)))))
    def test_any_permutation_yields_bit_identical_answers(self, permutation):
        """Acceptance pin: plan order is a pure performance decision."""
        executor = _executor(flow=FlowConfig(network_cache_size=4))
        reference = executor.execute(
            plan_batch(MIXED, default_graph_key="foodweb-tiny", planned=False)
        )
        shuffled = [MIXED[i] for i in permutation]
        permuted = executor.execute(
            plan_batch(shuffled, default_graph_key="foodweb-tiny", planned=False)
        )
        reference_answers = [payload_answer(p) for p in reference.results_in_input_order()]
        permuted_answers = [payload_answer(p) for p in permuted.results_in_input_order()]
        assert permuted_answers == [reference_answers[i] for i in permutation]

    def test_planned_equals_file_order_answers(self):
        executor = _executor()
        planned = executor.execute(plan_batch(MIXED, default_graph_key="foodweb-tiny"))
        unplanned = executor.execute(
            plan_batch(MIXED, default_graph_key="foodweb-tiny", planned=False)
        )
        assert [payload_answer(p) for p in planned.results_in_input_order()] == [
            payload_answer(p) for p in unplanned.results_in_input_order()
        ]


class TestCacheEffectiveness:
    def test_planned_order_beats_file_order_on_mixed_workload(self):
        """Acceptance pin: strictly more result/network cache hits than file
        order on the E6-style mixed workload (the smoke gate's assertion)."""
        queries = service_mixed_workload()
        executor = _executor(flow=FlowConfig(network_cache_size=8))
        planned = executor.execute(plan_batch(queries, default_graph_key="social-tiny"))
        unplanned = executor.execute(
            plan_batch(queries, default_graph_key="social-tiny", planned=False)
        )
        planned_hits = planned.realized_cache_hits()
        file_hits = unplanned.realized_cache_hits()
        assert sum(planned_hits.values()) > sum(file_hits.values())
        # The mechanism: grouped repeats survive the LRU network cache.
        assert planned_hits["network_cache_hits"] > file_hits["network_cache_hits"]

    def test_predictions_are_realized_on_planned_order(self):
        queries = service_mixed_workload()
        plan = plan_batch(queries, default_graph_key="foodweb-tiny")
        report = _executor(flow=FlowConfig(network_cache_size=8)).execute(plan)
        realized = report.realized_cache_hits()
        assert realized["result_cache_hits"] >= plan.predicted_result_cache_hits
        assert realized["network_cache_hits"] >= plan.predicted_network_cache_hits


class TestExecutor:
    def test_multi_graph_batch_runs_on_separate_sessions(self):
        queries = [
            {"query": "densest", "method": "core-approx"},
            {"query": "densest", "method": "core-approx", "dataset": "social-tiny"},
            {"query": "densest", "method": "core-approx"},
        ]
        report = _executor().execute(plan_batch(queries, default_graph_key="foodweb-tiny"))
        assert set(report.session_stats) == {"foodweb-tiny", "social-tiny"}
        # The repeat on the default graph hits its own session's cache.
        assert report.session_stats["foodweb-tiny"]["result_cache_hits"] == 1
        assert report.session_stats["social-tiny"]["result_cache_hits"] == 0
        results = report.results_in_input_order()
        assert results[0] == results[2]
        assert results[1]["density"] != results[0]["density"]

    def test_aggregate_stats_sum_lanes(self):
        queries = [
            {"query": "summary"},
            {"query": "summary", "dataset": "social-tiny"},
        ]
        report = _executor().execute(plan_batch(queries, default_graph_key="foodweb-tiny"))
        assert report.aggregate_stats()["queries"] == 0  # summary is not a counted query
        assert len(report.timings()) == 2
        assert all(row["seconds"] >= 0 for row in report.timings())

    def test_unknown_graph_key_is_clean_error(self):
        mapping_executor = BatchExecutor({"known": load_dataset("foodweb-tiny")})
        plan = plan_batch([{"query": "summary", "dataset": "missing"}], default_graph_key="known")
        with pytest.raises(BatchQueryError, match="unknown graph"):
            mapping_executor.execute(plan)

    @pytest.mark.parametrize("ratio", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_fixed_ratio_is_a_query_error(self, ratio):
        """``json.loads`` accepts NaN and ±Infinity; the batch query must not.

        The lane budget bounds the run should the ratio ever reach a search
        again: a NaN ratio never closes its bracket.
        """
        session = DDSSession(load_dataset("foodweb-tiny"))
        spec = json.loads(f'{{"query": "fixed-ratio", "ratio": {ratio}}}')
        with pytest.raises(BatchQueryError, match="finite"):
            run_batch_query(session, spec, deadline_ms=2000)
        assert session.cache_stats()["flow_calls"] == 0

    def test_query_errors_propagate(self):
        plan = plan_batch(
            [{"query": "densest", "method": "core-approx", "tolerance": 0.1}],
            default_graph_key="foodweb-tiny",
        )
        with pytest.raises(ConfigError):
            _executor().execute(plan)

    def test_rejects_non_positive_max_workers(self):
        with pytest.raises(ConfigError, match="max_workers"):
            _executor(max_workers=0)
        with pytest.raises(ConfigError, match="max_workers"):
            _executor(max_workers=-3)

    def test_max_workers_one_still_completes_all_lanes(self):
        queries = [
            {"query": "summary"},
            {"query": "summary", "dataset": "social-tiny"},
            {"query": "summary", "dataset": "flights-small"},
        ]
        report = _executor(max_workers=1).execute(
            plan_batch(queries, default_graph_key="foodweb-tiny")
        )
        assert len(report.results_in_input_order()) == 3
