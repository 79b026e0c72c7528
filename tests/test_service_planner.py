"""The batch planner and the concurrent executor.

Pins the service-tier acceptance criteria:

* **Graph lanes** — the plan is one contiguous lane per graph, in
  first-appearance order, each lane in file order.
* **Permutation safety** — any execution order of a batch (file order, the
  lane order of a multi-graph batch, or a random permutation) yields
  bit-identical per-query *answers*; only the instrumentation counters may
  differ (property test).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.exceptions import BatchQueryError, ConfigError
from repro.service import BatchExecutor, ShardMap, payload_answer, plan_batch
from repro.service.queries import run_batch_query
from repro.session import DDSSession

DEFAULT_DATASET = "foodweb-tiny"

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


def _execute_in_mode(mode: str, plan, monkeypatch):
    """Execute ``plan`` serially, on threads, on local daemons or on a loopback daemon."""
    from repro.net import ShardDaemon
    from repro.service import executor as executor_module

    if mode == "remote":
        with ShardDaemon() as daemon:
            report = _executor(remote_hosts=[daemon.address]).execute(plan)
        assert report.executor_stats["lanes_remote"] == len(plan.lanes)
        return report
    if mode == "process-pool-spawn":
        monkeypatch.setattr(executor_module, "_start_method", lambda: "spawn")
    kwargs = {
        "serial": {"max_workers": 1},
        "threads": {"max_workers": 2},
        "process-pool": {"process_pool": True, "max_workers": 1},
        "process-pool-spawn": {"process_pool": True, "max_workers": 2},
    }[mode]
    report = _executor(**kwargs).execute(plan)
    if mode.startswith("process-pool"):
        assert report.executor_stats["lanes_remote"] == len(plan.lanes)
    return report


class TestPlanShape:
    def test_identity_plan_preserves_file_order(self):
        """A single-graph batch is one lane, in file order."""
        plan = plan_batch(MIXED, default_graph_key="foodweb-tiny")
        assert [entry.index for entry in plan.entries] == list(range(len(MIXED)))
        assert list(plan.lanes) == ["foodweb-tiny"]

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
        assert [entry.index for entry in plan.entries] == [0, 2, 1, 3]
        assert set(plan.lanes) == {"foodweb-tiny", "social-tiny"}

    def test_explain_reports_order_and_lanes(self):
        queries = [
            {**spec, "dataset": "social-tiny"} if index % 3 == 0 else spec
            for index, spec in enumerate(MIXED)
        ]
        plan = plan_batch(queries, default_graph_key="foodweb-tiny")
        explanation = plan.explain()
        assert explanation["queries"] == len(MIXED)
        assert explanation["execution_order"] == [entry.index for entry in plan.entries]
        assert explanation["lanes"] == {
            "social-tiny": [0, 3, 6],
            "foodweb-tiny": [1, 2, 4, 5, 7],
        }
        json.dumps(explanation)

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
        """Acceptance pin: execution order is a pure performance decision."""
        executor = _executor()
        reference = executor.execute(plan_batch(MIXED, default_graph_key="foodweb-tiny"))
        shuffled = [MIXED[i] for i in permutation]
        permuted = executor.execute(plan_batch(shuffled, default_graph_key="foodweb-tiny"))
        reference_answers = [payload_answer(p) for p in reference.results_in_input_order()]
        permuted_answers = [payload_answer(p) for p in permuted.results_in_input_order()]
        assert permuted_answers == [reference_answers[i] for i in permutation]

    def test_planned_equals_file_order_answers(self):
        """Lanes reorder an interleaved two-graph batch; the answers do not move."""
        graphs = ("foodweb-tiny", "social-tiny")
        queries = [{**spec, "dataset": graphs[index % 2]} for index, spec in enumerate(MIXED)]
        planned = _executor().execute(plan_batch(queries))
        sessions = {key: DDSSession(load_dataset(key)) for key in graphs}
        file_order = [run_batch_query(sessions[spec["dataset"]], spec) for spec in queries]
        assert [payload_answer(p) for p in planned.results_in_input_order()] == [
            payload_answer(p) for p in file_order
        ]


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

    @pytest.mark.parametrize("mode", ["serial", "threads", "process-pool", "remote"])
    def test_every_row_carries_thread_cpu_seconds(self, mode, monkeypatch):
        import math

        queries = [
            {"query": "fixed-ratio", "ratio": 1.0},
            {"query": "densest", "method": "core-exact"},
            {"query": "fixed-ratio", "ratio": 2.0, "dataset": "social-tiny"},
        ]
        report = _execute_in_mode(mode, plan_batch(queries, default_graph_key="foodweb-tiny"), monkeypatch)
        rows = report.timings()
        assert len(rows) == len(queries)
        for row in rows:
            assert math.isfinite(row["cpu_seconds"]) and row["cpu_seconds"] >= 0
        # A probe does real work on whichever thread served it.
        assert sum(row["cpu_seconds"] for row in rows) > 0

    @pytest.mark.parametrize(
        "mode", ["threads", "process-pool", "process-pool-spawn", "remote"]
    )
    def test_every_mode_answers_like_the_serial_run(self, mode, monkeypatch):
        plan = plan_batch(
            [*MIXED, {"query": "top-k", "k": 2, "dataset": "social-tiny"}],
            default_graph_key="foodweb-tiny",
        )
        serial = _execute_in_mode("serial", plan, monkeypatch)
        report = _execute_in_mode(mode, plan, monkeypatch)
        answers = [payload_answer(payload) for payload in report.results_in_input_order()]
        assert answers == [payload_answer(payload) for payload in serial.results_in_input_order()]

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


class TestShardMap:
    def test_routing_is_content_stable(self):
        graph = load_dataset(DEFAULT_DATASET)
        copy = graph.copy()
        fingerprint = graph.content_fingerprint()
        assert copy.content_fingerprint() == fingerprint
        # Two maps of one width, as two executors or machines hold them.
        first, second = ShardMap(4), ShardMap(4)
        assert first.shard_of(fingerprint) == second.shard_of(copy.content_fingerprint())
        assert first.shard_of(fingerprint) == int(fingerprint[:16], 16) % 4

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigError):
            ShardMap(0)
        with pytest.raises(ConfigError):
            ShardMap(2).shard_of("not-a-fingerprint")
