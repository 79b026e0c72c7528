"""Tests for the session-oriented public API (:class:`repro.session.DDSSession`).

Covers the acceptance criteria of the session redesign:

* repeated queries hit the session result cache (counters exposed via
  ``cache_stats()`` and ``stats["result_cache_hit"]``);
* the session serves a top-k after its densest query with **strictly
  fewer** ``networks_built`` than the equivalent queries on a fresh session
  each (regression-pinned), while every search builds its own network;
* ``"auto"`` method selection switches exactly at ``AUTO_EXACT_NODE_LIMIT``;
* a ``flow_solver=`` name is validated on every method and applied only by
  the flow-backed ones;
* invalid configurations fail fast with :class:`ConfigError`;
* a structurally mutated graph is refused instead of served stale answers.
"""

from __future__ import annotations

import json
import warnings

import pytest

import repro.session.session as session_module
from repro.core.config import ExactConfig, FlowConfig
from repro.core.results import DDSResult
from repro.datasets.registry import load_dataset
from repro.exceptions import (
    AlgorithmError,
    ConfigError,
    EmptyGraphError,
    FlowError,
    GraphError,
    StoreError,
)
from repro.flow.engine import COUNTERS
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph
from repro.service.queries import run_batch_query
from repro.session import DDSSession


def _fresh(graph, method, **kwargs):
    """One query on a throwaway session (no state shared with other calls)."""
    return DDSSession(graph).densest_subgraph(method, **kwargs)


class TestSessionBasics:
    def test_requires_digraph(self):
        with pytest.raises(GraphError):
            DDSSession([("a", "b")])

    def test_empty_graph_rejected_at_query_time(self):
        session = DDSSession(DiGraph.from_edges([], nodes=[1, 2]))
        with pytest.raises(EmptyGraphError):
            session.densest_subgraph()
        with pytest.raises(EmptyGraphError):
            session.top_k(2)

    def test_unknown_method(self):
        session = DDSSession(complete_bipartite_digraph(2, 2))
        with pytest.raises(AlgorithmError, match="unknown method"):
            session.densest_subgraph("magic")

    def test_summary_and_cores_are_cached(self):
        session = DDSSession(gnm_random_digraph(20, 60, seed=3))
        assert session.summary() == session.summary()
        assert session.max_xy_core() == session.max_xy_core()
        assert session.xy_core(1, 1) == session.xy_core(1, 1)
        assert session.cache_stats()["xy_cores_cached"] == 2

    def test_returned_cores_are_defensive_copies(self):
        session = DDSSession(gnm_random_digraph(20, 60, seed=3))
        core = session.max_xy_core()
        assert core.s_nodes
        core.s_nodes.clear()  # must not poison the session cache
        assert session.max_xy_core().s_nodes
        sub_core = session.xy_core(1, 1)
        sub_core.t_nodes.clear()
        assert session.xy_core(1, 1).t_nodes

    def test_degree_arrays_cached_and_copied(self):
        graph = gnm_random_digraph(15, 40, seed=4)
        session = DDSSession(graph)
        degrees = session.out_degrees()
        degrees[0] = -99  # mutating the returned copy must not poison the cache
        assert session.out_degrees() == graph.out_degrees()
        assert session.in_degrees() == graph.in_degrees()

    def test_mutated_graph_is_refused(self):
        graph = complete_bipartite_digraph(2, 3)
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        graph.add_edge("s0", "s1")
        with pytest.raises(GraphError, match="mutated"):
            session.densest_subgraph("core-approx")

    def test_cache_stats_reports_every_engine_counter(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        session.densest_subgraph("core-exact")
        stats = session.cache_stats()
        engine_stats = session._engine_for(session.flow.solver).stats()
        for counter in COUNTERS:
            assert stats[counter] == engine_stats[counter], counter

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 0.0, -1.0])
    def test_fixed_ratio_rejects_a_ratio_outside_zero_to_inf(self, ratio):
        """A NaN ratio never closes the bracket: refuse it before any work."""
        session = DDSSession(gnm_random_digraph(10, 40, seed=8))
        with pytest.raises(AlgorithmError, match="ratio"):
            session.fixed_ratio(ratio, deadline_ms=5000)
        stats = session.cache_stats()
        assert stats["flow_calls"] == 0
        assert stats["queries"] == 0
        assert stats["xy_cores_cached"] == 0

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"lower": -1.0}, "bounds"),
            ({"upper": float("nan")}, "bounds"),
            ({"tolerance": -1.0}, "tolerance"),
            ({"tolerance": 0.0}, "tolerance"),
        ],
    )
    def test_fixed_ratio_rejects_bad_bounds_and_tolerance_before_counting(
        self, arguments, message
    ):
        session = DDSSession(gnm_random_digraph(10, 40, seed=8))
        with pytest.raises(AlgorithmError, match=message):
            session.fixed_ratio(1.0, **arguments)
        stats = session.cache_stats()
        assert stats["queries"] == 0
        assert stats["flow_calls"] == 0
        assert stats["xy_cores_cached"] == 0

    @pytest.mark.parametrize(
        "method, kwargs, error",
        [("core-exact", {"tolerance": -1.0}, ConfigError), ("magic", {}, AlgorithmError)],
    )
    def test_rejected_densest_query_is_not_counted(self, method, kwargs, error):
        session = DDSSession(gnm_random_digraph(10, 40, seed=8))
        with pytest.raises(error):
            session.densest_subgraph(method, **kwargs)
        assert session.cache_stats()["queries"] == 0


class TestResultCache:
    def test_repeated_query_hits_cache(self):
        session = DDSSession(load_dataset("foodweb-tiny"))
        first = session.densest_subgraph("core-exact")
        built_after_first = session.cache_stats()["networks_built"]
        second = session.densest_subgraph("core-exact")

        assert first.stats["result_cache_hit"] is False
        assert second.stats["result_cache_hit"] is True
        assert session.cache_stats()["result_cache_hits"] == 1
        # The cached answer is identical and costs zero additional networks.
        assert second.density == first.density
        assert second.s_nodes == first.s_nodes and second.t_nodes == first.t_nodes
        assert session.cache_stats()["networks_built"] == built_after_first

    def test_distinct_configs_are_distinct_entries(self):
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("dc-exact", tolerance=0.05)
        session.densest_subgraph("dc-exact", tolerance=0.01)
        assert session.cache_stats()["result_cache_hits"] == 0
        assert session.cache_stats()["result_cache_entries"] == 2

    def test_deadline_does_not_split_the_cache(self):
        # A completed answer does not depend on its budget, so queries whose
        # remaining budget differs (as executor and daemon lanes pass it)
        # share one entry.
        session = DDSSession(load_dataset("foodweb-tiny"))
        first = session.densest_subgraph("core-exact", deadline_ms=60000)
        second = session.densest_subgraph("core-exact", deadline_ms=59000)
        third = session.densest_subgraph("core-exact")
        assert first.stats["result_cache_hit"] is False
        assert second.stats["result_cache_hit"] is True
        assert third.stats["result_cache_hit"] is True
        assert session.cache_stats()["result_cache_entries"] == 1
        assert second.density == third.density == first.density

    def test_seeded_result_is_keyed_without_deadline(self):
        graph = load_dataset("foodweb-tiny")
        answer = DDSSession(graph).densest_subgraph("core-exact")
        session = DDSSession(graph)
        config = ExactConfig(flow=FlowConfig(deadline_ms=5000))
        assert session.seed_result("core-exact", config, answer)
        assert session.densest_subgraph("core-exact").stats["result_cache_hit"] is True

    def test_returned_results_are_defensive_copies(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        first = session.densest_subgraph("core-exact")
        first.s_nodes.clear()
        first.stats.clear()
        second = session.densest_subgraph("core-exact")
        assert second.s_nodes and second.stats["result_cache_hit"] is True

    def test_nested_stats_containers_are_copies_too(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        first = session.densest_subgraph("core-exact")
        assert first.stats["network_nodes"]
        first.stats["network_nodes"].clear()  # must not reach the cache
        second = session.densest_subgraph("core-exact")
        assert second.stats["result_cache_hit"] is True
        assert second.stats["network_nodes"]


class TestNetworkReuseRegressions:
    """The acceptance pins: sessions build strictly fewer networks."""

    def test_topk_after_densest_builds_strictly_fewer_networks(self):
        graph = load_dataset("foodweb-tiny")

        # One-shot sequence: a standalone query plus an independent top-k.
        one_shot = _fresh(graph, "dc-exact")
        one_shot_topk = DDSSession(graph).top_k(2, method="dc-exact")
        one_shot_networks = one_shot.stats["networks_built"] + sum(
            result.stats["networks_built"] for result in one_shot_topk
        )

        # Session: the top-k's first round is served from the result cache.
        session = DDSSession(graph)
        served = session.densest_subgraph("dc-exact")
        served_topk = session.top_k(2, method="dc-exact")
        session_networks = session.cache_stats()["networks_built"]

        assert session_networks < one_shot_networks
        # ... with identical answers.
        assert served.density == one_shot.density
        assert [r.density for r in served_topk] == [r.density for r in one_shot_topk]

    def test_within_run_network_accounting(self):
        # A one-shot DC run uses exactly one network per fixed-ratio search.
        result = _fresh(load_dataset("foodweb-tiny"), "dc-exact")
        stats = result.stats
        assert stats["networks_built"] == stats["fixed_ratio_searches"]

    def test_repeated_fixed_ratio_probe_builds_its_own_network(self):
        """No decision network outlives its search: a repeat is a fresh probe."""
        session = DDSSession(gnm_random_digraph(12, 50, seed=7))
        first = session.fixed_ratio(1.0, tolerance=1e-6)
        second = session.fixed_ratio(1.0, tolerance=1e-6)
        assert first.networks_built == second.networks_built == 1
        assert second == first
        assert second.lower.hex() == first.lower.hex()
        assert second.upper.hex() == first.upper.hex()


class TestMaxCoreWalks:
    """Every query on the session graph reads the one cached maximum core."""

    @pytest.fixture
    def walks(self, monkeypatch):
        import repro.core.bounds as bounds_module
        from repro.core import xycore

        calls = []

        def counting(graph):
            calls.append(graph)
            return xycore.max_xy_core(graph)

        monkeypatch.setattr(session_module, "max_xy_core", counting)
        monkeypatch.setattr(bounds_module, "max_xy_core", counting)
        return calls

    @staticmethod
    def _answer_all(session):
        return (
            session.densest_subgraph("core-approx"),
            session.densest_subgraph("core-exact"),
            session.densest_subgraph("dc-exact", seed_with_core=True),
            session.fixed_ratio(1.0),
        )

    def test_one_walk_per_session(self, walks):
        graph = load_dataset("social-tiny")
        session = DDSSession(graph)
        answers = self._answer_all(session)
        assert len(walks) == 1
        # The answers are those of fresh runs, which walk the core themselves.
        references = (
            _fresh(graph, "core-approx"),
            _fresh(graph, "core-exact"),
            _fresh(graph, "dc-exact", seed_with_core=True),
        )
        for answer, reference in zip(answers, references):
            assert (answer.density, answer.s_nodes, answer.t_nodes) == (
                reference.density,
                reference.s_nodes,
                reference.t_nodes,
            )
            assert answer.stats.get("flow_calls") == reference.stats.get("flow_calls")

    def test_store_warmed_session_does_not_walk(self, walks, tmp_path):
        from repro.service.store import SessionStore

        graph = load_dataset("social-tiny")
        store = SessionStore(tmp_path)
        saved = DDSSession(graph)
        saved.max_xy_core()
        store.save_session(saved)
        walks.clear()
        warmed = DDSSession(graph, result_cache_size=0)
        store.warm_session(warmed)
        self._answer_all(warmed)
        assert walks == []

    def test_top_k_rounds_on_working_copies_walk_their_own(self, walks):
        session = DDSSession(load_dataset("social-tiny"))
        session.top_k(3, method="core-approx")
        assert walks[0] is session.graph
        assert all(graph is not session.graph for graph in walks[1:])
        assert len(walks) == 3


class TestAutoSelection:
    def test_boundary_at_limit(self, monkeypatch):
        graph = gnm_random_digraph(10, 30, seed=1)
        # Exactly at the limit: exact method.
        monkeypatch.setattr(session_module, "AUTO_EXACT_NODE_LIMIT", graph.num_nodes)
        at_limit = DDSSession(graph).densest_subgraph("auto")
        assert at_limit.stats["auto_selected"] == "core-exact"
        assert at_limit.is_exact
        # One node above the limit: approximate method.
        monkeypatch.setattr(session_module, "AUTO_EXACT_NODE_LIMIT", graph.num_nodes - 1)
        above_limit = DDSSession(graph).densest_subgraph("auto")
        assert above_limit.stats["auto_selected"] == "core-approx"
        assert not above_limit.is_exact

    def test_explicit_method_has_no_auto_stamp(self):
        result = DDSSession(complete_bipartite_digraph(2, 2)).densest_subgraph("core-approx")
        assert "auto_selected" not in result.stats


class TestFlowSolverIgnored:
    """Flow settings are session policy; methods without min-cuts skip them."""

    def test_validated_but_not_applied_without_min_cuts(self, flow_oracle):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = session.densest_subgraph("core-approx", flow_solver=flow_oracle)
            plain = session.densest_subgraph("core-approx")
        assert "flow_solver" not in result.stats
        assert "flow_solver_ignored" not in result.stats
        assert plain.stats["result_cache_hit"] is True
        assert session.cache_stats()["flow_calls"] == 0

    @pytest.mark.parametrize("method", ["core-approx", "brute-force"])
    def test_unknown_solver_rejected_without_min_cuts(self, method):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.raises(FlowError, match="no-such-solver"):
            session.densest_subgraph(method, flow_solver="no-such-solver")
        with pytest.raises(FlowError, match="no-such-solver"):
            session.top_k(2, method=method, flow_solver="no-such-solver")

    def test_unknown_solver_rejected_by_auto_above_node_limit(self):
        session = DDSSession(gnm_random_digraph(500, 1500, seed=3))
        assert session.densest_subgraph("auto").stats["auto_selected"] == "core-approx"
        with pytest.raises(FlowError, match="no-such-solver"):
            session.densest_subgraph("auto", flow_solver="no-such-solver")

    def test_unknown_solver_rejected_in_batch_queries(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        spec = {"query": "densest", "method": "peel-approx", "flow_solver": "no-such-solver"}
        with pytest.raises(FlowError, match="no-such-solver"):
            run_batch_query(session, spec)

    def test_flow_backed_method_keeps_solver(self, flow_oracle):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        result = session.densest_subgraph("dc-exact", flow_solver=flow_oracle)
        assert result.stats["flow_solver"] == flow_oracle

    def test_config_only_flow_change_does_not_warn_solver_ignored(self):
        """Changing a flow knob other than the solver is not a solver request."""
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = session.densest_subgraph(
                "brute-force", config=ExactConfig(flow=FlowConfig(deadline_ms=60_000))
            )
        assert "flow_solver_ignored" not in result.stats


class TestToJson:
    def test_stable_schema_roundtrip(self):
        session = DDSSession(load_dataset("foodweb-tiny"))
        result = session.densest_subgraph("core-exact")
        document = json.loads(result.to_json())
        assert document["schema_version"] == 2
        for key in (
            "method",
            "density",
            "edge_count",
            "s_size",
            "t_size",
            "s_nodes",
            "t_nodes",
            "is_exact",
            "approximation_ratio",
            "stats",
        ):
            assert key in document
        # Cache-hit stats ride along in the stats block.
        assert document["stats"]["result_cache_hit"] is False
        assert "networks_built" in document["stats"]

    def test_non_json_labels_are_stringified(self):
        graph = DiGraph.from_edges([((1, "a"), (2, "b"))])
        result = DDSSession(graph).densest_subgraph("core-approx")
        document = json.loads(result.to_json())
        assert document["s_nodes"] == [str((1, "a"))]

    def test_from_json_roundtrip_is_lossless(self):
        # The schema-2 contract: to_dict emits JSON-native values only, so a
        # dump/parse/rebuild cycle reproduces the result exactly (the
        # invariant the persistent session store rests on).
        session = DDSSession(load_dataset("foodweb-tiny"))
        result = session.densest_subgraph("core-exact")
        rebuilt = DDSResult.from_json(result.to_json())
        assert rebuilt == result

    def test_from_dict_rejects_unknown_schema_and_corruption(self):
        result = DDSSession(load_dataset("foodweb-tiny")).densest_subgraph("core-approx")
        document = result.to_dict()
        bad_version = dict(document, schema_version=99)
        with pytest.raises(StoreError, match="schema_version"):
            DDSResult.from_dict(bad_version)
        inconsistent = dict(document, s_size=document["s_size"] + 1)
        with pytest.raises(StoreError, match="inconsistent"):
            DDSResult.from_dict(inconsistent)
        missing = dict(document)
        del missing["s_size"]
        with pytest.raises(StoreError, match="malformed"):
            DDSResult.from_dict(missing)
        with pytest.raises(StoreError):
            DDSResult.from_json("{not json")
