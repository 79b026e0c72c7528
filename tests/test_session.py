"""Tests for the session-oriented public API (:class:`repro.session.DDSSession`).

Covers the acceptance criteria of the session redesign:

* repeated queries hit the session result cache (counters exposed via
  ``cache_stats()`` and ``stats["result_cache_hit"]``);
* the session serves top-k and coarse→refine DC query sequences with
  **strictly fewer** ``networks_built`` than the equivalent sequence of
  one-shot ``densest_subgraph`` calls (regression-pinned);
* the legacy one-shot API remains a deprecation shim with identical results;
* ``"auto"`` method selection switches exactly at ``AUTO_EXACT_NODE_LIMIT``;
* invalid configurations fail fast with :class:`ConfigError`;
* a structurally mutated graph is refused instead of served stale answers.
"""

from __future__ import annotations

import json
import warnings

import pytest

import repro.core.api as api_module
from repro.core.api import densest_subgraph
from repro.core.config import ExactConfig
from repro.core.results import DDSResult
from repro.core.topk import top_k_densest
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, EmptyGraphError, GraphError, StoreError
from repro.flow.engine import COUNTERS
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph
from repro.session import DDSSession


def _shim(*args, **kwargs):
    """Call the deprecated one-shot API with its warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return densest_subgraph(*args, **kwargs)


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
        """A NaN ratio never closes the bracket: refuse it before any min-cut."""
        session = DDSSession(gnm_random_digraph(10, 40, seed=8))
        with pytest.raises(AlgorithmError, match="ratio"):
            session.fixed_ratio(ratio, deadline_ms=5000)
        assert session.cache_stats()["flow_calls"] == 0


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
        from repro.core.config import FlowConfig

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
        one_shot = _shim(graph, method="dc-exact")
        one_shot_topk = top_k_densest(graph, 2, method="dc-exact")
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

    def test_coarse_refine_dc_probes_hit_session_cache(self):
        graph = load_dataset("foodweb-tiny")

        coarse_cfg = ExactConfig(tolerance=0.05)
        one_shot_networks = (
            _shim(graph, method="dc-exact", config=coarse_cfg).stats["networks_built"]
            + _shim(graph, method="dc-exact").stats["networks_built"]
        )

        session = DDSSession(graph)
        coarse = session.densest_subgraph("dc-exact", config=coarse_cfg)
        refined = session.densest_subgraph("dc-exact")
        session_networks = session.cache_stats()["networks_built"]

        assert session_networks < one_shot_networks
        assert session.cache_stats()["network_cache_hits"] > 0
        assert refined.stats["networks_reused"] > 0
        assert refined.density == pytest.approx(coarse.density, abs=0.05)

    def test_within_run_network_accounting(self):
        # A one-shot DC run uses exactly one network per fixed-ratio search.
        result = _shim(load_dataset("foodweb-tiny"), method="dc-exact")
        stats = result.stats
        assert stats["networks_built"] + stats["networks_reused"] == stats["fixed_ratio_searches"]

    def test_per_query_cache_disable_is_honoured(self):
        from repro.core.config import FlowConfig

        session = DDSSession(load_dataset("foodweb-tiny"))
        cfg = ExactConfig(flow=FlowConfig(network_cache_size=0))
        result = session.densest_subgraph("dc-exact", config=cfg)
        # The query ran uncached: nothing deposited in the session cache and
        # no within-run probe reuse either.
        assert session.cache_stats()["network_cache_entries"] == 0
        assert result.stats["networks_reused"] == 0
        assert result.stats["networks_built"] == result.stats["fixed_ratio_searches"]

    def test_flow_exact_does_not_flood_session_network_cache(self):
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("core-exact")
        entries_before = session.cache_stats()["network_cache_entries"]
        assert entries_before > 0
        # flow-exact's O(n^2) single-use networks run on a private cache, so
        # the session's reusable dc/core networks survive.
        session.densest_subgraph("flow-exact")
        assert session.cache_stats()["network_cache_entries"] == entries_before
        repeat = session.densest_subgraph("core-exact", tolerance=1e-7)
        assert repeat.stats["networks_reused"] > 0

    def test_per_query_cache_disable_covers_all_topk_rounds(self):
        from repro.core.config import FlowConfig

        session = DDSSession(load_dataset("foodweb-tiny"))
        cfg = ExactConfig(flow=FlowConfig(network_cache_size=0))
        results = session.top_k(3, method="dc-exact", config=cfg)
        assert len(results) >= 2
        for result in results:
            assert result.stats["networks_reused"] == 0
        assert session.cache_stats()["network_cache_entries"] == 0

    def test_network_observer_fires_on_cache_hits_too(self):
        from repro.core.fixed_ratio import maximize_fixed_ratio
        from repro.core.network_cache import NetworkCache
        from repro.core.subproblem import STSubproblem

        subproblem = STSubproblem.from_graph(gnm_random_digraph(10, 40, seed=5))
        cache = NetworkCache()
        sizes: list[tuple[int, int]] = []
        for _ in range(2):
            maximize_fixed_ratio(
                subproblem,
                1.0,
                lower=0.0,
                upper=10.0,
                tolerance=0.5,
                network_cache=cache,
                network_observer=lambda nodes, arcs: sizes.append((nodes, arcs)),
            )
        # One observation per search — the second search reused the cached
        # network but must still be observed.
        assert len(sizes) == 2
        assert sizes[0] == sizes[1]

    def test_subproblem_token_is_captured_at_construction(self):
        from repro.core.subproblem import STSubproblem

        graph = complete_bipartite_digraph(2, 3)
        subproblem = STSubproblem.from_graph(graph)
        token_before = subproblem.cache_token()
        graph.add_edge("t0", "s0")
        # The token must keep describing the state the edges were carved
        # from, not the mutated graph.
        assert subproblem.cache_token() == token_before
        assert STSubproblem.from_graph(graph).cache_token() != token_before

    def test_topk_rounds_do_not_pollute_session_network_cache(self):
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("core-exact")
        entries_before = session.cache_stats()["network_cache_entries"]
        # Rounds >= 2 run on throwaway peeled copies; their networks must not
        # land in (and eventually evict) the session graph's cache.
        session.top_k(3, method="core-exact")
        assert session.cache_stats()["network_cache_entries"] == entries_before

    def test_fixed_ratio_coarse_refine_reuses_network(self):
        session = DDSSession(gnm_random_digraph(12, 50, seed=7))
        coarse = session.fixed_ratio(1.0, tolerance=0.2)
        refined = session.fixed_ratio(1.0, tolerance=1e-6)
        assert coarse.networks_built + coarse.networks_reused == 1
        assert refined.networks_built == 0 and refined.networks_reused == 1
        assert refined.upper - refined.lower <= coarse.upper - coarse.lower


class TestShimEquivalence:
    @pytest.mark.parametrize(
        "method", ["flow-exact", "dc-exact", "core-exact", "core-approx", "peel-approx"]
    )
    def test_shim_is_bit_identical_to_fresh_session(self, method):
        graph = load_dataset("foodweb-tiny")
        shim = _shim(graph, method=method)
        fresh = DDSSession(graph).densest_subgraph(method)
        assert shim.density == fresh.density  # bit-identical, not approx
        assert shim.s_nodes == fresh.s_nodes
        assert shim.t_nodes == fresh.t_nodes
        assert shim.stats == fresh.stats

    def test_shim_emits_deprecation_warning(self):
        with pytest.warns(DeprecationWarning, match="DDSSession"):
            densest_subgraph(complete_bipartite_digraph(2, 2), method="core-approx")

    def test_topk_shim_emits_deprecation_warning(self):
        with pytest.warns(DeprecationWarning, match="DDSSession.top_k"):
            top_k_densest(complete_bipartite_digraph(2, 2), 1, method="core-approx")

    def test_legacy_max_nodes_kwarg_still_works(self):
        graph = gnm_random_digraph(8, 20, seed=2)
        result = _shim(graph, method="brute-force", max_nodes=10)
        assert result.is_exact and result.method == "brute-force"

    def test_topk_delegate_matches_session(self):
        graph = gnm_random_digraph(18, 70, seed=11)
        legacy = top_k_densest(graph, 3, method="core-approx")
        session = DDSSession(graph).top_k(3, method="core-approx")
        assert [r.density for r in legacy] == [r.density for r in session]
        assert [sorted(map(str, r.s_nodes)) for r in legacy] == [
            sorted(map(str, r.s_nodes)) for r in session
        ]


class TestAutoSelection:
    def test_boundary_at_limit(self, monkeypatch):
        graph = gnm_random_digraph(10, 30, seed=1)
        # Exactly at the limit: exact method.
        monkeypatch.setattr(api_module, "AUTO_EXACT_NODE_LIMIT", graph.num_nodes)
        at_limit = DDSSession(graph).densest_subgraph("auto")
        assert at_limit.stats["auto_selected"] == "core-exact"
        assert at_limit.is_exact
        # One node above the limit: approximate method.
        monkeypatch.setattr(api_module, "AUTO_EXACT_NODE_LIMIT", graph.num_nodes - 1)
        above_limit = DDSSession(graph).densest_subgraph("auto")
        assert above_limit.stats["auto_selected"] == "core-approx"
        assert not above_limit.is_exact

    def test_explicit_method_has_no_auto_stamp(self):
        result = DDSSession(complete_bipartite_digraph(2, 2)).densest_subgraph("core-approx")
        assert "auto_selected" not in result.stats


class TestFlowSolverIgnored:
    def test_records_method_and_warns_once(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.warns(UserWarning, match="performs no min-cuts"):
            result = session.densest_subgraph("core-approx", flow_solver="push-relabel")
        assert result.stats["flow_solver_ignored"] == {
            "flow_solver": "push-relabel",
            "method": "core-approx",
        }
        # Second occurrence on the same session: recorded, but not re-warned.
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            repeat = session.densest_subgraph("core-approx", flow_solver="push-relabel")
        assert repeat.stats["flow_solver_ignored"]["method"] == "core-approx"

    def test_flow_backed_method_keeps_solver(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        result = session.densest_subgraph("dc-exact", flow_solver="push-relabel")
        assert result.stats["flow_solver"] == "push-relabel"
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
        assert "networks_reused" in document["stats"]

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
