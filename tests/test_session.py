"""Tests for the session-oriented public API (:class:`repro.session.DDSSession`).

Covers the acceptance criteria of the session redesign:

* repeated queries hit the session result cache (counters exposed via
  ``cache_stats()`` and ``stats["result_cache_hit"]``);
* the session serves a top-k after its densest query with **strictly
  fewer** ``networks_built`` than the equivalent queries on a fresh session
  each (regression-pinned), while every search builds its own network;
* ``"auto"`` method selection switches exactly at ``AUTO_EXACT_NODE_LIMIT``;
* the one solver's names, ``"auto"`` and ``"dinic"``, are accepted where
  callers still pass them and select nothing; any other name is refused;
* invalid configurations fail fast with :class:`ConfigError`;
* a structurally mutated graph is refused instead of served stale answers.
"""

from __future__ import annotations

import json
import warnings

import pytest

import repro.session.session as session_module
from repro.core.config import ExactConfig
from repro.core.results import DDSResult
from repro.datasets.registry import load_dataset
from repro.exceptions import (
    AlgorithmError,
    ConfigError,
    DeadlineExceeded,
    EmptyGraphError,
    FlowError,
    GraphError,
    StoreError,
)
from repro.flow.dinic import DinicSolver
from repro.flow.engine import COUNTERS, FlowEngine
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph
from repro.net import ShardDaemon
from repro.service import BatchExecutor, plan_batch
from repro.service.queries import payload_answer, run_batch_query
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
        engine_stats = session._engine.stats()
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
            # Not a bracket: a search would return the lower bound itself,
            # closed, after no cut.
            ({"lower": 100.0}, "at most the upper bound"),
            ({"lower": float("inf")}, "lower bound must be finite"),
            ({"lower": 2.0, "upper": 1.0}, "at most the upper bound"),
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
        config = ExactConfig(deadline_ms=5000)
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


#: Batch specs of the two cached query kinds beside densest results.
ANSWER_SPECS = (
    {"query": "fixed-ratio", "ratio": 0.5},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "fixed-ratio", "ratio": 2.0, "tolerance": 1e-6},
    {"query": "top-k", "k": 2, "method": "core-approx"},
    {"query": "top-k", "k": 3, "method": "core-exact"},
    {"query": "top-k", "k": 2, "method": "auto"},
)


def _kinds(session):
    """The entry names of a session's cached answers, in LRU order."""
    return [method for method, _, _ in session.cached_results()]


def _bracket_bits(payload):
    """A fixed-ratio payload's bracket as exact bit patterns (``None`` for lists)."""
    if isinstance(payload, dict) and "lower" in payload:
        return payload["lower"].hex(), payload["upper"].hex()
    return None


class TestAnswerCache:
    """Fixed-ratio outcomes and top-k lists share the densest results' LRU."""

    @pytest.fixture
    def graph(self):
        return gnm_random_digraph(14, 60, seed=11)

    @pytest.mark.parametrize("spec", ANSWER_SPECS, ids=lambda spec: json.dumps(spec))
    def test_a_hit_answers_like_a_cold_session(self, graph, spec):
        cold = run_batch_query(DDSSession(graph.copy()), dict(spec))
        session = DDSSession(graph)
        first = run_batch_query(session, dict(spec))
        before = session.cache_stats()
        second = run_batch_query(session, dict(spec))
        after = session.cache_stats()
        assert first == cold and second == cold
        assert _bracket_bits(second) == _bracket_bits(cold)
        assert after["result_cache_hits"] == before["result_cache_hits"] + 1
        assert after["queries"] == before["queries"] + 1
        assert after["flow_calls"] == before["flow_calls"]
        assert after["xy_cores_cached"] == before["xy_cores_cached"]

    def test_fixed_ratio_keys_take_the_defaults_filled_in(self, graph):
        session = DDSSession(graph)
        first = session.fixed_ratio(1.0)
        second = session.fixed_ratio(
            1, upper=session.density_upper_bound(), tolerance=session.exactness_tolerance()
        )
        assert second == first
        assert session.cache_stats()["result_cache_hits"] == 1
        # A budget does not split the key.
        session.fixed_ratio(1.0, tolerance=1e-3)
        session.fixed_ratio(1.0, deadline_ms=60_000)
        assert session.cache_stats()["result_cache_hits"] == 2
        assert _kinds(session).count("fixed-ratio") == 2

    def test_auto_and_dinic_share_one_entry_and_one_engine(self, graph):
        session = DDSSession(graph, flow="auto")
        outcome = session.fixed_ratio(1.0)
        result = session.densest_subgraph("dc-exact")
        auto = session.densest_subgraph("dc-exact", flow_solver="auto")
        dinic = session.densest_subgraph("dc-exact", flow_solver="dinic")
        for named in (auto, dinic):
            assert (named.s_nodes, named.t_nodes, named.density) == (
                result.s_nodes, result.t_nodes, result.density
            )
        stats = session.cache_stats()
        assert (stats["result_cache_entries"], stats["result_cache_hits"]) == (2, 2)
        assert stats["flow_calls"] == session._engine.flow_calls == (
            outcome.flow_calls + result.stats["flow_calls"]
        )
        assert "flow_solver" not in result.stats
        [(_, key, _)] = [entry for entry in session.cached_results() if entry[0] == "fixed-ratio"]
        assert key == (1.0, 0.0, session.density_upper_bound(), session.exactness_tolerance())

    def test_top_k_hit_carries_auto_selected_only_when_asked_for_auto(self, graph):
        session = DDSSession(graph)
        auto = session.top_k(2, method="auto")
        exact = session.top_k(2, method="core-exact")
        again = session.top_k(2, method="auto")
        assert [r.stats["auto_selected"] for r in auto] == ["core-exact"] * len(auto)
        assert all("auto_selected" not in r.stats for r in exact)
        assert [r.stats["auto_selected"] for r in again] == ["core-exact"] * len(again)
        assert all(r.stats["result_cache_hit"] is True for r in exact + again)
        assert [r.density for r in exact] == [r.density for r in auto]
        assert _kinds(session).count("top-k") == 1
        [stored] = [value for method, _, value in session.cached_results() if method == "top-k"]
        assert all("auto_selected" not in r.stats and "result_cache_hit" not in r.stats for r in stored)

    def test_returned_answers_are_defensive_copies(self, graph):
        session = DDSSession(graph)
        outcome = session.fixed_ratio(1.0)
        results = session.top_k(2, method="core-approx")
        expected = (outcome.best_s[:], results[0].s_nodes[:], len(results))
        outcome.best_s.clear()
        outcome.network_nodes.clear()
        results[0].s_nodes.clear()
        results.clear()
        again = session.fixed_ratio(1.0)
        listed = session.top_k(2, method="core-approx")
        assert (again.best_s, listed[0].s_nodes, len(listed)) == expected
        assert again.network_nodes

    @pytest.mark.parametrize(
        "ask",
        [
            lambda session, **kw: session.fixed_ratio(1.0, **kw),
            lambda session, **kw: session.top_k(2, method="core-exact", **kw),
        ],
        ids=["fixed-ratio", "top-k"],
    )
    def test_a_deadline_hit_leaves_no_entry(self, graph, ask):
        session = DDSSession(graph)
        with pytest.raises(DeadlineExceeded):
            ask(session, deadline_ms=1e-6)
        assert not {"fixed-ratio", "top-k"} & set(_kinds(session))
        flow_calls = session.cache_stats()["flow_calls"]
        ask(session)
        stats = session.cache_stats()
        assert stats["result_cache_hits"] == 0
        assert stats["flow_calls"] > flow_calls

    @pytest.mark.parametrize(
        "drop",
        [
            lambda session: session.apply_updates(removed_edges=[next(iter(session.graph.edges()))]),
            lambda session: session.apply_updates(
                removed_edges=[next(iter(session.graph.edges()))], certify=False
            ),
            lambda session: session.clear_cache(),
        ],
        ids=["apply_updates", "apply_updates-uncertified", "clear_cache"],
    )
    def test_edits_and_clears_drop_both_kinds(self, graph, drop):
        session = DDSSession(graph)
        session.fixed_ratio(1.0)
        session.top_k(2, method="core-approx")
        version = session.warm_state_version
        drop(session)
        assert not {"fixed-ratio", "top-k"} & set(_kinds(session))
        assert session.warm_state_version > version
        cold = DDSSession(session.graph.copy())
        assert session.fixed_ratio(1.0) == cold.fixed_ratio(1.0)
        assert [r.density for r in session.top_k(2, method="core-approx")] == [
            r.density for r in cold.top_k(2, method="core-approx")
        ]

    def test_a_disabled_cache_holds_nothing(self, graph):
        session = DDSSession(graph, result_cache_size=0)
        for _ in range(2):
            session.fixed_ratio(1.0)
            session.top_k(2, method="core-approx")
        assert session.cached_results() == []
        assert session.cache_stats()["result_cache_hits"] == 0
        assert session.warm_state_version == 1  # the max core, computed once

    def test_all_kinds_share_the_lru_capacity(self, graph):
        session = DDSSession(graph, result_cache_size=2)
        session.fixed_ratio(0.5)
        session.fixed_ratio(1.0)
        session.top_k(1, method="core-approx")  # caches round 1, then the list
        assert _kinds(session) == ["core-approx", "top-k"]

    def test_exported_answers_seed_another_session(self, graph):
        donor = DDSSession(graph)
        donor.fixed_ratio(2.0)
        donor.top_k(2, method="core-approx")
        session = DDSSession(graph.copy())
        for method, config, answer in donor.cached_results():
            assert session.seed_result(method, config, answer)
        assert session.fixed_ratio(2.0) == donor.fixed_ratio(2.0)
        listed = session.top_k(2, method="core-approx")
        assert all(r.stats["result_cache_hit"] is True for r in listed)
        assert session.cache_stats()["flow_calls"] == 0

    @pytest.mark.parametrize(
        "method, config, error",
        [
            ("fixed-ratio", (0.0, 0.0, 1.0, 1e-6), AlgorithmError),
            ("fixed-ratio", (1.0, 0.0, 1.0, 1e-6, "dinic"), AlgorithmError),
            ("top-k", (2, 0.0, "auto", ExactConfig()), AlgorithmError),
            ("top-k", (0, 0.0, "core-exact", ExactConfig()), AlgorithmError),
            ("fixed-ratio", (1.0, 0.0), AlgorithmError),
            ("fixed-ratio", 1.0, AlgorithmError),
            ("top-k", (2, 0.0, "core-exact"), AlgorithmError),
            ("top-k", "core-exact", AlgorithmError),
        ],
    )
    def test_seed_result_validates_both_kinds(self, graph, method, config, error):
        with pytest.raises(error):
            DDSSession(graph).seed_result(method, config, None)


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

    def test_repeated_fixed_ratio_probe_is_a_cache_hit(self):
        """A repeat returns the cached outcome; only the first probe searched."""
        session = DDSSession(gnm_random_digraph(12, 50, seed=7))
        first = session.fixed_ratio(1.0, tolerance=1e-6)
        before = session.cache_stats()
        second = session.fixed_ratio(1.0, tolerance=1e-6)
        after = session.cache_stats()
        assert first.networks_built == 1
        assert second == first
        assert second.lower.hex() == first.lower.hex()
        assert second.upper.hex() == first.upper.hex()
        assert after["flow_calls"] == before["flow_calls"]
        assert after["networks_built"] == before["networks_built"]
        assert after["result_cache_hits"] == before["result_cache_hits"] + 1


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


def _answer_and_entries(place: str, name: str | None, graph: DiGraph) -> tuple:
    """The core-exact answer and cache-entry count when ``name`` is passed at ``place``.

    ``place`` is one of :data:`NAMED_PLACES`, where callers still pass the
    one solver's name; ``None`` passes none.
    """
    by_flow = place in ("session", "executor", "daemon")
    flow = name if by_flow else None
    named = {} if by_flow or name is None else {"flow_solver": name}
    query = {"query": "densest", "method": "core-exact", "show_nodes": True}
    if place in ("session", "densest", "top-k"):
        session = DDSSession(graph, flow=flow)
        if place == "top-k":
            results = session.top_k(2, method="core-exact", **named)
            answer = [(r.density, r.s_nodes, r.t_nodes) for r in results]
        else:
            result = session.densest_subgraph("core-exact", **named)
            answer = (result.density, result.s_nodes, result.t_nodes, result.stats["flow_calls"])
        return answer, session.cache_stats()["result_cache_entries"]
    if place == "batch":
        session = DDSSession(graph)
        answer = run_batch_query(session, dict(query, **named))
        return answer, session.cache_stats()["result_cache_entries"]
    plan = plan_batch([dict(query, dataset="g")])
    if place == "executor":
        report = BatchExecutor({"g": graph}, flow=flow).execute(plan)
    else:
        with ShardDaemon(flow=flow) as daemon:
            report = BatchExecutor({"g": graph}, remote_hosts=[daemon.address]).execute(plan)
    answer = payload_answer(report.results_in_input_order())
    return answer, report.aggregate_stats()["result_cache_entries"]


#: Where perfbench still passes a solver name: the ``flow=`` argument of a
#: session, an executor and a daemon, and the ``flow_solver=`` override of
#: densest and top-k queries and of batch entries.
NAMED_PLACES = ("session", "densest", "top-k", "batch", "executor", "daemon")


class TestFlowSolverIgnored:
    """The one solver's names select nothing; methods without min-cuts skip flow settings."""

    @pytest.mark.parametrize("place", NAMED_PLACES)
    @pytest.mark.parametrize("name", ["auto", "dinic"])
    def test_kept_names_answer_as_no_name_does(self, name, place):
        graph = gnm_random_digraph(12, 45, seed=6)
        answer, entries = _answer_and_entries(place, name, graph)
        assert (answer, entries) == _answer_and_entries(place, None, graph)
        assert entries == (2 if place == "top-k" else 1)

    @pytest.mark.parametrize("place", NAMED_PLACES)
    def test_other_names_refused_where_kept_names_are_accepted(self, place):
        with pytest.raises(FlowError, match="unknown flow solver 'edmonds-karp'"):
            _answer_and_entries(place, "edmonds-karp", complete_bipartite_digraph(2, 3))

    def test_validated_but_not_applied_without_min_cuts(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = session.densest_subgraph("core-approx", flow_solver="dinic")
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

    def test_flow_backed_method_keeps_solver(self, monkeypatch):
        """A name never picks the solver: every min-cut runs the engine's class."""
        runs = []

        class Counting(DinicSolver):
            def max_flow(self):
                runs.append(self)
                return super().max_flow()

        monkeypatch.setattr(FlowEngine, "solver_class", Counting)
        session = DDSSession(complete_bipartite_digraph(2, 3))
        result = session.densest_subgraph("dc-exact", flow_solver="dinic")
        assert len(runs) == result.stats["flow_calls"] > 0
        assert "flow_solver" not in result.stats

    def test_config_only_flow_change_does_not_warn_solver_ignored(self):
        """A budget on a method without min-cuts is not a solver request."""
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = session.densest_subgraph(
                "brute-force", config=ExactConfig(deadline_ms=60_000)
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
