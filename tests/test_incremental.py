"""Property tests for the incremental update subsystem (repro.incremental).

The central contract: a session that absorbs a delta sequence through
:meth:`DDSSession.apply_updates` answers every query **bit-identically** to a
cold session built on the final graph — same node sets in the same order,
same density, same edge count — because an edit drops the cached decision
networks, so the re-search builds them fresh, as the cold session does.
With certification enabled the promise is optimality (equal density, valid
pair) rather than byte equality, and that is pinned separately.

Delta sequences come from :func:`repro.graph.generators.edge_update_stream`,
so the generator satellite is exercised by the same properties that test the
subsystem it feeds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    edge_update_stream,
    gnm_random_digraph,
)
from repro.incremental import EdgeDelta
from repro.session import DDSSession

# (graph_seed, stream_seed) pairs drive both the base graph and its update
# stream; the stream generator guarantees every batch is valid against the
# state left by the previous ones.
seeds = st.integers(min_value=0, max_value=10_000)


def small_graph(seed: int) -> DiGraph:
    return gnm_random_digraph(10 + seed % 5, 25 + seed % 11, seed=seed)


def updated_cold_copy(graph: DiGraph, batches) -> DiGraph:
    clone = graph.copy()
    for added, removed in batches:
        clone.apply_delta(added, removed)
    return clone


def assert_same_result(incremental, cold):
    assert incremental.s_nodes == cold.s_nodes
    assert incremental.t_nodes == cold.t_nodes
    assert incremental.density == cold.density
    assert incremental.edge_count == cold.edge_count


class TestEdgeDeltaNormalize:
    def test_duplicates_collapse_first_wins(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        delta = EdgeDelta.normalize(
            g, added_edges=[("c", "a"), ("c", "a")], removed_edges=[("a", "b"), ("a", "b")]
        )
        assert delta.added == (("c", "a"),)
        assert delta.removed == (("a", "b"),)

    def test_added_and_removed_is_ambiguous(self):
        g = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="ambiguous"):
            EdgeDelta.normalize(g, added_edges=[("a", "b")], removed_edges=[("a", "b")])

    def test_removing_missing_edge_raises(self):
        g = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="does not exist"):
            EdgeDelta.normalize(g, removed_edges=[("b", "a")])

    def test_existing_and_self_loop_additions_dropped(self):
        g = DiGraph.from_edges([("a", "b")])
        delta = EdgeDelta.normalize(g, added_edges=[("a", "b"), ("z", "z")])
        assert delta.is_empty
        # the rejected self-loop must not have smuggled in its endpoint node
        assert delta.new_nodes == ()

    def test_new_nodes_recorded_in_first_appearance_order(self):
        g = DiGraph.from_edges([("a", "b")])
        delta = EdgeDelta.normalize(g, added_edges=[("q", "a"), ("b", "p"), ("q", "p")])
        assert delta.new_nodes == ("q", "p")
        assert not delta.removal_only


class TestDiGraphSatellites:
    def test_copy_carries_fingerprint_cache(self):
        g = gnm_random_digraph(8, 20, seed=1)
        digest = g.content_fingerprint()
        clone = g.copy()
        assert clone._fingerprint_cache is not None
        assert clone._fingerprint_cache[1] == digest
        assert clone.content_fingerprint() == digest
        clone.add_edge("fresh", 0)
        assert clone.content_fingerprint() != digest

    def test_copy_without_cached_fingerprint_stays_lazy(self):
        g = gnm_random_digraph(8, 20, seed=2)
        clone = g.copy()
        assert clone._fingerprint_cache is None
        assert clone.content_fingerprint() == g.content_fingerprint()

    def test_remove_node_matches_rebuild(self):
        g = gnm_random_digraph(9, 30, seed=3)
        victim = 4
        g_removed = g.copy()
        g_removed.remove_node(victim)
        rebuilt = DiGraph()
        for index in range(g.num_nodes):
            if g.label_of(index) != victim:
                rebuilt.add_node(g.label_of(index))
        for u in range(g.num_nodes):
            for v in sorted(g.out_adj[u]):
                lu, lv = g.label_of(u), g.label_of(v)
                if victim not in (lu, lv):
                    rebuilt.add_edge(lu, lv)
        assert g_removed.content_fingerprint() == rebuilt.content_fingerprint()

    def test_remove_missing_node_raises(self):
        g = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError):
            g.remove_node("zz")

    @given(seed=seeds, stream_seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_apply_delta_matches_edge_by_edge_mutation(self, seed, stream_seed):
        g = small_graph(seed)
        (added, removed), = edge_update_stream(
            g, steps=1, batch_size=6, p_add=0.5, p_new_node=0.2, seed=stream_seed
        )
        batched = g.copy()
        batched.apply_delta(added, removed)
        stepwise = g.copy()
        for u, v in removed:
            stepwise.remove_edge(u, v)
        for u, v in added:
            stepwise.add_edge(u, v)
        assert batched.content_fingerprint() == stepwise.content_fingerprint()
        assert batched.out_degrees() == stepwise.out_degrees()
        assert batched.in_degrees() == stepwise.in_degrees()


class TestApplyUpdatesBitIdentity:
    @given(seed=seeds, stream_seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_uncertified_queries_match_cold_rebuild_bit_for_bit(self, seed, stream_seed):
        g = small_graph(seed)
        batches = edge_update_stream(
            g, steps=3, batch_size=4, p_add=0.4, p_new_node=0.1, seed=stream_seed
        )
        session = DDSSession(g.copy())
        if session.graph.num_edges:
            session.densest_subgraph("dc-exact")  # warm the caches the edits refresh or drop
        for added, removed in batches:
            session.apply_updates(added, removed, certify=False)
        cold = DDSSession(updated_cold_copy(g, batches))
        if cold.graph.num_edges == 0:
            return
        assert_same_result(
            session.densest_subgraph("dc-exact"), cold.densest_subgraph("dc-exact")
        )
        assert session.graph.out_degrees() == cold.graph.out_degrees()
        assert session.graph.in_degrees() == cold.graph.in_degrees()
        inc_core, cold_core = session.max_xy_core(), cold.max_xy_core()
        assert (inc_core.x, inc_core.y) == (cold_core.x, cold_core.y)
        assert inc_core.s_nodes == cold_core.s_nodes
        assert inc_core.t_nodes == cold_core.t_nodes

    @given(seed=seeds, stream_seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_certified_queries_stay_optimal(self, seed, stream_seed):
        g = small_graph(seed)
        batches = edge_update_stream(
            g, steps=3, batch_size=3, p_add=0.3, p_new_node=0.0, seed=stream_seed
        )
        session = DDSSession(g.copy())
        session.densest_subgraph("dc-exact")
        for added, removed in batches:
            session.apply_updates(added, removed)
        cold = DDSSession(updated_cold_copy(g, batches))
        if cold.graph.num_edges == 0:
            return
        served = session.densest_subgraph("dc-exact")
        reference = cold.densest_subgraph("dc-exact")
        # certification promises optimality, not byte equality: the pair may
        # differ when the optimum is non-unique, the density may not.
        assert served.density == pytest.approx(reference.density, abs=1e-12)
        assert served.edge_count == session.graph.count_edges_between(
            session.graph.indices_of(served.s_nodes),
            session.graph.indices_of(served.t_nodes),
        )

    @given(seed=seeds, stream_seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_top_k_after_updates_matches_cold_top_k(self, seed, stream_seed):
        g = small_graph(seed)
        batches = edge_update_stream(
            g, steps=2, batch_size=3, p_add=0.5, p_new_node=0.1, seed=stream_seed
        )
        session = DDSSession(g.copy())
        for added, removed in batches:
            session.apply_updates(added, removed, certify=False)
        cold = DDSSession(updated_cold_copy(g, batches))
        if cold.graph.num_edges == 0:
            return
        incremental = session.top_k(3, "dc-exact")
        reference = cold.top_k(3, "dc-exact")
        assert len(incremental) == len(reference)
        for inc, ref in zip(incremental, reference):
            assert_same_result(inc, ref)


class TestApplyUpdatesBehaviour:
    def make_pendant_graph(self) -> DiGraph:
        g = complete_bipartite_digraph(3, 3)
        g.add_edge("x", "y")
        return g

    def test_empty_delta_is_a_no_op(self):
        session = DDSSession(complete_bipartite_digraph(2, 2))
        token = session.graph.state_token
        report = session.apply_updates()
        assert report.delta.is_empty
        assert session.graph.state_token == token
        assert session.cache_stats()["updates_applied"] == 0

    def test_certification_keeps_unaffected_optimum(self):
        session = DDSSession(self.make_pendant_graph())
        session.densest_subgraph("dc-exact")
        report = session.apply_updates(removed_edges=[("x", "y")])
        assert report.removal_only
        assert report.results_certified == 1
        assert report.results_invalidated == 0
        assert [c.reason for c in report.certificates] == ["bounds"]
        served = session.densest_subgraph("dc-exact")
        assert served.stats["result_cache_hit"] is True
        assert served.stats["certified_stale"] == "bounds"
        assert session.cache_stats()["certified_stale_hits"] == 1

    @pytest.mark.parametrize("method", ["dc-exact", "core-exact"])
    @pytest.mark.parametrize(
        "shapes", [((3, 3), (3, 3)), ((2, 8), (4, 4))], ids=["3x3+3x3", "2x8+4x4"]
    )
    def test_edit_runs_no_min_cut_and_ties_research_to_the_cold_answer(self, shapes, method):
        # Disjoint complete blocks of equal density: two 3x3 blocks (reported
        # as their union at density 3.0), or a 2x8 block beside a 4x4 block.
        edges = [
            (f"b{block}s{i}", f"b{block}t{j}")
            for block, (s_size, t_size) in enumerate(shapes)
            for i in range(s_size)
            for j in range(t_size)
        ]
        session = DDSSession(DiGraph.from_edges(edges))
        reported = session.densest_subgraph(method)
        flow_calls = session.cache_stats()["flow_calls"]
        report = session.apply_updates(
            removed_edges=[(reported.s_nodes[0], reported.t_nodes[0])]
        )
        assert [c.reason for c in report.certificates] == ["inconclusive"]
        assert session.cache_stats()["flow_calls"] == flow_calls
        served = session.densest_subgraph(method)
        assert session.cache_stats()["local_research_runs"] == 1
        assert_same_result(served, DDSSession(session.graph.copy()).densest_subgraph(method))

    def test_invalidated_key_counts_as_local_research_on_next_query(self):
        session = DDSSession(self.make_pendant_graph())
        session.densest_subgraph("dc-exact")
        report = session.apply_updates(removed_edges=[("s0", "t0")], certify=False)
        assert report.results_invalidated == 1
        stats = session.cache_stats()
        assert stats["local_research_runs"] == 0
        session.densest_subgraph("dc-exact")
        assert session.cache_stats()["local_research_runs"] == 1
        # the key is consumed: a further repeat is a plain cache hit
        session.densest_subgraph("dc-exact")
        assert session.cache_stats()["local_research_runs"] == 1

    def test_direct_graph_mutation_still_rejected(self):
        session = DDSSession(complete_bipartite_digraph(2, 2))
        session.graph.add_edge("t0", "s0")
        with pytest.raises(GraphError, match="mutated"):
            session.densest_subgraph("dc-exact")

    def test_an_update_hashes_no_graph_state(self, monkeypatch):
        """A write needs the current graph and the delta, not a fingerprint of either state."""
        session = DDSSession(self.make_pendant_graph())
        session.densest_subgraph("dc-exact")
        hashed: list[int] = []
        fingerprint = DiGraph.content_fingerprint
        monkeypatch.setattr(
            DiGraph,
            "content_fingerprint",
            lambda graph: hashed.append(graph.state_token) or fingerprint(graph),
        )
        session.apply_updates(removed_edges=[("x", "y")])
        session.apply_updates(added_edges=[("x", "y")])
        assert hashed == []
        assert session.cache_stats()["updates_applied"] == 2

    def test_removal_only_repeel_restricts_to_old_core(self):
        session = DDSSession(self.make_pendant_graph())
        session.xy_core(1, 1)
        report = session.apply_updates(removed_edges=[("s0", "t0")])
        assert report.cores_repeeled >= 1
        assert report.cores_rebuilt == 0
        cold = DDSSession(session.graph.copy())
        fresh = cold.xy_core(1, 1)
        patched = session.xy_core(1, 1)
        assert patched.s_nodes == fresh.s_nodes
        assert patched.t_nodes == fresh.t_nodes

    def test_insertion_forces_full_core_rebuild(self):
        session = DDSSession(complete_bipartite_digraph(3, 3))
        session.xy_core(2, 2)
        report = session.apply_updates(added_edges=[("t0", "s0")])
        assert report.cores_rebuilt >= 1
        assert report.cores_repeeled == 0


class TestTopKRounds:
    @pytest.mark.parametrize("method", ["dc-exact", "core-exact", "flow-exact"])
    def test_later_rounds_count_like_cold_sessions(self, method):
        g = gnm_random_digraph(18, 70, seed=11)
        session = DDSSession(g.copy())
        rounds = session.top_k(3, method)
        assert len(rounds) >= 2
        stats = session.cache_stats()

        # sequential baseline: one cold session per peel round
        work = g.copy()
        cold_built = cold_calls = 0
        for reference in rounds:
            cold = DDSSession(work.copy())
            result = cold.densest_subgraph(method)
            assert_same_result(result, reference)
            cold_built += cold.cache_stats()["networks_built"]
            cold_calls += cold.cache_stats()["flow_calls"]
            pairs = [
                (work.label_of(u), work.label_of(v))
                for u, v in work.edges_between(
                    work.indices_of(result.s_nodes), work.indices_of(result.t_nodes)
                )
            ]
            work.apply_delta((), pairs)
        assert stats["networks_built"] == cold_built
        assert stats["flow_calls"] == cold_calls


class TestEdgeUpdateStream:
    @given(seed=seeds, stream_seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_batches_are_valid_and_deterministic(self, seed, stream_seed):
        g = small_graph(seed)
        kwargs = dict(steps=5, batch_size=4, p_add=0.5, p_new_node=0.2, seed=stream_seed)
        batches = edge_update_stream(g, **kwargs)
        assert batches == edge_update_stream(g, **kwargs)
        assert len(batches) == 5
        replay = g.copy()
        for added, removed in batches:
            assert not set(added) & set(removed)
            for u, v in removed:
                assert replay.has_edge(u, v)
            for u, v in added:
                assert u != v
                assert not replay.has_edge(u, v)
            replay.apply_delta(added, removed)

    def test_generator_never_mutates_its_input(self):
        g = gnm_random_digraph(10, 30, seed=5)
        digest = g.content_fingerprint()
        edge_update_stream(g, steps=4, batch_size=5, p_add=0.7, p_new_node=0.5, seed=6)
        assert g.content_fingerprint() == digest

    def test_pure_removal_stream_drains_the_graph(self):
        g = complete_bipartite_digraph(2, 3)
        batches = edge_update_stream(g, steps=10, batch_size=1, p_add=0.0, seed=0)
        replay = g.copy()
        for added, removed in batches:
            assert not added
            replay.apply_delta(added, removed)
        assert replay.num_edges == 0
