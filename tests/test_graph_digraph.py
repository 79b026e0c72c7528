"""Unit tests for the DiGraph data structure."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.nodes() == []
        assert list(g.edges()) == []

    def test_add_node_idempotent(self):
        g = DiGraph()
        first = g.add_node("a")
        second = g.add_node("a")
        assert first == second
        assert g.num_nodes == 1

    def test_add_edge_creates_nodes(self):
        g = DiGraph()
        assert g.add_edge("a", "b") is True
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_duplicate_edge_ignored(self):
        g = DiGraph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False
        assert g.num_edges == 1

    def test_self_loop_dropped_by_default(self):
        g = DiGraph()
        assert g.add_edge("a", "a") is False
        assert g.num_edges == 0

    def test_self_loop_kept_when_allowed(self):
        g = DiGraph(allow_self_loops=True)
        assert g.add_edge("a", "a") is True
        assert g.num_edges == 1
        assert g.has_edge("a", "a")

    def test_from_edges_with_extra_nodes(self):
        g = DiGraph.from_edges([(1, 2)], nodes=[3, 4])
        assert set(g.nodes()) == {1, 2, 3, 4}
        assert g.num_edges == 1

    def test_mixed_label_types(self):
        g = DiGraph.from_edges([("a", 1), (1, (2, 3))])
        assert g.num_nodes == 3
        assert g.has_edge("a", 1)
        assert g.has_edge(1, (2, 3))


class TestQueries:
    def test_degrees(self):
        g = DiGraph.from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        assert g.out_degree("a") == 2
        assert g.in_degree("a") == 0
        assert g.out_degree("c") == 0
        assert g.in_degree("c") == 2

    def test_successors_predecessors(self):
        g = DiGraph.from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        assert sorted(g.successors("a")) == ["b", "c"]
        assert sorted(g.predecessors("c")) == ["a", "b"]
        assert g.successors("c") == []

    def test_unknown_node_raises(self):
        g = DiGraph.from_edges([(1, 2)])
        with pytest.raises(GraphError):
            g.out_degree(99)
        with pytest.raises(GraphError):
            g.index_of("missing")

    def test_contains_and_len(self):
        g = DiGraph.from_edges([(1, 2), (2, 3)])
        assert 1 in g
        assert 99 not in g
        assert len(g) == 3

    def test_edges_roundtrip(self):
        pairs = {(1, 2), (2, 3), (3, 1), (1, 3)}
        g = DiGraph.from_edges(pairs)
        assert set(g.edges()) == pairs

    def test_max_degrees(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 3)])
        assert g.max_out_degree() == 3
        assert g.max_in_degree() == 2
        assert DiGraph().max_out_degree() == 0


class TestIndexView:
    def test_label_index_roundtrip(self):
        g = DiGraph.from_edges([("x", "y"), ("y", "z")])
        for label in g.nodes():
            assert g.label_of(g.index_of(label)) == label

    def test_adjacency_consistency(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        out_total = sum(len(adj) for adj in g.out_adj)
        in_total = sum(len(adj) for adj in g.in_adj)
        assert out_total == g.num_edges
        assert in_total == g.num_edges

    def test_adjacency_cache_invalidation(self):
        g = DiGraph.from_edges([(0, 1)])
        assert g.out_adj[g.index_of(0)] == [g.index_of(1)]
        g.add_edge(0, 2)
        assert len(g.out_adj[g.index_of(0)]) == 2

    def test_count_edges_between(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
        s = [g.index_of(0), g.index_of(1)]
        t = [g.index_of(2)]
        assert g.count_edges_between(s, t) == 2
        assert g.count_edges_between(t, s) == 1

    def test_edges_between_matches_count(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)])
        s = [g.index_of(0), g.index_of(2)]
        t = [g.index_of(1), g.index_of(2)]
        found = g.edges_between(s, t)
        assert len(found) == g.count_edges_between(s, t)
        for u, v in found:
            assert g.has_edge(g.label_of(u), g.label_of(v))


class TestMutationsAndCopies:
    def test_remove_edge(self):
        g = DiGraph.from_edges([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_copy_is_independent(self):
        g = DiGraph.from_edges([(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.num_edges == 1
        assert clone.num_edges == 2
        assert g.nodes() == [1, 2]

    def test_subgraph_keeps_isolated_nodes(self):
        g = DiGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        sub = g.subgraph([1, 2, 4])
        assert set(sub.nodes()) == {1, 2, 4}
        assert sub.num_edges == 1
        assert sub.has_edge(1, 2)

    def test_reverse(self):
        g = DiGraph.from_edges([(1, 2), (2, 3)])
        rev = g.reverse()
        assert rev.has_edge(2, 1)
        assert rev.has_edge(3, 2)
        assert rev.num_edges == 2
        assert set(rev.nodes()) == set(g.nodes())


_LABELS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    st.frozensets(st.integers(min_value=0, max_value=3), max_size=2),
    st.none(),
)


@st.composite
def _labelled_graphs(draw) -> DiGraph:
    """Small graphs over mixed, non-string labels, with or without self-loops."""
    labels = draw(st.lists(_LABELS, max_size=10, unique=True))
    edges = []
    if labels:
        endpoint = st.sampled_from(labels)
        edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    return DiGraph.from_edges(edges, nodes=labels, allow_self_loops=draw(st.booleans()))


class TestDiGraphPickle:
    @settings(max_examples=60, deadline=None)
    @given(graph=_labelled_graphs())
    def test_round_trip_keeps_content_under_a_fresh_token(self, graph):
        fingerprint = graph.content_fingerprint()
        blob = pickle.dumps(graph)
        drawn_before = DiGraph().state_token
        rebuilt = pickle.loads(blob)
        assert rebuilt.nodes() == graph.nodes()
        assert [type(label) for label in rebuilt.nodes()] == [
            type(label) for label in graph.nodes()
        ]
        assert sorted(rebuilt.edge_indices()) == sorted(graph.edge_indices())
        assert rebuilt.num_edges == graph.num_edges
        assert rebuilt.allow_self_loops == graph.allow_self_loops
        assert rebuilt.content_fingerprint() == fingerprint
        # Drawn from this process's counter after unpickling, not copied.
        assert rebuilt.state_token > drawn_before


class TestFromCsrArrays:
    def test_round_trip_preserves_fingerprint(self, small_random_graph):
        graph = small_random_graph
        starts, targets = [0], []
        for row in graph.out_adj:
            targets.extend(row)
            starts.append(len(targets))
        rebuilt = DiGraph.from_csr_arrays(graph.nodes(), starts, targets)
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()
        assert rebuilt.num_edges == graph.num_edges

    def test_rejects_malformed_csr(self):
        with pytest.raises(GraphError, match="monotone"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1], [1, 0])
        with pytest.raises(GraphError, match="duplicates"):
            DiGraph.from_csr_arrays(["a", "a"], [0, 0, 0], [])
        with pytest.raises(GraphError, match="out of range"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1, 1], [5])
        with pytest.raises(GraphError, match="self-loop"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1, 1], [0])

    @pytest.mark.parametrize(
        "labels, starts, targets",
        [
            # a row start beyond the targets, which reads as duplicates in row 0
            (["a", "b"], [0, 5, 3], [1, 0, 1]),
            # a row start that falls back, which reads as a loop in row 0
            (["a", "b", "c"], [0, 3, 2, 3], [1, 2, 0]),
        ],
        ids=["overrunning-start", "falling-start"],
    )
    def test_decreasing_starts_are_named_before_any_row_is_read(self, labels, starts, targets):
        with pytest.raises(GraphError, match="^CSR starts decrease at row 1$"):
            DiGraph.from_csr_arrays(labels, starts, targets)

    def test_out_of_range_target_is_named_before_any_row_is_read(self):
        # Row 0 also repeats a target; the range defect is found first.
        with pytest.raises(GraphError, match=r"^CSR target -1 out of range \[0, 2\)$"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 2, 3], [1, 1, -1])
