"""Tests for method dispatch through :class:`DDSSession` and the result objects."""

from __future__ import annotations

import math

import pytest

import repro.session.session as session_module
from repro.core import available_methods
from repro.core.results import DDSResult
from repro.exceptions import AlgorithmError, EmptyGraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph
from repro.session import DDSSession


class TestDispatch:
    def test_available_methods(self):
        methods = available_methods()
        assert "core-exact" in methods
        assert "peel-approx" in methods
        assert "brute-force" in methods

    @pytest.mark.parametrize("method", ["flow-exact", "dc-exact", "core-exact", "brute-force"])
    def test_exact_methods_agree(self, method):
        g = complete_bipartite_digraph(2, 4)
        result = DDSSession(g).densest_subgraph(method)
        assert result.density == pytest.approx(math.sqrt(8))
        assert result.is_exact

    @pytest.mark.parametrize("method", ["core-approx", "inc-approx", "peel-approx"])
    def test_approx_methods_return_results(self, method):
        g = gnm_random_digraph(30, 120, seed=5)
        result = DDSSession(g).densest_subgraph(method)
        assert result.density > 0
        assert not result.is_exact

    def test_unknown_method(self):
        g = complete_bipartite_digraph(2, 2)
        with pytest.raises(AlgorithmError, match="unknown method"):
            DDSSession(g).densest_subgraph("magic")

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            DDSSession(DiGraph.from_edges([], nodes=[1, 2])).densest_subgraph()

    def test_auto_small_graph_uses_exact(self):
        g = complete_bipartite_digraph(2, 3)
        result = DDSSession(g).densest_subgraph("auto")
        assert result.stats["auto_selected"] == "core-exact"
        assert result.is_exact

    def test_auto_large_graph_uses_approx(self, monkeypatch):
        monkeypatch.setattr(session_module, "AUTO_EXACT_NODE_LIMIT", 5)
        g = gnm_random_digraph(20, 60, seed=2)
        result = DDSSession(g).densest_subgraph("auto")
        assert result.stats["auto_selected"] == "core-approx"

    def test_kwargs_forwarded(self):
        g = complete_bipartite_digraph(3, 3)
        result = DDSSession(g).densest_subgraph("peel-approx", epsilon=0.25)
        assert result.stats["epsilon"] == 0.25

    def test_auto_limit_is_reasonable(self):
        assert 50 <= session_module.AUTO_EXACT_NODE_LIMIT <= 10_000


class TestDDSResult:
    def test_properties(self):
        result = DDSResult(
            s_nodes=["a", "b"],
            t_nodes=["x", "y", "z"],
            density=1.5,
            edge_count=6,
            method="test",
            is_exact=False,
            approximation_ratio=2.0,
        )
        assert result.s_size == 2
        assert result.t_size == 3
        assert result.ratio == pytest.approx(2 / 3)
        summary = result.summary()
        assert summary["method"] == "test"
        assert summary["|S|"] == 2

    def test_ratio_with_empty_t(self):
        result = DDSResult([], [], 0.0, 0, "test", False)
        assert result.ratio == 0.0
