"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from flow_oracle import EdmondsKarpSolver

from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
)


@pytest.fixture
def flow_oracle(monkeypatch) -> type:
    """Run every min-cut of one test on the Edmonds–Karp oracle.

    Swaps it in as :attr:`FlowEngine.solver_class` and returns it; the
    class is restored afterwards, so every other test runs ``dinic``.
    """
    monkeypatch.setattr(FlowEngine, "solver_class", EdmondsKarpSolver)
    return EdmondsKarpSolver


@pytest.fixture
def triangle_cycle() -> DiGraph:
    """A directed 3-cycle: every vertex has out-degree 1 and in-degree 1."""
    return DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def two_by_three() -> DiGraph:
    """Complete bipartite 2 -> 3 digraph; the DDS is the whole graph (density sqrt(6))."""
    return complete_bipartite_digraph(2, 3)


@pytest.fixture
def planted_graph() -> tuple[DiGraph, list[int], list[int]]:
    """Sparse background plus a planted 4x5 dense block (known DDS location)."""
    return planted_dds_digraph(
        n_background=30, background_degree=1.5, s_size=4, t_size=5, p_dense=1.0, seed=5
    )


@pytest.fixture
def small_random_graph() -> DiGraph:
    """A fixed random digraph small enough for the exact algorithms."""
    return gnm_random_digraph(14, 45, seed=9)


def random_digraph(n: int, m: int, seed: int) -> DiGraph:
    """Random simple digraph with exactly min(m, n(n-1)) edges (test helper)."""
    return gnm_random_digraph(n, m, seed=seed)


def random_edge_list(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random (possibly duplicated) edge list used by hypothesis-free randomised tests."""
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges
