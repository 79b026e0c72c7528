"""Restriction of the DDS search to candidate S/T vertex sets.

Both the flow-based exact algorithms and the peeling algorithms never need
the whole graph — they need the bipartite-like structure
``(S_candidates, T_candidates, E ∩ (S_candidates × T_candidates))``.
:class:`STSubproblem` materialises exactly that once and lets the solvers
reuse it, which is also where the core-based pruning plugs in: CoreExact
simply builds sub-problems from [x, y]-cores instead of from ``V × V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.core.flow_network import DecisionTopology
from repro.graph.digraph import DiGraph


@dataclass
class STSubproblem:
    """Candidate S-side nodes, candidate T-side nodes, and the edges between them.

    Node identifiers are **graph internal indices** throughout; conversion to
    labels happens only when a final :class:`~repro.core.results.DDSResult` is
    assembled.

    A sub-problem is never mutated once built: every fixed-ratio search on
    it reads the same candidates and edges.  That is what lets it own its
    :attr:`decision_topology`, which its first search builds and every
    later one shares.
    """

    graph: DiGraph
    s_candidates: list[int]
    t_candidates: list[int]
    edges: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        s_candidates: Sequence[int] | None = None,
        t_candidates: Sequence[int] | None = None,
    ) -> "STSubproblem":
        """Build a sub-problem; ``None`` candidate sets default to all nodes.

        Vertices with no outgoing edge into the T candidates (resp. no
        incoming edge from the S candidates) are dropped immediately — they
        can never appear in an optimal ``S`` (resp. ``T``) because removing
        them strictly increases the density.
        """
        all_nodes = list(range(graph.num_nodes))
        s_list = list(s_candidates) if s_candidates is not None else all_nodes
        t_list = list(t_candidates) if t_candidates is not None else all_nodes
        t_set = set(t_list)
        s_set = set(s_list)

        edges = [
            (u, v)
            for u in s_list
            for v in graph.out_adj[u]
            if v in t_set
        ]
        useful_s = {u for u, _ in edges}
        useful_t = {v for _, v in edges}
        s_kept = [u for u in s_list if u in useful_s]
        t_kept = [v for v in t_list if v in useful_t]
        # Edges are already restricted to s_list x t_list; restricting the
        # candidate lists to the useful vertices does not drop any edge.
        del s_set
        return cls(graph=graph, s_candidates=s_kept, t_candidates=t_kept, edges=edges)

    @cached_property
    def decision_topology(self) -> DecisionTopology:
        """The read-only layout of this sub-problem's decision networks.

        Built by the first search that needs it and kept as long as the
        sub-problem lives, so every fixed-ratio search on the sub-problem
        (FlowExact's ratios, every DC-Exact probe on the whole graph, every
        leaf ratio of a CoreExact interval) shares one node layout, one arc
        list, one CSR index and one set of solver lists; each search's
        network allocates only its own capacities
        (:func:`~repro.core.flow_network.build_decision_network`).
        """
        return DecisionTopology(self)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges available to the sub-problem."""
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        """True when no edge (hence no non-trivial pair) remains."""
        return not self.edges or not self.s_candidates or not self.t_candidates

    def out_degrees(self) -> dict[int, int]:
        """Out-degree (within the sub-problem) of every S candidate."""
        degrees = {u: 0 for u in self.s_candidates}
        for u, _ in self.edges:
            degrees[u] += 1
        return degrees

    def in_degrees(self) -> dict[int, int]:
        """In-degree (within the sub-problem) of every T candidate."""
        degrees = {v: 0 for v in self.t_candidates}
        for _, v in self.edges:
            degrees[v] += 1
        return degrees
