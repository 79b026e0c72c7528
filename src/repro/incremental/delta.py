"""Normalized edge deltas and the per-update maintenance report.

The incremental subsystem treats a graph update as one **normalized batch**
of edge removals and insertions — :class:`EdgeDelta` — applied through
:meth:`DiGraph.apply_delta <repro.graph.digraph.DiGraph.apply_delta>` so the
graph's state token moves exactly once per batch.  Normalization happens
*before* anything is mutated, against the pre-update graph:

* both lists are de-duplicated (first occurrence wins);
* an edge listed as both added and removed is rejected outright — the batch
  is unordered, so the request is ambiguous;
* removed edges must exist (matching :meth:`DiGraph.remove_edge`);
* added edges that already exist, and self-loops on a loop-rejecting graph,
  are dropped silently (matching :meth:`DiGraph.add_edge` returning
  ``False``) — with the one divergence that a *rejected* edge never creates
  its endpoint nodes either;
* endpoint labels unknown to the graph are recorded in :attr:`new_nodes`
  (they will be appended, in order of first appearance, when the delta is
  applied).

Every count the maintenance machinery produces while absorbing the delta is
gathered into an :class:`UpdateReport` — the return value of
:meth:`DDSSession.apply_updates <repro.session.DDSSession.apply_updates>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph, NodeLabel

Edge = tuple[NodeLabel, NodeLabel]


@dataclass(frozen=True)
class EdgeDelta:
    """A normalized batch of edge updates against one specific graph state.

    ``added`` / ``removed`` hold only the *effective* edges (duplicates and
    rejected insertions already filtered) of the graph state it was
    normalized against.
    """

    added: tuple[Edge, ...]
    removed: tuple[Edge, ...]
    new_nodes: tuple[NodeLabel, ...]

    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing (apply is then a no-op)."""
        return not self.added and not self.removed and not self.new_nodes

    @property
    def removal_only(self) -> bool:
        """True when the delta only removes edges.

        Removal-only deltas are the monotone case the maintenance layer
        exploits: degrees only drop, [x, y]-cores only shrink, and the
        optimal density can only decrease — each of which licenses a cheaper
        patch than the general case.
        """
        return not self.added and not self.new_nodes

    @classmethod
    def normalize(
        cls,
        graph: DiGraph,
        added_edges: Iterable[Edge] = (),
        removed_edges: Iterable[Edge] = (),
    ) -> "EdgeDelta":
        """Validate and canonicalise a raw update request against ``graph``."""
        removed: list[Edge] = []
        removed_seen: set[Edge] = set()
        for u, v in removed_edges:
            if (u, v) in removed_seen:
                continue
            if not graph.has_edge(u, v):
                raise GraphError(f"edge {u!r} -> {v!r} does not exist")
            removed_seen.add((u, v))
            removed.append((u, v))

        added: list[Edge] = []
        added_seen: set[Edge] = set()
        new_nodes: list[NodeLabel] = []
        new_seen: set[NodeLabel] = set()
        for u, v in added_edges:
            if (u, v) in removed_seen:
                raise GraphError(
                    f"edge {u!r} -> {v!r} is listed as both added and removed; "
                    "a delta batch is unordered, so the request is ambiguous"
                )
            if (u, v) in added_seen:
                continue
            if u == v and not graph.allow_self_loops:
                continue
            if graph.has_edge(u, v):
                continue
            added_seen.add((u, v))
            added.append((u, v))
            for label in (u, v):
                if not graph.has_node(label) and label not in new_seen:
                    new_seen.add(label)
                    new_nodes.append(label)

        return cls(
            added=tuple(added),
            removed=tuple(removed),
            new_nodes=tuple(new_nodes),
        )


@dataclass
class UpdateReport:
    """What one :meth:`DDSSession.apply_updates` call did to the caches.

    Field glossary (each is also surfaced in the docs' counter glossary):

    ``edges_added`` / ``edges_removed`` / ``nodes_added``
        Effective structural changes the delta applied.
    ``removal_only``
        Whether the monotone fast paths were available (see
        :attr:`EdgeDelta.removal_only`).
    ``cores_repeeled``
        Cached [x, y]-cores refreshed by a *local* re-peel restricted to the
        old core's members (removal-only deltas).
    ``cores_rebuilt``
        Cached cores recomputed from the whole graph (deltas with
        insertions, where a local re-peel is unsound because cores can grow).
    ``max_core_kept``
        Whether the cached maximum-product core survived the delta unchanged
        (provably still maximal — see ``maintain.refresh_cores``).
    ``results_certified`` / ``results_invalidated``
        Result-cache entries kept because the delta certificate proved them
        still valid vs. evicted (their keys are remembered so the next miss
        counts as a ``local_research_run``).
    ``certificates``
        One :class:`~repro.incremental.certify.DeltaCertificate` per
        result-cache entry examined, in eviction-order.
    """

    delta: EdgeDelta
    edges_added: int = 0
    edges_removed: int = 0
    nodes_added: int = 0
    removal_only: bool = False
    cores_repeeled: int = 0
    cores_rebuilt: int = 0
    max_core_kept: bool = False
    results_certified: int = 0
    results_invalidated: int = 0
    certificates: list = field(default_factory=list)

