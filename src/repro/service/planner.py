"""Batch planner: one lane per graph, each in file order.

``dds-repro batch`` executes a JSON list of queries.  The planner validates
the entries and groups them by graph: all queries for one graph become one
contiguous *lane*, executed on one session (and one executor worker) in
file order.  Lanes keep the first-appearance order of their graphs, so a
plan is a pure function of the batch.  Per-query answers do not depend on
the execution order (pinned by the permutation property test).

:meth:`BatchPlan.explain` renders the execution order and the lanes for
``--explain``; :class:`ShardMap` routes lanes to remote shard daemons by
graph content fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import BatchQueryError, ConfigError


@dataclass(frozen=True)
class PlannedQuery:
    """One batch entry and the graph lane it runs in.

    ``index`` is the entry's position in the *input* file — payloads are
    re-assembled in input order whatever order the lanes ran in.
    """

    index: int
    graph_key: str
    spec: dict[str, Any] = field(hash=False)


@dataclass
class BatchPlan:
    """An execution order over a batch: its lanes, one after the other."""

    entries: list[PlannedQuery]

    @property
    def lanes(self) -> dict[str, list[PlannedQuery]]:
        """Entries grouped by graph key, preserving plan order within each lane."""
        lanes: dict[str, list[PlannedQuery]] = {}
        for entry in self.entries:
            lanes.setdefault(entry.graph_key, []).append(entry)
        return lanes

    def explain(self) -> dict[str, Any]:
        """JSON-ready description of the plan (the ``--explain`` payload)."""
        return {
            "queries": len(self.entries),
            "execution_order": [entry.index for entry in self.entries],
            "lanes": {
                graph_key: [entry.index for entry in lane]
                for graph_key, lane in self.lanes.items()
            },
        }


@dataclass(frozen=True)
class ShardMap:
    """Content-fingerprint shard routing for the executor's remote shard daemons.

    Routes every graph to one of ``num_shards`` daemons by hashing its
    :meth:`content_fingerprint
    <repro.graph.digraph.DiGraph.content_fingerprint>` — *not* its graph
    key, its ``state_token``, or its position in the batch.  Because the
    fingerprint is content-derived and process-independent, the routing is
    stable across batches, executor instances, and machines: the same graph
    always lands on the same shard index, so the daemon owning shard ``i``
    is the only writer of its graphs' :class:`~repro.service.store.
    SessionStore` rows *within* an executor run (concurrent executors
    remain safe under the store's SQLite transactions).  The process
    pool's local daemons live for one batch, so their slots are anonymous:
    :class:`~repro.service.executor.BatchExecutor` deals them the batch's
    fingerprints round-robin instead.
    """

    num_shards: int

    def __post_init__(self) -> None:
        if not isinstance(self.num_shards, int) or self.num_shards < 1:
            raise ConfigError(f"num_shards must be a positive int, got {self.num_shards!r}")

    def shard_of(self, fingerprint: str) -> int:
        """Deterministic shard index of a graph content fingerprint."""
        try:
            prefix = int(fingerprint[:16], 16)
        except (TypeError, ValueError):
            raise ConfigError(f"not a content fingerprint: {fingerprint!r}")
        return prefix % self.num_shards


def plan_batch(
    queries: list[dict[str, Any]],
    *,
    default_graph_key: str = "default",
) -> BatchPlan:
    """Build a :class:`BatchPlan` over JSON batch entries.

    Each entry may route itself to a graph with a ``"dataset"`` field (see
    :mod:`repro.service.queries`); entries without one share
    ``default_graph_key`` — the graph the CLI was pointed at.
    """
    if not isinstance(queries, list):
        raise BatchQueryError(
            f"a batch must be a list of query objects, got {type(queries).__name__}"
        )
    entries: list[PlannedQuery] = []
    lane_rank: dict[str, int] = {}
    for index, spec in enumerate(queries):
        if not isinstance(spec, dict):
            raise BatchQueryError(f"batch entries must be JSON objects, got: {spec!r}")
        graph_key = spec.get("dataset", default_graph_key)
        if not isinstance(graph_key, str) or not graph_key:
            raise BatchQueryError(
                f"batch entry {index} field 'dataset' must be a non-empty string, "
                f"got {graph_key!r}"
            )
        lane_rank.setdefault(graph_key, len(lane_rank))
        entries.append(PlannedQuery(index=index, graph_key=graph_key, spec=dict(spec)))
    # A stable sort keeps file order within each lane.
    return BatchPlan(entries=sorted(entries, key=lambda entry: lane_rank[entry.graph_key]))
