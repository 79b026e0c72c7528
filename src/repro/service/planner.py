"""Cache-aware batch planner: reorder a query list to maximise state reuse.

``dds-repro batch`` historically executed its query file top to bottom.
File order is rarely cache-friendly: queries against the same graph end up
interleaved with other graphs' queries, repeated probes drift apart until
the LRU network cache has evicted the network they could have shared, and
exact solvers run before the cheap approximations that would have populated
core state.  The planner reorders the batch so that the session and network
caches see the *same* requests at the *smallest possible reuse distance* —
per-query results are bit-identical under any order (pinned by the
permutation property test); only the amount of repeated work changes.

Heuristics, in priority order
-----------------------------
1. **Graph affinity** — all queries for one graph become one contiguous
   *lane*, executed on one session (and one executor thread).  Lanes keep
   first-appearance order, so single-graph batches stay deterministic.
2. **Approx-before-exact phases** — within a lane, queries run in phases:
   cheap structural queries and the peel/core approximations first (they
   populate degree arrays, [x, y]-core state, and density bounds), then
   fixed-ratio probes (they build and warm decision networks), then the
   flow-backed exact methods that benefit from all of the above.
3. **Family grouping** — within a phase, queries with the same signature
   (kind, method, config fields) become adjacent, so an identical repeat is
   served while its predecessor's state — result-cache entry, decision
   network and its residual flow — is still resident (reuse
   distance 0, immune to LRU eviction).  Distinct families keep
   first-appearance order; within a family, file order is preserved.

The plan records which positions moved and predicts the cache hits the
reordering protects; :meth:`BatchPlan.explain` renders both, and the
executor fills in the realised counters so predicted-vs-realised is one
``--explain`` flag away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.method_registry import get_method_spec
from repro.exceptions import AlgorithmError, BatchQueryError, ConfigError

#: Phase indices of heuristic 2 (smaller runs earlier).
PHASE_SEED = 0
PHASE_PROBE = 1
PHASE_EXACT = 2

_PHASE_NAMES = {PHASE_SEED: "seed", PHASE_PROBE: "probe", PHASE_EXACT: "exact"}


@dataclass(frozen=True)
class PlannedQuery:
    """One batch entry with its planning metadata.

    ``index`` is the entry's position in the *input* file — payloads are
    re-assembled in input order no matter how the plan shuffled execution.
    """

    index: int
    graph_key: str
    spec: dict[str, Any] = field(hash=False)
    phase: int = PHASE_EXACT
    family: str = ""


@dataclass
class BatchPlan:
    """An execution order over a batch, plus the planner's reasoning."""

    entries: list[PlannedQuery]
    planned: bool
    moves: int
    predicted_result_cache_hits: int
    predicted_network_cache_hits: int

    @property
    def lanes(self) -> dict[str, list[PlannedQuery]]:
        """Entries grouped by graph key, preserving plan order within each lane."""
        lanes: dict[str, list[PlannedQuery]] = {}
        for entry in self.entries:
            lanes.setdefault(entry.graph_key, []).append(entry)
        return lanes

    def explain(self) -> dict[str, Any]:
        """JSON-ready description of the plan (the ``--explain`` payload)."""
        groups: list[dict[str, Any]] = []
        for entry in self.entries:
            if (
                groups
                and groups[-1]["graph"] == entry.graph_key
                and groups[-1]["phase"] == _PHASE_NAMES[entry.phase]
                and groups[-1]["family"] == entry.family
            ):
                groups[-1]["queries"].append(entry.index)
            else:
                groups.append(
                    {
                        "graph": entry.graph_key,
                        "phase": _PHASE_NAMES[entry.phase],
                        "family": entry.family,
                        "queries": [entry.index],
                    }
                )
        return {
            "planned": self.planned,
            "queries": len(self.entries),
            "moves": self.moves,
            "execution_order": [entry.index for entry in self.entries],
            "groups": groups,
            "predicted": {
                "result_cache_hits": self.predicted_result_cache_hits,
                "network_cache_hits": self.predicted_network_cache_hits,
            },
        }


@dataclass(frozen=True)
class ShardMap:
    """Content-fingerprint shard routing for the process-pool executor.

    Routes every graph to one of ``num_shards`` workers by hashing its
    :meth:`content_fingerprint
    <repro.graph.digraph.DiGraph.content_fingerprint>` — *not* its graph
    key, its ``state_token``, or its position in the batch.  Because the
    fingerprint is content-derived and process-independent, the routing is
    stable across batches, executor instances, and machines: the same graph
    always lands on the same shard index, so the worker owning shard ``i``
    is the only writer of its graphs' :class:`~repro.service.store.
    SessionStore` directories *within* an executor run (concurrent
    executors remain safe under the store's per-graph ``fcntl`` locks).
    This is the single-machine form of the ROADMAP's multi-machine routing:
    replacing "worker index" with "machine" changes nothing else.
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

    def assign(
        self, fingerprints: Mapping[str, str], *, collapse: bool = False
    ) -> dict[int, list[str]]:
        """Group ``graph_key -> fingerprint`` into ``shard -> [graph_keys]``.

        Only non-empty shards appear; within a shard, keys keep the
        mapping's iteration order (lane/plan order for the executor).

        With ``collapse=True``, hash collisions that leave some shards
        empty while others hold several *distinct* fingerprints are
        re-spread: each overfull shard keeps its smallest fingerprint and
        donates the rest — in fingerprint order — to the empty shards in
        ascending index order, until either side runs out.  The result has
        ``min(num_shards, distinct fingerprints)`` non-empty shards, so a
        pool sized to ``num_shards`` anonymous workers never idles a slot
        while another serialises two graphs.  Collapsing is still a pure
        function of the fingerprints (no batch-order dependence), but it
        re-routes graphs relative to :meth:`shard_of` — use it only where
        shard identity is anonymous (the process pool), never where a
        shard index is pinned to an owner across batches (remote hosts,
        store-shard ownership).
        """
        shards: dict[int, list[str]] = {}
        for graph_key, fingerprint in fingerprints.items():
            shards.setdefault(self.shard_of(fingerprint), []).append(graph_key)
        if not collapse:
            return shards
        empty = sorted(set(range(self.num_shards)) - set(shards))
        if not empty:
            return shards
        donations: list[tuple[int, list[str]]] = []
        for shard in sorted(shards):
            by_fingerprint: dict[str, list[str]] = {}
            for graph_key in shards[shard]:
                by_fingerprint.setdefault(fingerprints[graph_key], []).append(graph_key)
            for fingerprint in sorted(by_fingerprint)[1:]:
                donations.append((shard, by_fingerprint[fingerprint]))
        for target, (source, graph_keys) in zip(empty, donations):
            shards[source] = [key for key in shards[source] if key not in graph_keys]
            shards[target] = graph_keys
        return shards


def _family_signature(spec: dict[str, Any]) -> str:
    """Canonical (kind, method, config) signature — identical queries collide."""
    fields = {key: value for key, value in spec.items() if key != "dataset"}
    try:
        return json.dumps(fields, sort_keys=True, default=str)
    except TypeError:  # pragma: no cover - JSON input can't trigger this
        return repr(sorted(fields.items(), key=lambda item: item[0]))


def _phase_of(spec: dict[str, Any]) -> int:
    """Phase assignment (heuristic 2).  Unknown methods sort last; the
    executor — not the planner — owns rejecting them with a real error."""
    kind = spec.get("query", "densest")
    if kind in ("summary", "xy-core", "max-core"):
        return PHASE_SEED
    if kind == "fixed-ratio":
        return PHASE_PROBE
    method = str(spec.get("method", "auto"))
    if method == "auto":
        return PHASE_EXACT
    try:
        method_spec = get_method_spec(method)
    except AlgorithmError:
        return PHASE_EXACT
    return PHASE_SEED if not method_spec.flow_backed else PHASE_EXACT


def plan_batch(
    queries: list[dict[str, Any]],
    *,
    default_graph_key: str = "default",
    planned: bool = True,
) -> BatchPlan:
    """Build a :class:`BatchPlan` over JSON batch entries.

    Each entry may route itself to a graph with a ``"dataset"`` field (see
    :mod:`repro.service.queries`); entries without one share
    ``default_graph_key`` — the graph the CLI was pointed at.  With
    ``planned=False`` the plan is the identity order (the ``--no-plan``
    baseline) but still carries lanes and predictions, so planned and
    unplanned runs are compared like for like.
    """
    if not isinstance(queries, list):
        raise BatchQueryError(
            f"a batch must be a list of query objects, got {type(queries).__name__}"
        )
    entries: list[PlannedQuery] = []
    for index, spec in enumerate(queries):
        if not isinstance(spec, dict):
            raise BatchQueryError(f"batch entries must be JSON objects, got: {spec!r}")
        graph_key = spec.get("dataset", default_graph_key)
        if not isinstance(graph_key, str) or not graph_key:
            raise BatchQueryError(
                f"batch entry {index} field 'dataset' must be a non-empty string, "
                f"got {graph_key!r}"
            )
        entries.append(
            PlannedQuery(
                index=index,
                graph_key=graph_key,
                spec=dict(spec),
                phase=_phase_of(spec),
                family=_family_signature(spec),
            )
        )

    ordered = entries
    if planned:
        # Stable sort on (lane, phase, family first-appearance): queries never
        # reorder *within* a family, lanes and families keep the file's
        # first-appearance order, so the plan is deterministic.
        lane_rank: dict[str, int] = {}
        family_rank: dict[tuple[str, int, str], int] = {}
        for entry in entries:
            lane_rank.setdefault(entry.graph_key, len(lane_rank))
            family_rank.setdefault((entry.graph_key, entry.phase, entry.family), len(family_rank))
        ordered = sorted(
            entries,
            key=lambda entry: (
                lane_rank[entry.graph_key],
                entry.phase,
                family_rank[(entry.graph_key, entry.phase, entry.family)],
                entry.index,
            ),
        )

    moves = sum(1 for position, entry in enumerate(ordered) if entry.index != position)
    # Predictions: an identical repeat of a result-cached kind is a result
    # cache hit; a repeated fixed-ratio probe re-serves its decision network.
    seen: dict[tuple[str, str], int] = {}
    predicted_results = 0
    predicted_networks = 0
    for entry in ordered:
        kind = entry.spec.get("query", "densest")
        key = (entry.graph_key, entry.family)
        repeats = seen.get(key, 0)
        if repeats:
            if kind in ("densest", "top-k"):
                predicted_results += 1
            elif kind == "fixed-ratio":
                predicted_networks += 1
        seen[key] = repeats + 1
    return BatchPlan(
        entries=ordered,
        planned=planned,
        moves=moves,
        predicted_result_cache_hits=predicted_results,
        predicted_network_cache_hits=predicted_networks,
    )
