"""Result objects returned by every DDS algorithm.

All algorithms — exact, approximate, and baseline — return the same
:class:`DDSResult` structure so that benchmark harnesses, examples, and tests
can treat them uniformly.  ``stats`` carries per-algorithm instrumentation
(number of max-flow calls, flow-network sizes, ratios examined, ...) used by
experiments E6 and E7.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import StoreError
from repro.graph.digraph import NodeLabel

#: Version of the JSON document produced by :meth:`DDSResult.to_dict`.
#: Bump whenever a key is renamed or removed, or an existing key's value
#: contract changes (additions are backwards compatible and do not require
#: a bump).  Version 2 tightened ``stats``: every value is now JSON-native
#: (containers converted, exotic scalars stringified) so that
#: ``from_json(result.to_json())`` is a lossless round trip — the contract
#: the persistent session store (:mod:`repro.service.store`) relies on.
RESULT_SCHEMA_VERSION = 2

#: Schema versions :meth:`DDSResult.from_dict` knows how to read.  Version 1
#: documents are a subset of version 2 (same keys, looser stats values), so
#: both load.
READABLE_SCHEMA_VERSIONS = (1, 2)


def _json_label(label: NodeLabel) -> Any:
    """Node labels pass through when JSON-native, otherwise stringify."""
    if isinstance(label, (str, int, float, bool)) or label is None:
        return label
    return str(label)


def json_native_label(label: NodeLabel) -> bool:
    """Whether ``label`` survives a JSON round trip unchanged.

    ``bool`` is checked before ``int`` only for clarity — JSON keeps the
    distinction anyway.  Labels failing this test are stringified by
    :meth:`DDSResult.to_dict`, so a result holding them cannot round trip
    losslessly; the persistent store skips such results.
    """
    return isinstance(label, (str, int, float, bool)) or label is None


def _sanitize_stats_value(value: Any) -> Any:
    """Recursively coerce a stats value to JSON-native types.

    Dicts keep (stringified) keys, lists/tuples become lists, JSON scalars
    pass through, everything else is stringified — the same fallback
    ``to_json`` historically applied at dump time, now applied structurally
    so ``to_dict`` output equals what ``json.loads(to_json(...))`` returns.
    """
    if isinstance(value, dict):
        return {str(key): _sanitize_stats_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_stats_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class DDSResult:
    """A directed densest-subgraph answer: the pair ``(S, T)`` plus metadata.

    Attributes
    ----------
    s_nodes / t_nodes:
        Node labels of the two sides.  The sets may overlap.
    density:
        ``|E(S, T)| / sqrt(|S| * |T|)``, computed directly on the input graph.
    edge_count:
        ``|E(S, T)|``.
    method:
        Name of the algorithm that produced the result.
    is_exact:
        Whether the algorithm guarantees optimality.
    approximation_ratio:
        Worst-case guarantee ``density >= rho_opt / approximation_ratio``
        (1.0 for exact algorithms).
    stats:
        Free-form instrumentation (flow calls, ratios, timings, ...).
    """

    s_nodes: list[NodeLabel]
    t_nodes: list[NodeLabel]
    density: float
    edge_count: int
    method: str
    is_exact: bool
    approximation_ratio: float = 1.0
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def s_size(self) -> int:
        """``|S|``."""
        return len(self.s_nodes)

    @property
    def t_size(self) -> int:
        """``|T|``."""
        return len(self.t_nodes)

    @property
    def ratio(self) -> float:
        """``|S| / |T|`` (0.0 when ``T`` is empty)."""
        if not self.t_nodes:
            return 0.0
        return len(self.s_nodes) / len(self.t_nodes)

    def summary(self) -> dict[str, Any]:
        """Compact dictionary used by the benchmark table printers."""
        return {
            "method": self.method,
            "density": round(self.density, 6),
            "|S|": self.s_size,
            "|T|": self.t_size,
            "edges": self.edge_count,
            "exact": self.is_exact,
        }

    def to_dict(self) -> dict[str, Any]:
        """Stable JSON-ready document describing this result.

        The schema is versioned (``schema_version``) and covered by the test
        suite; ``stats`` carries the per-algorithm instrumentation —
        including the flow-engine counters and, for session-served queries,
        the cache-hit marker ``result_cache_hit`` —
        coerced to JSON-native values (schema version 2), so the document
        round trips losslessly through :meth:`from_dict`.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "method": self.method,
            "density": self.density,
            "edge_count": self.edge_count,
            "s_size": self.s_size,
            "t_size": self.t_size,
            "s_nodes": [_json_label(node) for node in self.s_nodes],
            "t_nodes": [_json_label(node) for node in self.t_nodes],
            "is_exact": self.is_exact,
            "approximation_ratio": self.approximation_ratio,
            "stats": _sanitize_stats_value(self.stats),
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialise :meth:`to_dict` (non-JSON stats values are stringified)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "DDSResult":
        """Rebuild a result from a :meth:`to_dict` document.

        The inverse of :meth:`to_dict` for results whose node labels are
        JSON-native (see :func:`json_native_label`) — exactly the results
        the persistent store persists.  Accepts every schema version in
        :data:`READABLE_SCHEMA_VERSIONS`; anything else — unknown versions,
        missing keys, node lists disagreeing with the recorded sizes —
        raises :class:`~repro.exceptions.StoreError`, which the store treats
        as corruption rather than a crash.
        """
        if not isinstance(document, dict):
            raise StoreError(f"result document must be a JSON object, got {type(document).__name__}")
        version = document.get("schema_version")
        if version not in READABLE_SCHEMA_VERSIONS:
            raise StoreError(
                f"unsupported result schema_version {version!r} "
                f"(readable: {', '.join(map(str, READABLE_SCHEMA_VERSIONS))})"
            )
        try:
            result = cls(
                s_nodes=list(document["s_nodes"]),
                t_nodes=list(document["t_nodes"]),
                density=float(document["density"]),
                edge_count=int(document["edge_count"]),
                method=str(document["method"]),
                is_exact=bool(document["is_exact"]),
                approximation_ratio=float(document["approximation_ratio"]),
                stats=dict(document["stats"]),
            )
            s_size = int(document["s_size"])
            t_size = int(document["t_size"])
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed result document: {error!r}")
        if result.s_size != s_size or result.t_size != t_size:
            raise StoreError(
                "result document is internally inconsistent: node lists do not "
                "match the recorded s_size/t_size"
            )
        return result

    @classmethod
    def from_json(cls, text: str) -> "DDSResult":
        """Parse a :meth:`to_json` string back into a result (see :meth:`from_dict`)."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise StoreError(f"result document is not valid JSON: {error}")
        return cls.from_dict(document)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DDSResult(method={self.method!r}, density={self.density:.4f}, "
            f"|S|={self.s_size}, |T|={self.t_size}, edges={self.edge_count})"
        )


@dataclass
class FixedRatioOutcome:
    """Outcome of maximising the ratio-``a`` surrogate objective.

    ``lower``/``upper`` bracket the surrogate optimum ``val(a)``;
    ``best_s`` / ``best_t`` (graph node indices) are the extracted pair with
    the highest *true* density ``best_density`` — for
    :meth:`DDSSession.fixed_ratio <repro.session.DDSSession.fixed_ratio>`,
    the densest of its seed pair and the extracted pairs, so that it does
    not depend on which guesses the search skipped — while ``last_s`` /
    ``last_t`` are the pair
    extracted at the highest successful guess — the (near-)maximiser of the
    surrogate, which the divide-and-conquer ratio-skipping lemma needs —
    together with its surrogate value ``last_surrogate``.  ``best_edges`` /
    ``last_edges`` count the graph edges from each pair's ``S`` to its
    ``T``, as taken when the pair was found, so callers need not recount
    them.  ``flow_calls``, ``networks_built`` (one per search that ran a
    min-cut) and ``network_nodes`` feed experiments E6/E7 and the
    flow-engine regression tests (see the stats glossary in
    :mod:`repro.flow.engine`).
    """

    ratio: float
    lower: float
    upper: float
    best_s: list[int]
    best_t: list[int]
    best_density: float
    flow_calls: int
    networks_built: int = 0
    best_edges: int = 0
    last_s: list[int] = field(default_factory=list)
    last_t: list[int] = field(default_factory=list)
    last_surrogate: float = 0.0
    last_edges: int = 0
    network_nodes: list[int] = field(default_factory=list)
    network_arcs: list[int] = field(default_factory=list)

    @property
    def found_pair(self) -> bool:
        """Whether any pair beating the initial lower bound was extracted."""
        return bool(self.best_s) and bool(self.best_t)
