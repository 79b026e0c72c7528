"""Exception hierarchy for the ``repro`` package.

All errors raised intentionally by this library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for malformed graphs or illegal graph operations."""


class EmptyGraphError(GraphError):
    """Raised when an algorithm that needs edges receives an edgeless graph."""


class ParseError(GraphError):
    """Raised when an on-disk graph file cannot be parsed."""


class FlowError(ReproError):
    """Raised for malformed flow networks or inconsistent flow states."""


class AlgorithmError(ReproError):
    """Raised when an algorithm is invoked with invalid parameters."""


class ConfigError(AlgorithmError):
    """Raised when a typed method configuration is invalid or mismatched.

    Subclasses :class:`AlgorithmError`, so a caller catching
    ``AlgorithmError`` around a query also catches bad configurations.
    """


class DeadlineExceeded(ReproError):
    """Raised when a query's time budget expires before the search completes.

    Cooperative: solvers and drivers only check at phase boundaries, so the
    residual state of every decision network is left exactly as it was at
    the last completed phase — a cancelled warm network retunes and resumes
    bit-identically.  ``partial`` carries the anytime result assembled by
    the search driver (an :class:`repro.runtime.AnytimeResult`: the best
    subgraph found so far plus certified density bounds), or ``None`` when
    the budget expired before any search state existed.
    """

    def __init__(self, message: str, *, partial: object | None = None) -> None:
        super().__init__(message)
        self.partial = partial


class DatasetError(ReproError):
    """Raised when a named dataset is unknown or cannot be materialised."""


class BatchQueryError(ReproError):
    """Raised when a batch query entry is malformed (unknown kind, missing or
    unexpected fields, wrong value types)."""


class StoreError(ReproError):
    """Raised when the persistent session store is missing, corrupt, or
    incompatible (unknown schema version, checksum mismatch, wrong graph)."""


class NetError(ReproError):
    """Raised when the network tier cannot complete an operation: a shard
    daemon is unreachable after the retry ladder, a request cannot be
    framed (:class:`ProtocolError`), or a remote lane reports a failure."""


class GraphNotResidentError(NetError):
    """Raised by a shard daemon asked to solve a graph it holds neither as a
    resident session nor as a kept graph, by a request that carried no graph
    document.  The one remote failure the batch executor retries: it resends
    the lane once, with the graph."""


class ProtocolError(NetError):
    """Raised when a network frame is malformed: truncated, oversized, not
    valid JSON, failing its checksum, or speaking a different protocol
    version — or when a payload cannot be framed at all, because JSON cannot
    encode it (a graph label included) or it exceeds the frame cap.  Strict
    by design — a damaged frame is never partially interpreted."""
