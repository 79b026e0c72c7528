"""Session-oriented public API for densest-subgraph discovery.

Construct one :class:`DDSSession` per graph and query it repeatedly::

    from repro.session import DDSSession, ExactConfig

    session = DDSSession(graph)
    best = session.densest_subgraph("core-exact")
    top3 = session.top_k(3)                       # round 1 hits the cache
    core = session.max_xy_core()
    refined = session.densest_subgraph(
        "dc-exact", config=ExactConfig(tolerance=1e-9)
    )
    print(session.cache_stats())

The typed configs (:class:`ExactConfig`, :class:`ApproxConfig`) and the
method registry (:mod:`repro.core.method_registry`) are re-exported here
for convenience.
"""

from repro.core.config import ApproxConfig, ExactConfig
from repro.core.method_registry import (
    MethodSpec,
    available_methods,
    get_method_spec,
    method_specs,
    register_method,
    unregister_method,
)
from repro.session.session import DDSSession

__all__ = [
    "DDSSession",
    "ExactConfig",
    "ApproxConfig",
    "MethodSpec",
    "available_methods",
    "get_method_spec",
    "method_specs",
    "register_method",
    "unregister_method",
]
