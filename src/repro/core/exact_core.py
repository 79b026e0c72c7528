"""``CoreExact`` — the paper's headline exact algorithm.

CoreExact is the divide-and-conquer driver of :mod:`repro.core.exact_dc`
with both core-based optimisations switched on:

* the incumbent (and hence every pruning threshold and the global upper
  bound) is seeded from the maximum-product [x, y]-core, which is already a
  2-approximation, and
* for every ratio interval the flow networks are built only on the
  [x, y]-core that must contain any optimum beating the incumbent whose
  ratio falls in that interval (:func:`repro.core.bounds.containing_core`),
  so the networks shrink as the incumbent improves — the effect measured by
  experiment E7.
"""

from __future__ import annotations

from repro.core.config import ExactConfig
from repro.core.exact_dc import LEAF_RATIO_COUNT, _dc_driver
from repro.core.network_cache import NetworkCache
from repro.core.results import DDSResult
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph

__all__ = ["LEAF_RATIO_COUNT", "core_exact"]


def core_exact(
    graph: DiGraph,
    config: ExactConfig | None = None,
    *,
    tolerance: float | None = None,
    leaf_ratio_count: int | None = None,
    flow_solver: str | None = None,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
) -> DDSResult:
    """Exact DDS with core-based pruning and core-restricted flow networks.

    ``config`` is the normalized :class:`~repro.core.config.ExactConfig`
    (its ``seed_with_core`` flag is ignored here — CoreExact always seeds
    from the core); the keyword arguments are legacy per-field overrides.
    ``engine`` / ``network_cache`` are the session's shared engine and
    decision-network cache.
    """
    cfg = ExactConfig.resolve(
        config,
        tolerance=tolerance,
        leaf_ratio_count=leaf_ratio_count,
        flow_solver=flow_solver,
    )
    if network_cache is None:
        network_cache = NetworkCache(cfg.flow.network_cache_size)
    return _dc_driver(
        graph,
        method="core-exact",
        use_core_restriction=True,
        seed_with_core=True,
        tolerance=cfg.tolerance,
        leaf_ratio_count=cfg.leaf_ratio_count,
        flow_solver=cfg.flow.solver,
        engine=engine,
        network_cache=network_cache,
        batch_size=cfg.flow.batch_size,
    )
