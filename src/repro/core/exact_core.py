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

from typing import Callable

from repro.core.config import ExactConfig
from repro.core.exact_dc import _dc_driver
from repro.core.results import DDSResult
from repro.core.xycore import XYCore
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph

__all__ = ["core_exact"]


def core_exact(
    graph: DiGraph,
    config: ExactConfig | None = None,
    *,
    engine: FlowEngine | None = None,
    max_core: Callable[[], XYCore] | None = None,
) -> DDSResult:
    """Exact DDS with core-based pruning and core-restricted flow networks.

    ``config`` is the normalized :class:`~repro.core.config.ExactConfig`
    (its ``seed_with_core`` flag is ignored here — CoreExact always seeds
    from the core).  ``engine`` is the session's shared engine, and
    ``max_core`` returns its cached maximum-product core.
    """
    cfg = ExactConfig.resolve(config)
    return _dc_driver(
        graph,
        method="core-exact",
        use_core_restriction=True,
        seed_with_core=True,
        tolerance=cfg.tolerance,
        engine=engine,
        max_core=max_core,
    )
