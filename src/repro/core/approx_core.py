"""Core-based approximation algorithms (``CoreApprox`` and ``IncApprox``).

``CoreApprox`` returns the non-empty [x, y]-core with maximum product
``x * y``.  By the density lower bound its density is at least
``sqrt(x*y)``, and by the containment lemma ``sqrt(max x*y) >= rho_opt/2``,
so the returned pair is a deterministic 2-approximation — computed without a
single max-flow call.  :func:`~repro.core.xycore.max_xy_core` finds it in at
most ``2*floor(sqrt(m)) + 2`` peel-and-decompose steps, each linear in the
core it peels, which is the paper's ``O(sqrt(m) * (n + m))`` bound.

``IncApprox`` is the straightforward variant that derives the same core from
the *full* skyline decomposition (one step for every ``x`` up to the largest
with a non-empty [x, 1]-core, without any skipping); it shares the step but
does strictly more work, mirroring the "incremental decomposition" baseline
the paper compares against in its approximation-efficiency experiment (our
E3).
"""

from __future__ import annotations

import math

from repro.core.bounds import core_based_bounds
from repro.core.config import ApproxConfig
from repro.core.density import directed_density_from_indices
from repro.core.results import DDSResult
from repro.core.xycore import xy_core, xy_core_skyline
from repro.exceptions import EmptyGraphError
from repro.graph.digraph import DiGraph


def core_approx(graph: DiGraph, config: ApproxConfig | None = None) -> DDSResult:
    """2-approximate DDS: the maximum-product [x, y]-core (``CoreApprox``).

    ``config`` is accepted for signature uniformity across the method
    registry; CoreApprox is parameter-free, so only the config's *type* is
    validated.
    """
    ApproxConfig.resolve(config)
    if graph.num_edges == 0:
        raise EmptyGraphError("core_approx requires a graph with at least one edge")
    bounds = core_based_bounds(graph)
    core = bounds.core
    return DDSResult(
        s_nodes=graph.labels_of(core.s_nodes),
        t_nodes=graph.labels_of(core.t_nodes),
        density=bounds.core_density,
        edge_count=graph.count_edges_between(core.s_nodes, core.t_nodes),
        method="core-approx",
        is_exact=False,
        approximation_ratio=2.0,
        stats={
            "core_x": core.x,
            "core_y": core.y,
            "density_lower_bound": bounds.lower,
            "density_upper_bound": bounds.upper,
        },
    )


def inc_approx(graph: DiGraph, config: ApproxConfig | None = None) -> DDSResult:
    """2-approximate DDS via the full skyline decomposition (``IncApprox``)."""
    ApproxConfig.resolve(config)
    if graph.num_edges == 0:
        raise EmptyGraphError("inc_approx requires a graph with at least one edge")
    skyline = xy_core_skyline(graph)
    best_x, best_y = max(skyline, key=lambda pair: pair[0] * pair[1])
    core = xy_core(graph, best_x, best_y)
    density = directed_density_from_indices(graph, core.s_nodes, core.t_nodes)
    return DDSResult(
        s_nodes=graph.labels_of(core.s_nodes),
        t_nodes=graph.labels_of(core.t_nodes),
        density=density,
        edge_count=graph.count_edges_between(core.s_nodes, core.t_nodes),
        method="inc-approx",
        is_exact=False,
        approximation_ratio=2.0,
        stats={
            "core_x": best_x,
            "core_y": best_y,
            "skyline_size": len(skyline),
            "density_lower_bound": math.sqrt(best_x * best_y),
        },
    )
