"""Density bounds and DDS-containment facts derived from [x, y]-cores.

The two facts below are the engine of both the approximation guarantee and
the core-based pruning of the exact algorithm.

**Lower bound.**  A non-empty [x, y]-core ``(S, T)`` satisfies
``|E(S,T)| >= x*|S|`` (every S vertex contributes ``>= x`` edges) and
``|E(S,T)| >= y*|T|``; multiplying, ``|E|^2 >= x*y*|S|*|T|``, hence
``rho(S,T) >= sqrt(x*y)``.  Consequently ``rho_opt >= sqrt(max{x*y})``.

**Containment / upper bound.**  Let ``(S*, T*)`` be optimal with
``a* = |S*|/|T*|``.  Removing ``u ∈ S*`` cannot increase the density, so
``|E| - d(u) <= rho_opt * sqrt((|S*|-1)*|T*|)``, i.e.

    d(u) >= rho_opt * sqrt(|T*|) * (sqrt(|S*|) - sqrt(|S*|-1))
          = rho_opt * sqrt(|T*|) / (sqrt(|S*|) + sqrt(|S*|-1))
          >= rho_opt / (2*sqrt(a*)),

and symmetrically every ``v ∈ T*`` has in-degree ``>= rho_opt*sqrt(a*)/2``.
Since these degrees are integers, ``(S*, T*)`` is contained in the
``[ceil(rho_opt/(2*sqrt(a*))), ceil(rho_opt*sqrt(a*)/2)]``-core.  That core is
therefore non-empty and has product ``>= rho_opt^2/4``, giving the upper
bound ``rho_opt <= 2*sqrt(max{x*y})`` and the CoreApprox guarantee
``sqrt(max{x*y}) >= rho_opt/2``.

**At one ratio.**  The same removal argument bounds a single fixed-ratio
search from below (:func:`fixed_ratio_space`): once its guesses are at least
a bound ``l``, every pair the decision network can return lies in the
``[ceil(l/(2*sqrt(a))), ceil(l*sqrt(a)/2)]``-core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.density import directed_density_from_indices
from repro.core.subproblem import STSubproblem
from repro.core.xycore import XYCore, max_xy_core, xy_core
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class CoreBounds:
    """Bounds on ``rho_opt`` derived from the maximum-product [x, y]-core."""

    lower: float
    upper: float
    core: XYCore
    core_density: float

    @property
    def is_trivial(self) -> bool:
        """True when the graph had no edges and the bounds carry no information."""
        return self.core.is_empty


def core_based_bounds(
    graph: DiGraph, max_core: Callable[[], XYCore] | None = None
) -> CoreBounds:
    """Compute ``sqrt(max xy) <= rho_opt <= 2*sqrt(max xy)`` plus the witness core.

    The returned ``lower`` is actually ``max(sqrt(x*y), rho(core))`` — the
    core's true density is already available and is never worse than the
    analytic bound.  The core comes from ``max_core()`` when given (a
    session's cached core), else from the two-ended skyline walk of
    :func:`~repro.core.xycore.max_xy_core` (``O(sqrt(m))`` steps).
    """
    core = max_core() if max_core is not None else max_xy_core(graph)
    if core.is_empty:
        return CoreBounds(lower=0.0, upper=0.0, core=core, core_density=0.0)
    analytic_lower = math.sqrt(core.product)
    density = directed_density_from_indices(graph, core.s_nodes, core.t_nodes)
    return CoreBounds(
        lower=max(analytic_lower, density),
        upper=2.0 * analytic_lower,
        core=core,
        core_density=density,
    )


def containing_core_orders(
    density_lower_bound: float, ratio_low: float, ratio_high: float
) -> tuple[int, int]:
    """Orders ``(x, y)`` of a core guaranteed to contain any optimal pair that

    (a) has density at least ``density_lower_bound`` and
    (b) has ratio ``|S|/|T|`` inside ``[ratio_low, ratio_high]``.

    From the containment lemma with ``rho_opt >= density_lower_bound`` and
    ``a* ∈ [ratio_low, ratio_high]``:

        min out-degree >= rho_opt/(2*sqrt(a*)) >= density_lower_bound/(2*sqrt(ratio_high))
        min in-degree  >= rho_opt*sqrt(a*)/2   >= density_lower_bound*sqrt(ratio_low)/2

    and integrality upgrades the real thresholds to their ceilings.
    """
    if ratio_low <= 0 or ratio_high <= 0 or ratio_low > ratio_high:
        raise ValueError(f"invalid ratio interval [{ratio_low}, {ratio_high}]")
    if density_lower_bound < 0:
        raise ValueError("density_lower_bound must be >= 0")
    x_real = density_lower_bound / (2.0 * math.sqrt(ratio_high))
    y_real = density_lower_bound * math.sqrt(ratio_low) / 2.0
    # The 1e-12 slack keeps float noise from bumping a threshold to the next
    # integer, which would (unsoundly) tighten the core.
    x = max(int(math.ceil(x_real - 1e-12)), 0)
    y = max(int(math.ceil(y_real - 1e-12)), 0)
    return x, y


def containing_core(
    graph: DiGraph,
    density_lower_bound: float,
    ratio_low: float,
    ratio_high: float,
    within: XYCore | None = None,
) -> XYCore:
    """The [x, y]-core guaranteed to contain the DDS under the stated conditions.

    Used by CoreExact to shrink each flow network: if the true optimum beats
    ``density_lower_bound`` and its ratio lies in ``[ratio_low, ratio_high]``,
    then it survives inside this core, so searching only the core is sound.

    ``within`` may name any core known to contain the answer — CoreExact
    passes the parent interval's core, whose orders are no larger because
    the child interval is a sub-interval and the incumbent never falls (see
    :func:`containing_core_orders`).  The peel then runs inside it; by
    nestedness the result is identical to peeling the whole graph.
    """
    x, y = containing_core_orders(density_lower_bound, ratio_low, ratio_high)
    if x == 0 and y == 0:
        return XYCore(
            x=0,
            y=0,
            s_nodes=list(range(graph.num_nodes)),
            t_nodes=list(range(graph.num_nodes)),
        )
    if within is None:
        return xy_core(graph, x, y)
    return xy_core(graph, x, y, s_candidates=within.s_nodes, t_candidates=within.t_nodes)


def fixed_ratio_space(full: STSubproblem, seed: float, ratio: float) -> STSubproblem:
    """The search space a ratio-``ratio`` search needs once every guess is ``>= seed``.

    At a guess ``g`` the decision network's cuts maximise
    ``2|E(S,T)| - g*(|S|/sqrt(a) + sqrt(a)*|T|)``.  Dropping ``u`` from a
    maximising pair would change that by ``g/sqrt(a) - 2*d_T(u)``, which
    must not be positive, so ``d_T(u) >= g/(2*sqrt(a))``; likewise every
    ``v ∈ T`` has ``d_S(v) >= g*sqrt(a)/2``.  For ``g >= seed`` every
    maximiser therefore lies in ``containing_core(graph, seed, ratio,
    ratio)``, and the network on that core has the same maximisers, hence
    the same canonical cut, as the network on ``full``.

    ``full`` is the whole-graph sub-problem; it is returned unchanged when
    the core is empty or keeps every candidate.
    """
    core = containing_core(full.graph, seed, ratio, ratio)
    if core.is_empty or (
        len(core.s_nodes) >= len(full.s_candidates)
        and len(core.t_nodes) >= len(full.t_candidates)
    ):
        return full
    return STSubproblem.from_graph(full.graph, core.s_nodes, core.t_nodes)
