"""Independent verification of DDS results.

Downstream users (and this repository's own tests and benchmarks) often want
a cheap, self-contained check that a :class:`~repro.core.results.DDSResult`
is internally consistent and at least *locally* optimal, without re-running
an exact solver.  This module provides:

* :func:`check_result` — recompute the density/edge count of the reported
  pair and compare with the recorded values;
* :func:`is_locally_maximal` — verify that no single-vertex addition or
  removal (on either side) increases the density, a necessary condition for
  global optimality that catches most implementation mistakes;
* :func:`certify_against_bounds` — check the result against the analytic
  [x, y]-core bounds: an *exact* result must land inside
  ``[sqrt(max xy), 2*sqrt(max xy)]`` and a 2-approximation must reach at
  least half of the core upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bounds import core_based_bounds
from repro.core.density import directed_density
from repro.core.results import DDSResult
from repro.exceptions import AlgorithmError
from repro.graph.digraph import DiGraph

#: Densities differing by less than this are treated as equal by the checks.
VERIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a result against its graph."""

    consistent: bool
    locally_maximal: bool
    within_core_bounds: bool
    recomputed_density: float
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when every executed check passed."""
        return self.consistent and self.locally_maximal and self.within_core_bounds


def check_result(graph: DiGraph, result: DDSResult) -> tuple[bool, float, list[str]]:
    """Recompute the reported pair's density and compare with the result fields."""
    messages: list[str] = []
    if not result.s_nodes or not result.t_nodes:
        return False, 0.0, ["result has an empty side"]
    for label in list(result.s_nodes) + list(result.t_nodes):
        if not graph.has_node(label):
            return False, 0.0, [f"node {label!r} is not in the graph"]
    for side, labels in (("S", result.s_nodes), ("T", result.t_nodes)):
        seen: set = set()
        for label in labels:
            if label in seen:
                return False, 0.0, [f"node {label!r} is listed twice in {side}"]
            seen.add(label)
    density = directed_density(graph, result.s_nodes, result.t_nodes)
    if abs(density - result.density) > VERIFY_TOLERANCE * max(1.0, density):
        messages.append(
            f"reported density {result.density:.9f} does not match recomputed {density:.9f}"
        )
    edges = graph.count_edges_between(
        graph.indices_of(result.s_nodes), graph.indices_of(result.t_nodes)
    )
    if edges != result.edge_count:
        messages.append(f"reported edge count {result.edge_count} != recomputed {edges}")
    return not messages, density, messages


def is_locally_maximal(graph: DiGraph, result: DDSResult) -> tuple[bool, list[str]]:
    """Check that no single-vertex move improves the density of the reported pair.

    Four move families are tested: remove a vertex from S, remove one from T,
    add any outside vertex to S, add any outside vertex to T.  Every *globally*
    optimal pair passes all four, so a failure is a certificate that the
    result is not optimal (useful for spotting bugs); passing is necessary
    but not sufficient.
    """
    messages: list[str] = []
    s_set = list(dict.fromkeys(result.s_nodes))
    t_set = list(dict.fromkeys(result.t_nodes))
    base = directed_density(graph, s_set, t_set)

    if len(s_set) > 1:
        for label in s_set:
            candidate = [other for other in s_set if other != label]
            if directed_density(graph, candidate, t_set) > base + VERIFY_TOLERANCE:
                messages.append(f"removing {label!r} from S increases the density")
    if len(t_set) > 1:
        for label in t_set:
            candidate = [other for other in t_set if other != label]
            if directed_density(graph, s_set, candidate) > base + VERIFY_TOLERANCE:
                messages.append(f"removing {label!r} from T increases the density")

    s_lookup = set(s_set)
    t_lookup = set(t_set)
    for label in graph.nodes():
        if label not in s_lookup:
            if directed_density(graph, s_set + [label], t_set) > base + VERIFY_TOLERANCE:
                messages.append(f"adding {label!r} to S increases the density")
        if label not in t_lookup:
            if directed_density(graph, s_set, t_set + [label]) > base + VERIFY_TOLERANCE:
                messages.append(f"adding {label!r} to T increases the density")
    return not messages, messages


def certify_against_bounds(graph: DiGraph, result: DDSResult) -> tuple[bool, list[str]]:
    """Check the result against the analytic [x, y]-core density bounds."""
    messages: list[str] = []
    bounds = core_based_bounds(graph)
    if bounds.is_trivial:
        return True, []
    if result.is_exact:
        if result.density + VERIFY_TOLERANCE < bounds.lower:
            messages.append(
                f"exact result {result.density:.6f} is below the core lower bound {bounds.lower:.6f}"
            )
        if result.density > bounds.upper + VERIFY_TOLERANCE:
            messages.append(
                f"exact result {result.density:.6f} exceeds the core upper bound {bounds.upper:.6f}"
            )
    else:
        guarantee = max(result.approximation_ratio, 1.0)
        # rho_opt >= sqrt(max xy), so an alpha-approximation must reach at
        # least sqrt(max xy) / alpha.
        floor = math.sqrt(bounds.core.product) / guarantee
        if result.density + VERIFY_TOLERANCE < floor:
            messages.append(
                f"approximate result {result.density:.6f} violates its {guarantee:.2f}-guarantee "
                f"floor {floor:.6f}"
            )
    return not messages, messages


def verify_result(
    graph: DiGraph, result: DDSResult, check_local_maximality: bool = True
) -> VerificationReport:
    """Run all verification checks and collect a :class:`VerificationReport`.

    ``check_local_maximality`` costs ``O(n * (|S| + |T|))`` density
    evaluations and can be disabled for very large graphs.
    """
    if graph.num_edges == 0:
        raise AlgorithmError("verify_result requires a graph with at least one edge")
    consistent, density, messages = check_result(graph, result)
    if check_local_maximality and consistent and result.is_exact:
        locally_maximal, local_messages = is_locally_maximal(graph, result)
        messages = messages + local_messages
    else:
        locally_maximal = True
    within_bounds, bound_messages = certify_against_bounds(graph, result)
    messages = messages + bound_messages
    return VerificationReport(
        consistent=consistent,
        locally_maximal=locally_maximal,
        within_core_bounds=within_bounds,
        recomputed_density=density,
        messages=tuple(messages),
    )
