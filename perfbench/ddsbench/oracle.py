"""Answer checks behind ``failed`` and ``correct``; run outside timed regions.

* every reported ``(S, T)`` is recomputed from the graph
  (:func:`repro.core.verify.check_result`);
* all exact answers on one graph must agree (``dc-exact`` and
  ``core-exact`` both run on every exact-workload graph, and ``flow-exact``
  beside them on the tiny one), and on brute-force-sized graphs they must
  also equal :func:`repro.core.bruteforce.brute_force_dds`;
* approximate answers must meet their guarantee: above the
  ``sqrt(max x*y) / ratio`` core floor always, and within ``ratio`` of the
  exact density wherever that is known;
* a remote answer must equal the in-process :func:`payload_answer` of the
  same spec on a fresh session;
* after a write, the warm session's answers must equal a cold session's on
  the updated graph.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.bounds import core_based_bounds
from repro.core.bruteforce import brute_force_dds
from repro.core.density import directed_density
from repro.core.results import DDSResult
from repro.core.verify import check_result
from repro.graph.digraph import DiGraph
from repro.service.queries import payload_answer, run_batch_query
from repro.session import DDSSession

from ddsbench.workloads import APPROX, EXACT, make_graph

TOLERANCE = 1e-9
EXACT_METHODS = ("flow-exact", *EXACT)


def same_density(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def answer(session: DDSSession, method: str) -> DDSResult:
    """One densest-subgraph call; flow-backed methods get ``flow_solver='auto'``."""
    if method in EXACT_METHODS:
        return session.densest_subgraph(method, flow_solver="auto")
    return session.densest_subgraph(method)


def solve(graph: DiGraph, method: str) -> DDSResult:
    """One request as every workload issues it: a fresh ``auto`` session."""
    return answer(DDSSession(graph, flow="auto"), method)


class Oracle:
    """Per-run answer book: exact densities by graph key, approx floors."""

    def __init__(self) -> None:
        self.exact: dict[str, float] = {}
        self._floors: dict[str, float] = {}

    def _core_floor(self, key: str, graph: DiGraph) -> float:
        floor = self._floors.get(key)
        if floor is None:
            bounds = core_based_bounds(graph)
            floor = 0.0 if bounds.is_trivial else math.sqrt(bounds.core.product)
            self._floors[key] = floor
        return floor

    def check(self, key: str, graph: DiGraph, result: DDSResult) -> str | None:
        """``None`` if ``result`` is a right answer on ``graph``, else why not."""
        ok, _, messages = check_result(graph, result)
        if not ok:
            return f"{key} {result.method}: " + "; ".join(messages)
        if result.is_exact:
            known = self.exact.setdefault(key, result.density)
            if not same_density(known, result.density):
                return f"{key} {result.method}: density {result.density!r} != exact {known!r}"
            return None
        ratio = max(result.approximation_ratio, 1.0)
        floor = self._core_floor(key, graph) / ratio
        if result.density + TOLERANCE < floor:
            return f"{key} {result.method}: density {result.density!r} below core floor {floor!r}"
        known = self.exact.get(key)
        if known is not None and result.density * ratio + TOLERANCE * max(1.0, known) < known:
            return f"{key} {result.method}: density {result.density!r} misses 1/{ratio} of {known!r}"
        return None


def brute_force_check(seed: int, graphs: int = 3) -> list[str]:
    """Every exact method equals brute force, every approx meets its ratio."""
    errors: list[str] = []
    for copy in range(graphs):
        graph = make_graph(seed, "brute-tiny", copy)
        oracle = Oracle()
        key = f"brute-tiny#{copy}"
        oracle.exact[key] = brute_force_dds(graph).density
        for method in EXACT_METHODS + APPROX:
            error = oracle.check(key, graph, solve(graph, method))
            if error is not None:
                errors.append(error)
    return errors


def update_check(
    graph: DiGraph, warm: dict[str, DDSResult], cold: dict[tuple[str, str], float]
) -> list[str]:
    """Warm answers after a write equal a cold session's on the new graph.

    ``cold`` caches cold densities by (graph fingerprint, method): passes
    that replay the same writes reach the same graphs.
    """
    errors: list[str] = []
    fingerprint = graph.content_fingerprint()
    for method, result in warm.items():
        ok, _, messages = check_result(graph, result)
        if not ok:
            errors.append(f"write {method}: " + "; ".join(messages))
            continue
        key = (fingerprint, method)
        if key not in cold:
            cold[key] = solve(graph.copy(), method).density
        if not same_density(cold[key], result.density):
            errors.append(f"write {method}: warm density {result.density!r} != cold {cold[key]!r}")
    return errors


class PayloadOracle:
    """Reference payloads of remote reads, computed in-process on demand."""

    def __init__(self, graphs: dict[str, DiGraph]) -> None:
        self._graphs = graphs
        self._labels = {
            key: {str(label): label for label in graph.nodes()} for key, graph in graphs.items()
        }
        self._answers: dict[tuple[str, str], Any] = {}

    def reference(self, key: str, spec: dict[str, Any]) -> Any:
        token = (key, json.dumps(spec, sort_keys=True))
        answer = self._answers.get(token)
        if answer is None:
            session = DDSSession(self._graphs[key], flow="auto")
            answer = payload_answer(run_batch_query(session, spec))
            self._answers[token] = answer
        return answer

    def check(self, key: str, spec: dict[str, Any], payload: Any) -> str | None:
        if isinstance(payload, dict) and payload.get("deadline_exceeded"):
            return f"{key} {spec}: anytime partial returned"
        if isinstance(payload, dict) and "s_nodes" in payload:
            labels = self._labels[key]
            density = directed_density(
                self._graphs[key],
                [labels[name] for name in payload["s_nodes"]],
                [labels[name] for name in payload["t_nodes"]],
            )
            if not same_density(density, payload["density"]):
                return f"{key} {spec}: reported density {payload['density']!r} != {density!r}"
        if payload_answer(payload) != self.reference(key, spec):
            return f"{key} {spec}: remote answer differs from in-process"
        return None
