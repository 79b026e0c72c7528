"""Divide-and-conquer exact DDS solvers (``DCExact`` and the core of ``CoreExact``).

Instead of examining all ``O(n^2)`` candidate ratios ``|S|/|T| = i/j``, the
driver recursively subdivides the ratio interval ``[1/n, n]``.  Processing an
interval ``[lo, hi]`` probes the surrogate objective at the geometric
midpoint ``c = sqrt(lo*hi)`` and then removes from further consideration a
*skip region* around ``c`` that provably cannot contain the ratio of any pair
better than the incumbent:

* **window skip** — writing every pair's surrogate at ``c`` as
  ``rho(P) / cosh(delta_P)`` with ``delta_P = ln(r_P / c) / 2``, any ratio
  ``r`` with ``cosh(|ln(r/c)|/2) <= incumbent / upper(val(c))`` is covered:
  a pair at such a ratio has ``rho <= val(c) * cosh <= incumbent``.
* **ratio-skipping lemma** — let ``P'`` be the pair extracted at the highest
  successful guess (a near-maximiser of the surrogate, within
  ``eps = upper - surrogate(P')``) and ``c' = |S'|/|T'|`` its ratio.  For any
  pair ``Q`` whose ratio lies strictly between ``c`` and ``c'``:
  ``rho(Q) = surrogate_c(Q) * cosh(delta_Q) <= (surrogate_c(P') + eps) *
  cosh(delta_{P'}) = rho(P') + eps * cosh(delta_{P'})``, because
  ``|delta_Q| <= |delta_{P'}|``.  Whenever ``eps * cosh(delta_{P'})`` is below
  the minimum gap between distinct achievable densities, every such ``Q`` is
  no better than ``P'`` — whose true density has already been folded into the
  incumbent — so the whole open interval ``(c, c')`` can be skipped.

The probe itself is one fixed-ratio search (:mod:`repro.core.fixed_ratio`)
started at a pair the run already holds.  The driver pools every pair it
has seen — the initial incumbent plus the best and the last pair of every
search outcome — keyed by ``(|E(S,T)|, |S|, |T|)``, which fixes a pair's
surrogate at every ratio.  A probe over sub-problem ``X`` starts at the
pooled pair inside ``X`` with the best surrogate ``sigma`` at ``c``: since
the pair lies in ``X``, ``sigma <= val_X(c)`` is a certified lower bound,
and the pair is the search's initial surrogate maximiser.  Dinkelbach's
iteration then closes its bracket at ``val(c)`` after one to a few cuts, so
``upper(val(c))`` is tight and the maximiser has ``eps = 0`` unless the
search stopped at its tolerance first; if the first cut fails, the seed
itself is the exact maximiser.  The incumbent is at least as dense as every
pooled pair (each search's best pair is offered to it, and is at least as
dense as the search's last pair), so the ratio-skipping lemma holds for a
seed exactly as for an extracted pair (see "Why seeded probes are exact" in
``docs/architecture.md``).  With tied optima a different, equally dense pair
may be reported than an unseeded probe would find.

Whatever is not covered by the skip region is pushed back as (at most two)
child intervals together with a tightened conditional upper bound
``min(parent_upper, f(lo,hi) * upper(val(c)))`` which is valid whenever the
optimal ratio lies inside the child.  Intervals containing at most a handful
of distinct candidate ratios are leaves: each not-yet-examined ratio gets one
full-precision fixed-ratio search starting at the incumbent, which a single
min-cut settles whenever the ratio cannot beat it.

``CoreExact`` is the same driver with ``use_core_restriction`` switched on:
each interval's search space is shrunk to the [x, y]-core that must contain
any optimum beating the incumbent whose ratio falls in that interval
(:func:`repro.core.bounds.containing_core`), peeled inside the parent
interval's core: a child is a sub-interval searched with an incumbent that
never falls, so its core is nested in the parent's and the peel yields the
same core as a whole-graph peel.  All skip arguments remain sound
under the restriction because whenever they could cut off the true optimum,
the containment lemma places that optimum inside the restricted core, which
forces the incumbent to already be optimal (the detailed argument is spelled
out in "Why core restriction keeps the skips sound" in
``docs/architecture.md`` and exercised by the brute-force comparison
property tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from repro.core.approx_peel import peel_fixed_ratio
from repro.core.bounds import containing_core, core_based_bounds
from repro.core.config import LEAF_RATIO_COUNT, ExactConfig
from repro.core.density import (
    directed_density_from_indices,
    exactness_tolerance,
    global_density_upper_bound,
    interval_relaxation_factor,
    surrogate_density,
)
from repro.core.fixed_ratio import (
    StartingPair,
    maximize_fixed_ratio,
    maximize_fixed_ratio_batch,
    partial_outcomes,
)
from repro.core.flow_network import decision_network_arc_count
from repro.core.network_cache import NetworkCache
from repro.core.ratio import (
    candidate_ratios_in_interval,
    count_candidate_ratios_in_interval,
)
from repro.core.results import DDSResult
from repro.core.subproblem import STSubproblem
from repro.core.xycore import XYCore
from repro.exceptions import AlgorithmError, DeadlineExceeded, EmptyGraphError
from repro.flow.engine import FlowEngine, zero_snapshot
from repro.flow.registry import DEFAULT_SOLVER
from repro.graph.digraph import DiGraph
from repro.runtime import AnytimeResult

__all__ = ["LEAF_RATIO_COUNT", "dc_exact"]

@dataclass
class _SearchState:
    """Mutable incumbent, pair pool and instrumentation shared across the recursion."""

    graph: DiGraph
    engine: FlowEngine = field(default_factory=FlowEngine)
    network_cache: NetworkCache = field(default_factory=NetworkCache)
    engine_snapshot: tuple[int, ...] = field(default_factory=zero_snapshot)
    best_s: list[int] = field(default_factory=list)
    best_t: list[int] = field(default_factory=list)
    best_density: float = 0.0
    ratios_examined: int = 0
    fixed_ratio_searches: int = 0
    intervals_processed: int = 0
    intervals_pruned: int = 0
    leaf_ratios: int = 0
    examined_exact_ratios: set[Fraction] = field(default_factory=set)
    network_nodes: list[int] = field(default_factory=list)
    network_arcs: list[int] = field(default_factory=list)
    # Every pair this run has seeded or extracted, keyed by
    # (|E(S, T)|, |S|, |T|): equal keys mean equal surrogates at every ratio.
    pool: dict[tuple[int, int, int], tuple[list[int], list[int]]] = field(default_factory=dict)

    def remember(self, s_nodes: list[int], t_nodes: list[int]) -> None:
        """Add ``(S, T)`` to the pool that interior probes start from."""
        if s_nodes and t_nodes:
            edges = self.graph.count_edges_between(s_nodes, t_nodes)
            self.pool.setdefault((edges, len(s_nodes), len(t_nodes)), (s_nodes, t_nodes))

    def offer(self, s_nodes: list[int], t_nodes: list[int], density: float) -> None:
        """Pool ``(S, T)``; adopt it as the incumbent if it is strictly denser."""
        self.remember(s_nodes, t_nodes)
        if density > self.best_density and s_nodes and t_nodes:
            self.best_density = density
            self.best_s = list(s_nodes)
            self.best_t = list(t_nodes)

    def absorb_outcome(self, outcome: Any) -> None:
        """Merge instrumentation, incumbent and pool information from a search."""
        if outcome.flow_calls:
            self.fixed_ratio_searches += 1
        self.network_nodes.extend(outcome.network_nodes)
        self.network_arcs.extend(outcome.network_arcs)
        if outcome.found_pair:
            self.offer(outcome.best_s, outcome.best_t, outcome.best_density)
        if outcome.last_s is not outcome.best_s:  # often one pair, pooled by offer
            self.remember(outcome.last_s, outcome.last_t)

    def starting_pair(self, subproblem: STSubproblem, ratio: float) -> StartingPair | None:
        """The pooled pair inside ``subproblem`` with the best surrogate at ``ratio``."""
        s_allowed = set(subproblem.s_candidates)
        t_allowed = set(subproblem.t_candidates)
        start = None
        best = 0.0
        for (edges, s_size, t_size), (s_nodes, t_nodes) in self.pool.items():
            surrogate = surrogate_density(edges, s_size, t_size, ratio)
            if (
                surrogate > best
                and s_allowed.issuperset(s_nodes)
                and t_allowed.issuperset(t_nodes)
            ):
                start, best = (s_nodes, t_nodes, surrogate), surrogate
        return start

    def stats(self) -> dict[str, Any]:
        """Instrumentation dictionary stored on the final result."""
        stats = {
            "ratios_examined": self.ratios_examined,
            "fixed_ratio_searches": self.fixed_ratio_searches,
            "intervals_processed": self.intervals_processed,
            "intervals_pruned": self.intervals_pruned,
            "leaf_ratios": self.leaf_ratios,
            "network_nodes": self.network_nodes,
            "network_arcs": self.network_arcs,
        }
        # Delta against the entry snapshot: the engine may be session-owned
        # and already carry counts from earlier queries.
        stats.update(self.engine.stats_since(self.engine_snapshot))
        return stats


def _skip_region(
    probe_ratio: float,
    value_upper: float,
    incumbent: float,
    last_s: list[int],
    last_t: list[int],
    last_surrogate: float,
    density_gap: float,
) -> tuple[float, float]:
    """The ratio window around ``probe_ratio`` that cannot beat the incumbent.

    Returns ``(left_edge, right_edge)``: every candidate ratio strictly inside
    the open-ended region between the edges is provably unable to host a pair
    denser than the incumbent (window skip and/or ratio-skipping lemma — see
    the module docstring).  When nothing can be skipped both edges equal
    ``probe_ratio``.
    """
    left_edge = probe_ratio
    right_edge = probe_ratio
    if value_upper > 0 and incumbent >= value_upper:
        # Window skip: r with cosh(|ln(r / c)| / 2) <= incumbent / value_upper.
        half_width = 2.0 * math.acosh(incumbent / value_upper)
        left_edge = probe_ratio * math.exp(-half_width)
        right_edge = probe_ratio * math.exp(half_width)
    if last_s and last_t and last_surrogate > 0:
        maximiser_ratio = len(last_s) / len(last_t)
        epsilon = max(value_upper - last_surrogate, 0.0)
        delta = 0.5 * abs(math.log(maximiser_ratio / probe_ratio))
        if epsilon * math.cosh(delta) < density_gap:
            # Ratio-skipping lemma: the open interval between the probe ratio
            # and the maximiser's ratio cannot beat the incumbent.
            if maximiser_ratio > probe_ratio:
                right_edge = max(right_edge, maximiser_ratio)
            else:
                left_edge = min(left_edge, maximiser_ratio)
    return left_edge, right_edge


def _anytime_partial(
    graph: DiGraph,
    method: str,
    state: _SearchState,
    slack: float,
    global_upper: float,
    open_uppers: list[float],
    engine: FlowEngine,
) -> AnytimeResult:
    """Assemble the certified anytime result at a deadline cancellation.

    The incumbent is always a feasible pair, so its true density is a
    certified lower bound.  For the upper bound, partition the ratio line:

    * *settled* territory (leaves solved, intervals pruned or skipped) is
      bounded by ``incumbent + slack`` — each settled mechanism guarantees
      no pair there beats the incumbent by more than the search slack;
    * every *open* interval — the one being processed at cancellation plus
      everything still on the stack — carries its own conditional upper
      bound, valid whenever the optimal ratio lies inside it.

    The optimum's ratio lies in exactly one of those regions, so the max
    over all the regional bounds covers it; the unconditional
    ``global_upper`` caps the result either way.
    """
    density = (
        directed_density_from_indices(graph, state.best_s, state.best_t)
        if state.best_s and state.best_t
        else 0.0
    )
    certified_upper = min(global_upper, max([density + slack, *open_uppers]))
    deadline = engine.deadline
    return AnytimeResult(
        s_nodes=graph.labels_of(state.best_s),
        t_nodes=graph.labels_of(state.best_t),
        density=density,
        upper_bound=certified_upper,
        method=method,
        elapsed_ms=deadline.elapsed_ms() if deadline is not None else 0.0,
    )


def _seed_incumbent_with_peeling(graph: DiGraph, state: _SearchState) -> None:
    """Cheap incumbent: one two-sided peel at ratio 1 (linear time)."""
    subproblem = STSubproblem.from_graph(graph)
    s_nodes, t_nodes, density = peel_fixed_ratio(subproblem, 1.0)
    state.offer(s_nodes, t_nodes, density)


def _seed_incumbent_with_core(graph: DiGraph, state: _SearchState) -> float:
    """Incumbent from the max-product [x, y]-core; returns the core upper bound."""
    bounds = core_based_bounds(graph)
    if not bounds.is_trivial:
        state.offer(bounds.core.s_nodes, bounds.core.t_nodes, bounds.core_density)
        return bounds.upper
    return math.inf


def _dc_driver(
    graph: DiGraph,
    method: str,
    use_core_restriction: bool,
    seed_with_core: bool,
    tolerance: float | None,
    leaf_ratio_count: int,
    flow_solver: str = DEFAULT_SOLVER,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
    batch_size: int = 1,
) -> DDSResult:
    if graph.num_edges == 0:
        raise EmptyGraphError(f"{method} requires a graph with at least one edge")
    n = graph.num_nodes
    tolerance = tolerance if tolerance is not None else exactness_tolerance(graph)
    if tolerance <= 0:
        raise AlgorithmError("tolerance must be positive")
    density_gap = exactness_tolerance(graph)

    engine = engine if engine is not None else FlowEngine(flow_solver)
    network_cache = network_cache if network_cache is not None else NetworkCache()
    state = _SearchState(
        graph=graph,
        engine=engine,
        network_cache=network_cache,
        engine_snapshot=engine.snapshot(),
    )
    global_upper = global_density_upper_bound(graph)
    if seed_with_core:
        core_upper = _seed_incumbent_with_core(graph, state)
        global_upper = min(global_upper, core_upper)
    else:
        _seed_incumbent_with_peeling(graph, state)

    full_subproblem = STSubproblem.from_graph(graph)
    # An interval whose (i, j) pair count is at most this is cheap enough to
    # expand into distinct ratios; a single ratio point can account for up to
    # n pairs (all multiples), so the threshold must scale with n.
    distinct_check_limit = max(4 * n, 4 * leaf_ratio_count)

    def restrict(
        lo: float, hi: float, parent_core: XYCore | None
    ) -> tuple[XYCore | None, STSubproblem]:
        """The interval's containing core, peeled inside its parent's, and its sub-problem."""
        if not use_core_restriction:
            return None, full_subproblem
        core = containing_core(graph, state.best_density, lo, hi, within=parent_core)
        if core.is_empty:
            return core, STSubproblem(graph=graph, s_candidates=[], t_candidates=[], edges=[])
        return core, STSubproblem.from_graph(graph, core.s_nodes, core.t_nodes)

    def solve_leaf(ratios: list[Fraction], subproblem: STSubproblem, upper_bound: float) -> None:
        pending: list[Fraction] = []
        for ratio in ratios:
            if ratio in state.examined_exact_ratios:
                continue
            state.examined_exact_ratios.add(ratio)
            state.ratios_examined += 1
            state.leaf_ratios += 1
            pending.append(ratio)
        index = 0
        while index < len(pending):
            chunk = pending[index : index + batch_size]
            index += len(chunk)
            if len(chunk) >= 2 and state.engine.supports_batching(
                [decision_network_arc_count(subproblem)] * len(chunk)
            ):
                # Lockstep batched leaf: all of the chunk's searches share the
                # incumbent *at chunk entry* as their lower bound (a sequential
                # sweep would tighten later ratios' bounds with earlier ratios'
                # incumbents — that only changes guess counts, never which
                # pairs are optimal).
                outcomes = maximize_fixed_ratio_batch(
                    subproblem,
                    [float(ratio) for ratio in chunk],
                    lower=state.best_density,
                    upper=max(upper_bound, state.best_density),
                    tolerance=tolerance,
                    engine=state.engine,
                    network_cache=state.network_cache,
                )
                for outcome in outcomes:
                    state.absorb_outcome(outcome)
                continue
            for ratio in chunk:
                outcome = maximize_fixed_ratio(
                    subproblem,
                    float(ratio),
                    lower=state.best_density,
                    upper=max(upper_bound, state.best_density),
                    tolerance=tolerance,
                    engine=state.engine,
                    network_cache=state.network_cache,
                )
                state.absorb_outcome(outcome)

    # Depth-first traversal of the ratio-interval tree.  Each entry carries a
    # certified upper bound on the optimum *conditional on the optimal ratio
    # lying inside the interval* — the only conditioning exactness needs —
    # and, under core restriction, the parent's containing core, which
    # contains the child's.
    stack: list[tuple[float, float, float, XYCore | None]] = [
        (1.0 / n, float(n), global_upper, None)
    ]
    # Conditional upper bound of the interval currently being processed; at a
    # deadline cancellation it (plus the stack entries' bounds) is exactly the
    # not-yet-settled territory of the anytime upper bound.
    current_upper = global_upper
    try:
        while stack:
            lo, hi, upper_bound, parent_core = stack.pop()
            if lo > hi:
                continue
            current_upper = upper_bound
            state.intervals_processed += 1
            pair_count = count_candidate_ratios_in_interval(lo, hi, n)
            if pair_count == 0:
                continue

            core, subproblem = restrict(lo, hi, parent_core)
            if subproblem.is_empty:
                # The containing core is empty: no pair in this interval can
                # beat the incumbent, so the interval is solved.
                state.intervals_pruned += 1
                continue

            probe_ratio = math.sqrt(lo * hi)
            degenerate = (
                probe_ratio <= lo * (1.0 + 1e-12) or probe_ratio >= hi / (1.0 + 1e-12)
            )
            distinct_ratios: list[Fraction] | None = None
            if pair_count <= distinct_check_limit or degenerate:
                distinct_ratios = candidate_ratios_in_interval(lo, hi, n)
                if all(ratio in state.examined_exact_ratios for ratio in distinct_ratios):
                    continue
            is_leaf = degenerate or (
                distinct_ratios is not None and len(distinct_ratios) <= leaf_ratio_count
            )
            if is_leaf:
                solve_leaf(distinct_ratios or [], subproblem, upper_bound)
                continue

            # -------------------------------------------------- interior probe
            # One search started at the best pooled pair inside the
            # sub-problem (a certified lower bound on val(c)): the Dinkelbach
            # iteration closes its bracket at val(c), which yields both the
            # certified upper bound of the window skip and the surrogate
            # maximiser of the ratio-skipping lemma.
            state.ratios_examined += 1
            outcome = maximize_fixed_ratio(
                subproblem,
                probe_ratio,
                lower=0.0,
                upper=max(upper_bound, 0.0),
                tolerance=tolerance,
                engine=state.engine,
                network_cache=state.network_cache,
                start=state.starting_pair(subproblem, probe_ratio),
            )
            state.absorb_outcome(outcome)
            value_upper = outcome.upper
            left_edge, right_edge = _skip_region(
                probe_ratio,
                value_upper,
                state.best_density,
                outcome.last_s,
                outcome.last_t,
                outcome.last_surrogate,
                density_gap,
            )

            child_upper = min(upper_bound, interval_relaxation_factor(lo, hi) * value_upper)
            pushed_any = False
            if left_edge > lo:
                stack.append((lo, min(left_edge, hi), child_upper, core))
                pushed_any = True
            if right_edge < hi:
                stack.append((max(right_edge, lo), hi, child_upper, core))
                pushed_any = True
            if not pushed_any:
                state.intervals_pruned += 1
    except DeadlineExceeded as error:
        # Fold the cancelled search's partial bracket(s) into the incumbent —
        # their lower/upper are certified even though the bracket never
        # closed — then attach the anytime result and let the deadline
        # propagate to the session layer.
        for outcome in partial_outcomes(error):
            state.absorb_outcome(outcome)
        error.partial = _anytime_partial(
            graph,
            method,
            state,
            max(tolerance, density_gap),
            global_upper,
            [current_upper, *(entry[2] for entry in stack)],
            state.engine,
        )
        raise

    if not state.best_s or not state.best_t:
        raise AlgorithmError(f"{method} failed to find any non-empty pair")

    density = directed_density_from_indices(graph, state.best_s, state.best_t)
    stats = state.stats()
    stats["tolerance"] = tolerance
    stats["use_core_restriction"] = use_core_restriction
    return DDSResult(
        s_nodes=graph.labels_of(state.best_s),
        t_nodes=graph.labels_of(state.best_t),
        density=density,
        edge_count=graph.count_edges_between(state.best_s, state.best_t),
        method=method,
        is_exact=True,
        stats=stats,
    )


def dc_exact(
    graph: DiGraph,
    config: ExactConfig | None = None,
    *,
    tolerance: float | None = None,
    leaf_ratio_count: int | None = None,
    seed_with_core: bool | None = None,
    flow_solver: str | None = None,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
) -> DDSResult:
    """Exact DDS via divide-and-conquer over the ratio interval (``DCExact``).

    ``config`` is the normalized :class:`~repro.core.config.ExactConfig`;
    the keyword arguments are legacy-compatible per-field overrides resolved
    through it (so invalid values fail with :class:`ConfigError` up front).
    ``config.seed_with_core`` switches the incumbent initialisation from a
    cheap peel to the CoreApprox core (used by the E11 ablation); the search
    space itself is never core-restricted here — that is :func:`core_exact`'s
    job.  ``engine`` and ``network_cache`` are the hooks a
    :class:`~repro.session.DDSSession` uses to share flow instrumentation and
    decision networks (with their residual flows) across queries.
    """
    cfg = ExactConfig.resolve(
        config,
        tolerance=tolerance,
        leaf_ratio_count=leaf_ratio_count,
        seed_with_core=seed_with_core,
        flow_solver=flow_solver,
    )
    if network_cache is None:
        network_cache = NetworkCache(cfg.flow.network_cache_size)
    return _dc_driver(
        graph,
        method="dc-exact",
        use_core_restriction=False,
        seed_with_core=cfg.seed_with_core,
        tolerance=cfg.tolerance,
        leaf_ratio_count=cfg.leaf_ratio_count,
        flow_solver=cfg.flow.solver,
        engine=engine,
        network_cache=network_cache,
        batch_size=cfg.flow.batch_size,
    )
