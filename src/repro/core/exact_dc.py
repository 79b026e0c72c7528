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
has seen — the initial incumbent, the graph's hub pairs, and the best and
the last pair of every search outcome — keyed by ``(|E(S,T)|, |S|, |T|)``,
which fixes a pair's surrogate at every ratio.  A *hub pair* is the ``k``
nodes of highest in-degree with all their in-neighbours, or the ``k`` of
highest out-degree with all their out-neighbours, for ``k = 1, 2, 4, …``
(:func:`_hub_pairs`): stars and unions of stars, the maximisers of probes
far from ratio 1 on hub-heavy graphs.  A probe over sub-problem ``X``
starts at the pooled pair inside ``X`` with the best surrogate ``sigma`` at
``c``: since the pair lies in ``X``, ``sigma <= val_X(c)`` is a certified
lower bound, and the pair is the search's initial surrogate maximiser.
Dinkelbach's iteration then closes its bracket at ``val(c)`` after one to a
few cuts, so ``upper(val(c))`` is tight and the maximiser has ``eps = 0``
unless the search stopped at its tolerance first; if the first cut fails, the seed
itself is the exact maximiser.  The incumbent is at least as dense as every
pooled pair (every hub pair is offered to it before the first probe, each
search's best pair as the search ends, and a search's best pair is at least
as dense as its last pair), so the ratio-skipping lemma holds for a seed
exactly as for an extracted pair (see "Why seeded probes are exact" in
``docs/architecture.md``).  With tied optima a different, equally dense pair
may be reported than an unseeded probe would find.

Whatever is not covered by the skip region is pushed back as (at most two)
child intervals together with a tightened conditional upper bound
``min(parent_upper, f(lo,hi) * upper(val(c)))`` which is valid whenever the
optimal ratio lies inside the child.  Intervals containing at most
:data:`LEAF_RATIO_COUNT` distinct candidate ratios are leaves: each
not-yet-examined ratio gets one full-precision fixed-ratio search starting at
the incumbent, which a single min-cut settles whenever the ratio cannot beat
it.  The leaf test is integer bookkeeping (:mod:`repro.core.ratio`): a count
of the interval's ``(i, j)`` pairs that stops once it passes
``max(4n, 4 * LEAF_RATIO_COUNT)``, then, for an interval within that limit, a
lazy Farey walk over its reduced ratios ``(p, q)`` that stops as soon as the
interval is known to be neither a leaf nor fully examined.  Examined ratios
are kept as ``(p, q)`` and searched at ``p / q``, bit for bit the float of the
exact ratio.

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
from typing import Any, Callable, Iterator

from repro.core.approx_peel import peel_fixed_ratio
from repro.core.bounds import containing_core, core_based_bounds
from repro.core.config import ExactConfig
from repro.core.density import (
    directed_density_from_indices,
    exactness_tolerance,
    global_density_upper_bound,
    interval_relaxation_factor,
    surrogate_density,
)
from repro.core.fixed_ratio import StartingPair, maximize_fixed_ratio
from repro.core.ratio import count_candidate_pairs, iter_candidate_ratios
from repro.core.results import DDSResult
from repro.core.subproblem import STSubproblem
from repro.core.xycore import XYCore
from repro.exceptions import AlgorithmError, DeadlineExceeded, EmptyGraphError
from repro.flow.engine import FlowEngine, zero_snapshot
from repro.graph.digraph import DiGraph
from repro.runtime import AnytimeResult

__all__ = ["dc_exact"]

#: An interval whose geometric midpoint lies within this relative distance of
#: an end cannot be split by its probe: it is solved as a leaf, whatever its
#: ratio count.
DEGENERATE_PROBE_TOLERANCE = 1e-12

#: Intervals containing at most this many distinct candidate ratios are
#: leaves of the divide-and-conquer recursion.
LEAF_RATIO_COUNT = 2


def _hub_pairs(adjacency: list[list[int]]) -> Iterator[tuple[list[int], list[int], int]]:
    """The ``k`` heads of largest degree in ``adjacency`` with all their neighbours.

    Heads are taken in descending degree, ties by index, and yielded at
    ``k = 1, 2, 4, …`` as ``(heads, tails, edges)``: the tails are the union
    of the heads' adjacency lists, so the pair spans exactly the heads'
    edges, ``edges`` is the heads' degree sum, and no edge is recounted.
    With ``in_adj`` the heads are a ``T`` side and the tails its ``S``; with
    ``out_adj`` the other way round.  The walk stops when the heads with a
    non-zero degree run out, or once there are fewer tails than heads: past
    that the pair's ratio would cross 1, which the other orientation covers.
    """
    degrees = list(map(len, adjacency))
    seen = bytearray(len(adjacency))
    heads: list[int] = []
    tails: list[int] = []
    edges = 0
    size = 1
    for head in sorted(range(len(adjacency)), key=degrees.__getitem__, reverse=True):
        if not degrees[head]:
            return
        heads.append(head)
        edges += degrees[head]
        for tail in adjacency[head]:
            if not seen[tail]:
                seen[tail] = 1
                tails.append(tail)
        if len(heads) == size:
            if len(tails) < size:
                return
            yield list(heads), list(tails), edges
            size *= 2


@dataclass
class _SearchState:
    """Mutable incumbent, pair pool and instrumentation shared across the recursion.

    The incumbent is at least as dense as every pooled pair: :meth:`offer`
    pools a pair and adopts it if it is denser, and :meth:`remember` alone
    pools only a search's last pair, never denser than that search's best.
    """

    graph: DiGraph
    engine: FlowEngine = field(default_factory=FlowEngine)
    engine_snapshot: tuple[int, ...] = field(default_factory=zero_snapshot)
    best_s: list[int] = field(default_factory=list)
    best_t: list[int] = field(default_factory=list)
    best_density: float = 0.0
    ratios_examined: int = 0
    fixed_ratio_searches: int = 0
    intervals_processed: int = 0
    intervals_pruned: int = 0
    leaf_ratios: int = 0
    # Reduced (p, q) of every ratio a leaf has searched.
    examined_exact_ratios: set[tuple[int, int]] = field(default_factory=set)
    network_nodes: list[int] = field(default_factory=list)
    network_arcs: list[int] = field(default_factory=list)
    # Every pair this run has seeded or extracted, keyed by
    # (|E(S, T)|, |S|, |T|): equal keys mean equal surrogates at every ratio.
    pool: dict[tuple[int, int, int], tuple[list[int], list[int]]] = field(default_factory=dict)

    def remember(self, s_nodes: list[int], t_nodes: list[int], edges: int | None = None) -> None:
        """Add ``(S, T)``, spanning ``edges`` edges (counted if not given), to the pool."""
        if s_nodes and t_nodes:
            if edges is None:
                edges = self.graph.count_edges_between(s_nodes, t_nodes)
            self.pool.setdefault((edges, len(s_nodes), len(t_nodes)), (s_nodes, t_nodes))

    def offer(
        self, s_nodes: list[int], t_nodes: list[int], density: float, edges: int | None = None
    ) -> None:
        """Pool ``(S, T)``; adopt it as the incumbent if it is strictly denser."""
        self.remember(s_nodes, t_nodes, edges)
        if density > self.best_density and s_nodes and t_nodes:
            self.best_density = density
            self.best_s = list(s_nodes)
            self.best_t = list(t_nodes)

    def offer_hub_pairs(self) -> None:
        """Offer the in-degree and the out-degree hub pairs (:func:`_hub_pairs`)."""
        incumbent = self.best_density
        for heads, tails, edges in _hub_pairs(self.graph.in_adj):
            self.offer(tails, heads, edges / math.sqrt(len(tails) * len(heads)), edges)
        for heads, tails, edges in _hub_pairs(self.graph.out_adj):
            self.offer(heads, tails, edges / math.sqrt(len(heads) * len(tails)), edges)
        if self.best_density > incumbent:
            # An adopted hub pair takes the ascending order a cut reports.
            self.best_s.sort()
            self.best_t.sort()

    def absorb_outcome(self, outcome: Any) -> None:
        """Merge instrumentation, incumbent and pool information from a search."""
        if outcome.flow_calls:
            self.fixed_ratio_searches += 1
        self.network_nodes.extend(outcome.network_nodes)
        self.network_arcs.extend(outcome.network_arcs)
        if outcome.found_pair:
            self.offer(outcome.best_s, outcome.best_t, outcome.best_density, outcome.best_edges)
        if outcome.last_s is not outcome.best_s:  # often one pair, pooled by offer
            self.remember(outcome.last_s, outcome.last_t, outcome.last_edges)

    def starting_pair(
        self, subproblem: STSubproblem, ratio: float, *, holds_pool: bool = False
    ) -> StartingPair | None:
        """The pooled pair inside ``subproblem`` with the best surrogate at ``ratio``.

        ``holds_pool`` says ``subproblem`` contains every pooled pair (dc-exact's
        whole-graph sub-problem), so no pair needs the subset test; otherwise
        the candidate sets are built once a pair's surrogate beats the best.
        """
        allowed: tuple[set[int], set[int]] | None = None
        start = None
        best = 0.0
        for (edges, s_size, t_size), (s_nodes, t_nodes) in self.pool.items():
            surrogate = surrogate_density(edges, s_size, t_size, ratio)
            if surrogate <= best:
                continue
            if not holds_pool:
                if allowed is None:
                    allowed = set(subproblem.s_candidates), set(subproblem.t_candidates)
                if not (allowed[0].issuperset(s_nodes) and allowed[1].issuperset(t_nodes)):
                    continue
            start, best = (s_nodes, t_nodes, surrogate, edges), surrogate
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


def _seed_incumbent_with_peeling(subproblem: STSubproblem, state: _SearchState) -> None:
    """Cheap incumbent: one two-sided peel of the whole graph's sub-problem at ratio 1."""
    s_nodes, t_nodes, density = peel_fixed_ratio(subproblem, 1.0)
    state.offer(s_nodes, t_nodes, density)


def _seed_incumbent_with_core(
    graph: DiGraph, state: _SearchState, max_core: Callable[[], XYCore] | None
) -> float:
    """Incumbent from the max-product [x, y]-core; returns the core upper bound."""
    bounds = core_based_bounds(graph, max_core)
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
    engine: FlowEngine | None = None,
    max_core: Callable[[], XYCore] | None = None,
    leaf_ratio_count: int = LEAF_RATIO_COUNT,
) -> DDSResult:
    """The DCExact / CoreExact search; ``leaf_ratio_count`` widens the leaf test."""
    if graph.num_edges == 0:
        raise EmptyGraphError(f"{method} requires a graph with at least one edge")
    n = graph.num_nodes
    tolerance = tolerance if tolerance is not None else exactness_tolerance(graph)
    if tolerance <= 0:
        raise AlgorithmError("tolerance must be positive")
    density_gap = exactness_tolerance(graph)

    engine = engine if engine is not None else FlowEngine()
    state = _SearchState(graph=graph, engine=engine, engine_snapshot=engine.snapshot())
    global_upper = global_density_upper_bound(graph)
    # dc-exact's search space, which its peel seed reads too; core-exact
    # restricts every interval and never reads it.
    full_subproblem = None if use_core_restriction else STSubproblem.from_graph(graph)
    if seed_with_core:
        core_upper = _seed_incumbent_with_core(graph, state, max_core)
        global_upper = min(global_upper, core_upper)
    else:
        _seed_incumbent_with_peeling(full_subproblem or STSubproblem.from_graph(graph), state)
    state.offer_hub_pairs()

    # An interval whose (i, j) pair count is at most this is cheap enough to
    # walk for distinct ratios; a single ratio point can account for up to
    # n pairs (all multiples), so the threshold must scale with n.  The count
    # stops once it passes the limit.
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

    def solve_leaf(
        ratios: list[tuple[int, int]], subproblem: STSubproblem, upper_bound: float
    ) -> None:
        for ratio in ratios:
            if ratio in state.examined_exact_ratios:
                continue
            state.examined_exact_ratios.add(ratio)
            state.ratios_examined += 1
            state.leaf_ratios += 1
            p, q = ratio
            # Each search starts at the incumbent the searches before it left.
            outcome = maximize_fixed_ratio(
                subproblem,
                p / q,
                lower=state.best_density,
                upper=max(upper_bound, state.best_density),
                tolerance=tolerance,
                engine=state.engine,
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
            pair_count = count_candidate_pairs(lo, hi, n, distinct_check_limit)
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
                probe_ratio <= lo * (1.0 + DEGENERATE_PROBE_TOLERANCE)
                or probe_ratio >= hi / (1.0 + DEGENERATE_PROBE_TOLERANCE)
            )
            if pair_count <= distinct_check_limit or degenerate:
                # Read the ascending walk only as far as the decision needs:
                # once a ratio is unexamined and there are more than a leaf's
                # worth, the interval is neither settled nor a leaf.
                ratios: list[tuple[int, int]] = []
                fresh = False
                for pair in iter_candidate_ratios(lo, hi, n):
                    ratios.append(pair)
                    fresh = fresh or pair not in state.examined_exact_ratios
                    if fresh and not degenerate and len(ratios) > leaf_ratio_count:
                        break
                if not fresh:
                    continue  # every ratio inside has been examined
                if degenerate or len(ratios) <= leaf_ratio_count:
                    solve_leaf(ratios, subproblem, upper_bound)
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
                start=state.starting_pair(
                    subproblem, probe_ratio, holds_pool=subproblem is full_subproblem
                ),
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
        # Only a search's min-cut checks the deadline, so the error carries
        # the cancelled search's outcome.  Fold it into the incumbent — its
        # lower/upper are certified even though the bracket never closed —
        # then attach the anytime result and let the deadline propagate to
        # the session layer.
        state.absorb_outcome(error.outcome)
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
    engine: FlowEngine | None = None,
    max_core: Callable[[], XYCore] | None = None,
) -> DDSResult:
    """Exact DDS via divide-and-conquer over the ratio interval (``DCExact``).

    ``config`` is the normalized :class:`~repro.core.config.ExactConfig`
    (anything else fails with :class:`ConfigError` up front).
    ``config.seed_with_core`` switches the incumbent initialisation from a
    cheap peel to the CoreApprox core (used by the E11 ablation); the search
    space itself is never core-restricted here — that is :func:`core_exact`'s
    job.  ``engine`` is the hook a :class:`~repro.session.DDSSession` uses
    to share flow instrumentation across queries, and ``max_core`` returns
    the session's cached maximum-product core for the ``seed_with_core``
    incumbent.
    """
    cfg = ExactConfig.resolve(config)
    return _dc_driver(
        graph,
        method="dc-exact",
        use_core_restriction=False,
        seed_with_core=cfg.seed_with_core,
        tolerance=cfg.tolerance,
        engine=engine,
        max_core=max_core,
    )
