"""Dinkelbach maximisation of the fixed-ratio surrogate objective.

For a ratio ``a`` define

    val(a) = max over non-empty S, T of  |E'(S,T)| / D_a(S,T),
    D_a(S,T) = (|S|/sqrt(a) + sqrt(a)*|T|) / 2.

``val(a)`` is a lower bound on ``rho_opt`` for every ``a`` and equals
``rho_opt`` when ``a`` is the optimal ratio ``|S*|/|T*|`` (AM–GM).  The
functions below bracket ``val(a)`` with Dinkelbach's iteration
(W. Dinkelbach, "On nonlinear fractional programming", *Management Science*
13(7), 1967), whose decision step is one min-cut on the network of
:mod:`repro.core.flow_network` at a guess ``g``:

* every guess is the current certified lower bound ``g = low``;
* a cut that beats ``g`` exhibits a pair whose surrogate ``σ`` exceeds
  ``g``, so ``low`` jumps to ``σ`` and ``σ`` is the next guess;
* a cut that does not beat ``g = low`` certifies ``val(a) <= low`` and so
  closes the bracket (``high = low``).

The guesses rise monotonically towards ``val(a)`` and a search typically
ends after a handful of cuts; a search whose ``lower`` is already at or
above ``val(a)`` costs exactly one.  A caller that already holds a pair
inside the sub-problem may pass it as ``start``: its surrogate ``σ``
certifies ``val(a) >= σ``, so the search begins at ``low = σ`` with the pair
as its surrogate maximiser and never solves the guesses below it (the
divide-and-conquer drivers start every interior probe this way).
Bisection survives only as the fallback after a *float stall* — a success
whose extracted surrogate does not exceed the guess — where the next guess
is the bracket midpoint; that fallback is what guarantees termination.
``tolerance`` remains the stop condition: a search ends once
``upper - lower < tolerance``.

Each search builds its decision network once and retunes it in place
(:meth:`~repro.core.flow_network.DecisionNetwork.retune`; only the
penalty-arc capacities depend on the guess) while its cuts extract the
whole candidate space.  The network lives only as long as its search.
Once a cut at guess ``g`` extracts a pair
``(S_g, T_g)`` strictly smaller than that, every later guess is solved on a
fresh network built from the sub-problem restricted to the pair
(:meth:`~repro.core.subproblem.STSubproblem.restricted_to`).  The penalty
arcs are the only guess-dependent arcs and only grow with the guess, so the
minimal (residual-reachable) cuts are nested (Gallo, Grigoriadis & Tarjan,
"A fast parametric maximum flow algorithm and applications", *SIAM J.
Comput.* 18(1), 1989): for ``g <= g'`` the canonical cut at ``g'`` lies
inside the one at ``g``.  Every later guess is at least ``g`` — guesses
rise, and a post-stall midpoint lies in ``[low, high]`` with ``low >= g`` —
so the narrowed network gives the same verdict and the same pair, hence the
same guesses and ``flow_calls``.  Its cut is judged against the search
network's slack, so narrowing cannot move the tie threshold either.

Narrowed networks do not count as ``networks_built``; ``network_nodes`` /
``network_arcs`` record the search network's size for every cut.  Every
solve is cold: the network it runs on is freshly built (the search network
or a narrowed one) or retuned, and holds zero flow or the greedy start flow
of :meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow`,
which the solver continues from.  Min-cuts run through a caller-supplied
:class:`~repro.flow.engine.FlowEngine`, which picks the solver (registry
name) and accumulates ``flow_calls`` / ``networks_built`` /
``arcs_pushed`` across the whole algorithm run (see the stats glossary in
:mod:`repro.flow.engine`).

A search keeps track of two extracted pairs: the one with the best *true*
density (for the incumbent) and the one extracted at the highest successful
guess (the surrogate near-maximiser the ratio-skipping lemma needs).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.density import surrogate_density
from repro.core.flow_network import (
    build_decision_network,
    check_decision_parameters,
    decision_cut_is_improving,
)
from repro.core.results import FixedRatioOutcome
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, DeadlineExceeded
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph

NetworkObserver = Callable[[int, int], None]
#: ``(S, T, surrogate, edges)``: a pair inside the sub-problem, its surrogate at
#: the ratio and the number of graph edges from ``S`` to ``T``.
StartingPair = tuple[list[int], list[int], float, int]


def partial_outcomes(error: DeadlineExceeded) -> list[FixedRatioOutcome]:
    """The partial search outcome a cancelled fixed-ratio search attached.

    A :class:`DeadlineExceeded` escaping :func:`maximize_fixed_ratio`
    carries the interrupted search's bracket-at-cancellation as
    ``error.outcome``.  Its ``lower``/``upper`` are certified bounds (the
    bracket never closed), so the exact drivers absorb it into the
    incumbent exactly like a completed search before assembling their
    anytime result.  Empty when the deadline struck outside a search.
    """
    outcome = getattr(error, "outcome", None)
    return [] if outcome is None else [outcome]


def _check_bounds(lower: float, upper: float, tolerance: float) -> None:
    # Written so NaN fails every test: a NaN bound or tolerance never closes
    # the bracket.  An infinite ``upper`` stays legal (a trivial bound).
    if not (lower >= 0 and upper >= 0):
        raise AlgorithmError(f"bounds must be non-negative, got ({lower}, {upper})")
    if not tolerance > 0:
        raise AlgorithmError(f"tolerance must be > 0, got {tolerance}")


def check_search_arguments(ratio: float, lower: float, upper: float, tolerance: float) -> None:
    """Refuse arguments no search can finish on, before any work is done.

    Raises the :class:`AlgorithmError` a search itself would: the bounds and
    tolerance as :func:`maximize_fixed_ratio` checks them, then the ratio
    as its first decision network would.
    """
    _check_bounds(lower, upper, tolerance)
    check_decision_parameters(ratio, 0.0)


class _RatioSearch:
    """Bracket state of one fixed-ratio search, advanced one min-cut at a time.

    :func:`maximize_fixed_ratio` drives one of these.  Each step is
    :meth:`prepare` (pick the guess; build the search network, build a
    narrowed one or retune the current one; route its start flow), one
    min-cut by the caller on :attr:`network`, then :meth:`record` (advance
    the bracket).  :attr:`decision` is always the search network.
    """

    __slots__ = (
        "ratio",
        "low",
        "high",
        "stalled",
        "best_s",
        "best_t",
        "best_density",
        "best_edges",
        "last_s",
        "last_t",
        "last_surrogate",
        "last_edges",
        "flow_calls",
        "networks_built",
        "network_nodes",
        "network_arcs",
        "decision",
        "network",
        "scope",
        "narrow_to",
        "guess",
    )

    def __init__(
        self,
        ratio: float,
        lower: float,
        upper: float,
        start: StartingPair | None = None,
    ) -> None:
        self.ratio = ratio
        self.low = float(lower)
        self.high = max(float(upper), self.low)
        self.stalled = False
        self.best_s: list[int] = []
        self.best_t: list[int] = []
        self.best_density = 0.0
        self.best_edges = 0
        self.last_s: list[int] = []
        self.last_t: list[int] = []
        self.last_surrogate = 0.0
        self.last_edges = 0
        if start is not None:
            # A pair inside the sub-problem certifies val(ratio) >= its
            # surrogate: start there, capped like a Dinkelbach jump.
            self.last_s, self.last_t, self.last_surrogate, self.last_edges = start
            self.low = min(max(self.low, self.last_surrogate), self.high)
        self.flow_calls = 0
        self.networks_built = 0
        self.network_nodes: list[int] = []
        self.network_arcs: list[int] = []
        self.decision = None  # the search network
        self.network = None  # the network the next cut runs on
        self.scope: STSubproblem | None = None  # the sub-problem ``network`` covers
        self.narrow_to: tuple[list[int], list[int]] | None = None
        self.guess = 0.0

    def prepare(
        self,
        subproblem: STSubproblem,
        engine: FlowEngine,
        network_observer: NetworkObserver | None,
    ) -> None:
        """Set the next guess on a network that holds only its start flow."""
        # Dinkelbach: probe the certified lower bound.  After a float stall
        # the same guess would stall again, so bisect instead.
        guess = self.guess = (self.low + self.high) / 2.0 if self.stalled else self.low
        if self.decision is None:
            self.decision = self.network = build_decision_network(subproblem, self.ratio, guess)
            engine.note_network_built()
            self.networks_built += 1
            self.scope = subproblem
            if network_observer is not None:
                network_observer(self.decision.num_nodes, self.decision.num_arcs)
        elif self.narrow_to is not None:
            # Every later guess is at least the one that extracted the pair,
            # so the canonical cut lies inside it (nested minimal cuts).
            self.scope = self.scope.restricted_to(*self.narrow_to)
            self.narrow_to = None
            self.network = build_decision_network(self.scope, self.ratio, guess)
        else:
            self.network.retune(self.ratio, guess)
        self.network.route_start_flow()
        self.network_nodes.append(self.decision.num_nodes)
        self.network_arcs.append(self.decision.num_arcs)

    def record(
        self, graph: DiGraph, cut_value: float, source_side: Callable[[], list[int]]
    ) -> None:
        """Advance the bracket by the verdict of the min-cut at :attr:`guess`."""
        self.flow_calls += 1
        network = self.network
        if decision_cut_is_improving(
            cut_value, network.total_capacity, self.decision.total_capacity
        ):
            s_side, t_side = network.extract_pair(source_side())
            if s_side and t_side:
                edges = graph.count_edges_between(s_side, t_side)
                surrogate = surrogate_density(edges, len(s_side), len(t_side), self.ratio)
                density = edges / math.sqrt(len(s_side) * len(t_side))
                if density > self.best_density:
                    self.best_density = density
                    self.best_s, self.best_t, self.best_edges = s_side, t_side, edges
                if surrogate >= self.last_surrogate:
                    self.last_surrogate = surrogate
                    self.last_s, self.last_t, self.last_edges = s_side, t_side, edges
                if len(s_side) < len(network.s_nodes) or len(t_side) < len(network.t_nodes):
                    self.narrow_to = (s_side, t_side)
                # Dinkelbach jump: the pair certifies val(ratio) >= surrogate,
                # which becomes the next guess.  A conditional upper bound may
                # sit below val(ratio); capping keeps lower <= upper.
                self.stalled = surrogate <= self.guess
                self.low = min(max(self.guess, surrogate), self.high)
                return
        # No pair beats the guess, so val(ratio) <= guess.
        self.high = self.guess

    def outcome(self) -> FixedRatioOutcome:
        """The bracket, pairs and counters so far (valid at every step boundary)."""
        return FixedRatioOutcome(
            ratio=self.ratio,
            lower=self.low,
            upper=self.high,
            best_s=self.best_s,
            best_t=self.best_t,
            best_density=self.best_density,
            flow_calls=self.flow_calls,
            networks_built=self.networks_built,
            best_edges=self.best_edges,
            last_s=self.last_s,
            last_t=self.last_t,
            last_surrogate=self.last_surrogate,
            last_edges=self.last_edges,
            network_nodes=self.network_nodes,
            network_arcs=self.network_arcs,
        )


def maximize_fixed_ratio(
    subproblem: STSubproblem,
    ratio: float,
    lower: float,
    upper: float,
    tolerance: float,
    network_observer: NetworkObserver | None = None,
    engine: FlowEngine | None = None,
    start: StartingPair | None = None,
) -> FixedRatioOutcome:
    """Bracket ``val(ratio)`` within ``tolerance`` by Dinkelbach's iteration.

    Parameters
    ----------
    subproblem:
        The (possibly core-restricted) search space.
    ratio:
        The probe ratio ``a``.
    lower, upper:
        Initial bracket and first guess (``lower``); ``lower`` must not
        exceed ``val(ratio)`` *if the caller wants extraction* — passing a
        larger ``lower`` is allowed and simply means "only look for pairs
        with surrogate density above it", which one min-cut settles.
        ``upper`` must be a true upper bound on ``val(ratio)`` for the
        bracket to certify ``val(ratio)``.
    tolerance:
        Stop once ``upper - lower < tolerance``.
    network_observer:
        Optional callback ``(num_nodes, num_arcs)`` invoked once per search
        for the network it builds (feeds experiment E7).
    engine:
        The :class:`~repro.flow.engine.FlowEngine` executing the min-cuts
        (solver choice + run-wide instrumentation).  A private Dinic engine
        is created when omitted.
    start:
        Optional ``(S, T, surrogate, edges)``: a pair whose vertices lie
        inside ``subproblem``, its surrogate at ``ratio`` and its edge
        count; the pair certifies ``val(ratio) >= surrogate``.  The search
        starts with the pair as its
        surrogate maximiser and ``lower`` raised to the surrogate (capped at
        ``upper``), so no guess below it is solved; if the first cut fails,
        the pair is an exact maximiser.

    Returns
    -------
    FixedRatioOutcome
        Final bracket (``lower <= upper`` always), best-true-density pair,
        surrogate near-maximiser, and instrumentation.  ``outcome.upper`` is
        a certified upper bound on ``val(ratio)`` whenever ``upper`` was, and
        ``outcome.lower`` a certified lower bound whenever ``lower`` was.
    """
    _check_bounds(lower, upper, tolerance)
    if subproblem.is_empty:
        return _RatioSearch(ratio, 0.0, 0.0).outcome()

    if engine is None:
        engine = FlowEngine()
    graph = subproblem.graph
    search = _RatioSearch(ratio, lower, upper, start=start)
    try:
        while search.high - search.low >= tolerance:
            search.prepare(subproblem, engine, network_observer)
            network = search.network
            cut_value, solver = engine.min_cut(network.network, network.source, network.sink)
            search.record(graph, cut_value, solver.min_cut_source_side)
    except DeadlineExceeded as error:
        # A cancelled min-cut never advanced the bracket, so (low, high)
        # are still certified bounds on val(ratio); attach them for the
        # driver's anytime result.
        error.outcome = search.outcome()
        raise

    return search.outcome()


def maximize_fixed_ratio_batch(
    subproblem: STSubproblem,
    ratios: list[float],
    lower: float,
    upper: float,
    tolerance: float,
    network_observer: NetworkObserver | None = None,
    engine: FlowEngine | None = None,
) -> list[FixedRatioOutcome]:
    """:func:`maximize_fixed_ratio` once per ratio, from the same bracket.

    Nothing in ``src/`` calls this.  It stays only because perfbench's
    tracer (``perfbench/ddsbench/layers.py``) patches it by name and fails
    on a missing one; it goes once that tracer accepts a missing name
    (ROADMAP direction 2).
    """
    return [
        maximize_fixed_ratio(
            subproblem, ratio, lower, upper, tolerance, network_observer, engine
        )
        for ratio in ratios
    ]
