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

Each search fetches its decision network from the network cache, or
builds it, once and retunes it in place
(:meth:`~repro.core.flow_network.DecisionNetwork.retune`; only the
penalty-arc capacities depend on the guess) while its cuts extract the
whole candidate space.  Once a cut at guess ``g`` extracts a pair
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

Narrowed networks are solved cold, never enter the network cache and do
not count as ``networks_built``; ``network_nodes`` / ``network_arcs``
record the search network's size for every cut.  A solve on the search
network continues from the residual flow its previous solve left — at the
previous guess or, for a cache-served network, in the last search that
used it.  Min-cuts run through a caller-supplied
:class:`~repro.flow.engine.FlowEngine`, which picks the solver (registry
name) and accumulates ``flow_calls`` / ``networks_built`` / ``arcs_pushed``
/ ``warm_starts_used`` across the whole algorithm run (see the stats
glossary in :mod:`repro.flow.engine`).

A search keeps track of two extracted pairs: the one with the best *true*
density (for the incumbent) and the one extracted at the highest successful
guess (the surrogate near-maximiser the ratio-skipping lemma needs).  The
sequential and the lockstep batched search share one per-search state
machine, :class:`_RatioSearch`, so both apply the same guess rule; the
lockstep search keeps its stacked whole-sub-problem networks and does not
narrow.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.density import surrogate_density
from repro.core.flow_network import build_decision_network, decision_cut_is_improving
from repro.core.network_cache import NetworkCache
from repro.core.results import FixedRatioOutcome
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, DeadlineExceeded
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph

NetworkObserver = Callable[[int, int], None]
#: ``(S, T, surrogate)``: a pair inside the sub-problem and its surrogate at the ratio.
StartingPair = tuple[list[int], list[int], float]


def partial_outcomes(error: DeadlineExceeded) -> list[FixedRatioOutcome]:
    """The partial search outcomes a cancelled fixed-ratio search attached.

    A :class:`DeadlineExceeded` escaping :func:`maximize_fixed_ratio`
    carries the interrupted search's bracket-at-cancellation as
    ``error.outcome``; one escaping :func:`maximize_fixed_ratio_batch`
    carries every member's as ``error.outcomes``.  Either way each outcome's
    ``lower``/``upper`` are certified bounds (the bracket never closed), so
    the exact drivers absorb them into the incumbent exactly like completed
    searches before assembling their anytime result.
    """
    outcomes = list(getattr(error, "outcomes", None) or ())
    single = getattr(error, "outcome", None)
    if single is not None:
        outcomes.append(single)
    return outcomes


def _check_bounds(lower: float, upper: float, tolerance: float) -> None:
    # Written so NaN fails every test: a NaN bound or tolerance never closes
    # the bracket.  An infinite ``upper`` stays legal (a trivial bound).
    if not (lower >= 0 and upper >= 0):
        raise AlgorithmError(f"bounds must be non-negative, got ({lower}, {upper})")
    if not tolerance > 0:
        raise AlgorithmError(f"tolerance must be > 0, got {tolerance}")


class _RatioSearch:
    """Bracket state of one fixed-ratio search, advanced one min-cut at a time.

    :func:`maximize_fixed_ratio` drives one of these; the lockstep
    :func:`maximize_fixed_ratio_batch` drives one per ratio.  Each step is
    :meth:`prepare` (pick the guess, fetch/build/retune the search network,
    or build a narrowed one), one min-cut by the caller on :attr:`network`,
    then :meth:`record` (advance the bracket).  Only a ``nested`` search
    narrows; :attr:`decision` is always the search network.
    """

    __slots__ = (
        "ratio",
        "low",
        "high",
        "stalled",
        "best_s",
        "best_t",
        "best_density",
        "last_s",
        "last_t",
        "last_surrogate",
        "flow_calls",
        "networks_built",
        "networks_reused",
        "warm_starts_used",
        "cold_starts",
        "network_nodes",
        "network_arcs",
        "nested",
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
        nested: bool = False,
        start: StartingPair | None = None,
    ) -> None:
        self.ratio = ratio
        self.low = float(lower)
        self.high = max(float(upper), self.low)
        self.stalled = False
        self.best_s: list[int] = []
        self.best_t: list[int] = []
        self.best_density = 0.0
        self.last_s: list[int] = []
        self.last_t: list[int] = []
        self.last_surrogate = 0.0
        if start is not None:
            # A pair inside the sub-problem certifies val(ratio) >= its
            # surrogate: start there, capped like a Dinkelbach jump.
            self.last_s, self.last_t, self.last_surrogate = start
            self.low = min(max(self.low, self.last_surrogate), self.high)
        self.flow_calls = 0
        self.networks_built = 0
        self.networks_reused = 0
        self.warm_starts_used = 0
        self.cold_starts = 0
        self.network_nodes: list[int] = []
        self.network_arcs: list[int] = []
        self.nested = nested
        self.decision = None  # the search network (cache-served or built)
        self.network = None  # the network the next cut runs on
        self.scope: STSubproblem | None = None  # the sub-problem ``network`` covers
        self.narrow_to: tuple[list[int], list[int]] | None = None
        self.guess = 0.0

    def prepare(
        self,
        subproblem: STSubproblem,
        engine: FlowEngine,
        network_cache: NetworkCache | None,
        network_observer: NetworkObserver | None,
    ) -> bool:
        """Set the next guess on this search's network; returns whether the solve is warm."""
        # Dinkelbach: probe the certified lower bound.  After a float stall
        # the same guess would stall again, so bisect instead.
        guess = self.guess = (self.low + self.high) / 2.0 if self.stalled else self.low
        decision = self.decision
        solve_warm = True
        if decision is None:
            if network_cache is not None:
                decision = network_cache.get(subproblem, self.ratio)
            if decision is not None:
                engine.note_network_reused()
                self.networks_reused += 1
                # A cache-served network still carries the residual flow of
                # its last solve; a warm retune keeps it as the start state.
                decision.retune(self.ratio, guess, warm_start=True)
            else:
                decision = build_decision_network(subproblem, self.ratio, guess)
                engine.note_network_built()
                self.networks_built += 1
                solve_warm = False  # a fresh network holds no flow to reuse
                if network_cache is not None:
                    network_cache.put(subproblem, self.ratio, decision)
            self.decision = self.network = decision
            self.scope = subproblem
            if network_observer is not None:
                network_observer(decision.num_nodes, decision.num_arcs)
        elif self.narrow_to is not None:
            # Every later guess is at least the one that extracted the pair,
            # so the canonical cut lies inside it (nested minimal cuts).
            self.scope = self.scope.restricted_to(*self.narrow_to)
            self.narrow_to = None
            self.network = build_decision_network(self.scope, self.ratio, guess)
            solve_warm = False
        else:
            solve_warm = self.network is decision
            self.network.retune(self.ratio, guess, warm_start=solve_warm)
        self.network_nodes.append(decision.num_nodes)
        self.network_arcs.append(decision.num_arcs)
        return solve_warm

    def record(
        self,
        graph: DiGraph,
        cut_value: float,
        source_side: Callable[[], list[int]],
        solve_warm: bool,
    ) -> None:
        """Advance the bracket by the verdict of the min-cut at :attr:`guess`."""
        self.flow_calls += 1
        if solve_warm:
            self.warm_starts_used += 1
        else:
            self.cold_starts += 1
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
                    self.best_s, self.best_t = s_side, t_side
                if surrogate >= self.last_surrogate:
                    self.last_surrogate = surrogate
                    self.last_s, self.last_t = s_side, t_side
                if self.nested and (
                    len(s_side) < len(network.s_nodes) or len(t_side) < len(network.t_nodes)
                ):
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
            networks_reused=self.networks_reused,
            warm_starts_used=self.warm_starts_used,
            cold_starts=self.cold_starts,
            last_s=self.last_s,
            last_t=self.last_t,
            last_surrogate=self.last_surrogate,
            network_nodes=self.network_nodes,
            network_arcs=self.network_arcs,
        )


def maximize_fixed_ratio_batch(
    subproblem: STSubproblem,
    ratios: list[float],
    lower: float,
    upper: float,
    tolerance: float,
    network_observer: NetworkObserver | None = None,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
) -> list[FixedRatioOutcome]:
    """Run one :func:`maximize_fixed_ratio` per ratio, batched block-diagonally.

    All searches share ``subproblem`` and the initial ``(lower, upper)``
    bracket; each advances its own bracket.  The searches run in *lockstep*:
    every round retunes the still-unconverged members to their next guesses
    and solves all of them as one stacked min-cut through
    :meth:`FlowEngine.min_cut_batch
    <repro.flow.engine.FlowEngine.min_cut_batch>` — B small solves become
    one big solve with B× the vector width, which is what makes the
    vectorised backend pay off on networks that are each below the auto arc
    threshold.  Members whose bracket closes are masked out of later rounds.

    Per member, every step — cache lookup, build-or-retune, warm/cold
    accounting, cut-improvement test, pair extraction, Dinkelbach bracket
    update — is the sequential search's own step (:class:`_RatioSearch`),
    and the per-block cut is the same canonical (residual-reachable) cut a
    solo solve certifies, so the returned outcomes carry identical subgraphs
    and flow-call counts.  Members never narrow: they keep their stacked
    whole-sub-problem networks, so they continue warm where a sequential
    search solves narrowed networks cold, and only that warm/cold split
    differs.  One documented deviation: all members read the
    *same* entry ``lower`` (a sequential sweep could tighten later searches'
    lower bounds with earlier searches' incumbents); a looser lower bound
    never changes which pairs are optimal, only how many guesses a search
    spends, so densities are unaffected.

    Callers gate eligibility with :meth:`FlowEngine.supports_batching
    <repro.flow.engine.FlowEngine.supports_batching>`; this function assumes
    the gate passed (at least two distinct ratios, ``"auto"`` engine,
    vectorised backend available).
    """
    _check_bounds(lower, upper, tolerance)
    if len(ratios) < 2:
        raise AlgorithmError("a batched search needs at least two ratios")
    if len(set(ratios)) != len(ratios):
        raise AlgorithmError("batched ratios must be distinct (they share one cache)")
    if subproblem.is_empty:
        return [_RatioSearch(ratio, 0.0, 0.0).outcome() for ratio in ratios]

    if engine is None:
        engine = FlowEngine()
    graph = subproblem.graph
    members = [_RatioSearch(float(ratio), lower, upper) for ratio in ratios]
    batch = None

    try:
        while True:
            active = [
                index
                for index, member in enumerate(members)
                if member.high - member.low >= tolerance
            ]
            if not active:
                break
            warm_flags = [
                members[index].prepare(subproblem, engine, network_cache, network_observer)
                for index in active
            ]
            if batch is None:
                # All members were active in round one, so every decision
                # network exists by the time the stack is assembled.
                from repro.flow.batch import BatchedFlowNetwork

                batch = BatchedFlowNetwork(
                    [
                        (member.decision.network, member.decision.source, member.decision.sink)
                        for member in members
                    ]
                )

            results = engine.min_cut_batch(batch, active, warm_flags)
            for position, index in enumerate(active):
                cut_value, source_side, _block_pushes = results[position]
                members[index].record(
                    graph, cut_value, lambda side=source_side: side, warm_flags[position]
                )
    except DeadlineExceeded as error:
        # A cancelled round never updated any member's bracket, so every
        # member's (low, high) is still certified; hand all of them to the
        # driver as the anytime state of this lockstep sweep.
        error.outcomes = [member.outcome() for member in members]
        raise

    return [member.outcome() for member in members]


def maximize_fixed_ratio(
    subproblem: STSubproblem,
    ratio: float,
    lower: float,
    upper: float,
    tolerance: float,
    network_observer: NetworkObserver | None = None,
    engine: FlowEngine | None = None,
    network_cache: NetworkCache | None = None,
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
        for the network the search uses — freshly built *or* served by the
        network cache (feeds experiment E7).
    engine:
        The :class:`~repro.flow.engine.FlowEngine` executing the min-cuts
        (solver choice + run-wide instrumentation).  A private Dinic engine
        is created when omitted.
    network_cache:
        Optional :class:`~repro.core.network_cache.NetworkCache`.  When the
        cache holds a network for ``(subproblem, ratio)`` the search retunes
        it instead of building one (``networks_reused`` instead of
        ``networks_built``); a freshly built network is deposited for later
        searches — this is how repeated session queries share networks,
        including the residual flow each cached network keeps.
    start:
        Optional ``(S, T, surrogate)``: a pair whose vertices lie inside
        ``subproblem`` and its surrogate at ``ratio``, which certifies
        ``val(ratio) >= surrogate``.  The search starts with the pair as its
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
    search = _RatioSearch(ratio, lower, upper, nested=True, start=start)
    try:
        while search.high - search.low >= tolerance:
            solve_warm = search.prepare(subproblem, engine, network_cache, network_observer)
            network = search.network
            cut_value, solver = engine.min_cut(
                network.network, network.source, network.sink, warm_start=solve_warm
            )
            search.record(graph, cut_value, solver.min_cut_source_side, solve_warm)
    except DeadlineExceeded as error:
        # A cancelled min-cut never advanced the bracket, so (low, high)
        # are still certified bounds on val(ratio); attach them for the
        # driver's anytime result.
        error.outcome = search.outcome()
        raise

    return search.outcome()
