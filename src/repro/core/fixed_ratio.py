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
penalty-arc capacities depend on the guess).  The network lives only as
long as its search, but its topology — node layout, arcs, CSR index and
the solver's lists — belongs to the sub-problem
(:attr:`~repro.core.subproblem.STSubproblem.decision_topology`): the
sub-problem's first search builds it and every later search on the same
sub-problem allocates only its own capacities over it.
Once a cut at guess ``g`` extracts a pair
``(S_g, T_g)`` strictly smaller than the candidates the network still
holds, the next guess narrows the network in place
(:meth:`~repro.core.flow_network.DecisionNetwork.narrow`): every arc
outside the pair gets capacity zero, as if the network had been built from
the sub-problem restricted to the pair.  The penalty
arcs are the only guess-dependent arcs and only grow with the guess, so the
minimal (residual-reachable) cuts are nested (Gallo, Grigoriadis & Tarjan,
"A fast parametric maximum flow algorithm and applications", *SIAM J.
Comput.* 18(1), 1989): for ``g <= g'`` the canonical cut at ``g'`` lies
inside the one at ``g``.  Every later guess is at least ``g`` — guesses
rise, and a post-stall midpoint lies in ``[low, high]`` with ``low >= g`` —
so the narrowed network gives the same verdict and the same pair, hence the
same guesses and ``flow_calls``.  Its cut is judged against the whole
sub-problem's slack, so narrowing cannot move the tie threshold either.

``networks_built`` counts one network per search; ``network_nodes`` /
``network_arcs`` record the search network's size for every cut.  Every
solve is cold: the network it runs on is freshly built, retuned or
narrowed, and holds zero flow or the greedy start flow
of :meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow`,
which the solver continues from.  Min-cuts run through a caller-supplied
:class:`~repro.flow.engine.FlowEngine`, which runs Dinic's algorithm and
accumulates ``flow_calls`` / ``networks_built`` /
``arcs_pushed`` across the whole algorithm run (see the stats glossary in
:mod:`repro.flow.engine`).

A search keeps track of two extracted pairs: the one with the best *true*
density (for the incumbent) and the one extracted at the highest successful
guess (the surrogate near-maximiser the ratio-skipping lemma needs).

One loop in :func:`maximize_fixed_ratio` holds the whole iteration: it
picks the guess, builds, narrows or retunes the one network, routes the
start flow, runs the cut and advances the bracket.  A min-cut cancelled by a
deadline leaves the bracket as it was, and the
:class:`~repro.exceptions.DeadlineExceeded` carries the search so far as
``error.outcome``.
"""

from __future__ import annotations

import math

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

#: ``(S, T, surrogate, edges)``: a pair inside the sub-problem, its surrogate at
#: the ratio and the number of graph edges from ``S`` to ``T``.
StartingPair = tuple[list[int], list[int], float, int]


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
    as its first decision network would.  A caller's bracket must also be
    one: a ``lower`` that is infinite or above ``upper`` is refused, where
    a search would return it as a closed bracket without a single cut.
    """
    _check_bounds(lower, upper, tolerance)
    if not (math.isfinite(lower) and lower <= upper):
        raise AlgorithmError(
            f"lower bound must be finite and at most the upper bound, got ({lower}, {upper})"
        )
    check_decision_parameters(ratio, 0.0)


def maximize_fixed_ratio(
    subproblem: STSubproblem,
    ratio: float,
    lower: float,
    upper: float,
    tolerance: float,
    *,
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
    engine:
        The :class:`~repro.flow.engine.FlowEngine` executing the min-cuts
        (run-wide instrumentation).  A private engine is created when
        omitted.
    start:
        Optional ``(S, T, surrogate, edges)``: a pair whose vertices lie
        inside ``subproblem``, its surrogate at ``ratio`` and its edge
        count; the pair certifies ``val(ratio) >= surrogate``.  The search
        starts with the pair as its surrogate maximiser and ``lower`` raised
        to the surrogate (capped at ``upper``), so no guess below it is
        solved; if the first cut fails, the pair is an exact maximiser.

    Returns
    -------
    FixedRatioOutcome
        Final bracket (``lower <= upper`` always), best-true-density pair,
        surrogate near-maximiser, and instrumentation.  ``outcome.upper`` is
        a certified upper bound on ``val(ratio)`` whenever ``upper`` was, and
        ``outcome.lower`` a certified lower bound whenever ``lower`` was.
        ``network_nodes`` / ``network_arcs`` hold the search network's size
        once per cut (experiment E7 reads them).

    Raises
    ------
    DeadlineExceeded
        When the engine's deadline cancels a min-cut.  The error's
        ``outcome`` is the search so far: a cancelled cut never advances the
        bracket, so its ``lower`` / ``upper`` are certified like a completed
        search's, and the exact drivers absorb it into their incumbent
        before assembling their anytime result.
    """
    _check_bounds(lower, upper, tolerance)
    if subproblem.is_empty:
        return FixedRatioOutcome(ratio, 0.0, 0.0, [], [], 0.0, 0)
    if engine is None:
        engine = FlowEngine()
    graph = subproblem.graph
    low = float(lower)
    high = max(float(upper), low)
    best_s: list[int] = []
    best_t: list[int] = []
    best_density, best_edges = 0.0, 0
    last_s: list[int] = []
    last_t: list[int] = []
    last_surrogate, last_edges = 0.0, 0
    if start is not None:
        # A pair inside the sub-problem certifies val(ratio) >= its
        # surrogate: start there, capped like a Dinkelbach jump.
        last_s, last_t, last_surrogate, last_edges = start
        low = min(max(low, last_surrogate), high)
    flow_calls = networks_built = 0
    network_nodes: list[int] = []
    network_arcs: list[int] = []

    def outcome() -> FixedRatioOutcome:
        return FixedRatioOutcome(
            ratio=ratio,
            lower=low,
            upper=high,
            best_s=best_s,
            best_t=best_t,
            best_density=best_density,
            flow_calls=flow_calls,
            networks_built=networks_built,
            best_edges=best_edges,
            last_s=last_s,
            last_t=last_t,
            last_surrogate=last_surrogate,
            last_edges=last_edges,
            network_nodes=network_nodes,
            network_arcs=network_arcs,
        )

    network = None  # the search network, built by the first guess
    narrow_to: list[int] | None = None  # source side of the last narrowing cut
    stalled = False
    try:
        while high - low >= tolerance:
            # Dinkelbach: probe the certified lower bound.  After a float
            # stall the same guess would stall again, so bisect instead.
            guess = (low + high) / 2.0 if stalled else low
            if network is None:
                network = build_decision_network(subproblem, ratio, guess)
                engine.note_network_built()
                networks_built += 1
            elif narrow_to is not None:
                # Every later guess is at least the one that extracted the
                # pair, so the canonical cut lies inside it (nested minimal cuts).
                network.narrow(narrow_to, ratio, guess)
                narrow_to = None
            else:
                network.retune(ratio, guess)
            network.route_start_flow()
            network_nodes.append(network.num_nodes)
            network_arcs.append(network.num_arcs)
            cut_value, solver = engine.min_cut(network.network, network.source, network.sink)
            flow_calls += 1
            if decision_cut_is_improving(
                cut_value, network.total_capacity, network.topology.total_capacity
            ):
                source_side = solver.min_cut_source_side()
                s_side, t_side = network.extract_pair(source_side)
                if s_side and t_side:
                    edges = graph.count_edges_between(s_side, t_side)
                    surrogate = surrogate_density(edges, len(s_side), len(t_side), ratio)
                    density = edges / math.sqrt(len(s_side) * len(t_side))
                    if density > best_density:
                        best_density = density
                        best_s, best_t, best_edges = s_side, t_side, edges
                    if surrogate >= last_surrogate:
                        last_surrogate = surrogate
                        last_s, last_t, last_edges = s_side, t_side, edges
                    s_count, t_count = network.candidate_counts
                    if len(s_side) < s_count or len(t_side) < t_count:
                        narrow_to = source_side
                    # Dinkelbach jump: the pair certifies val(ratio) >=
                    # surrogate, which becomes the next guess.  A conditional
                    # upper bound may sit below val(ratio); capping keeps
                    # lower <= upper.
                    stalled = surrogate <= guess
                    low = min(max(guess, surrogate), high)
                    continue
            # No pair beats the guess, so val(ratio) <= guess.
            high = guess
    except DeadlineExceeded as error:
        error.outcome = outcome()
        raise
    return outcome()


def maximize_fixed_ratio_batch(
    subproblem: STSubproblem,
    ratios: list[float],
    lower: float,
    upper: float,
    tolerance: float,
    *,
    engine: FlowEngine | None = None,
) -> list[FixedRatioOutcome]:
    """:func:`maximize_fixed_ratio` once per ratio, from the same bracket.

    Nothing in ``src/`` calls this.  It stays only because perfbench's
    tracer (``perfbench/ddsbench/layers.py``) patches it by name and fails
    on a missing one; it goes once that tracer accepts a missing name
    (ROADMAP direction 2).
    """
    return [
        maximize_fixed_ratio(subproblem, ratio, lower, upper, tolerance, engine=engine)
        for ratio in ratios
    ]
