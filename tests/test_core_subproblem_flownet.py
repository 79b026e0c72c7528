"""Unit tests for STSubproblem, the decision network, and the fixed-ratio solver."""

from __future__ import annotations

import math
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fixed_ratio, flow_network
from repro.core.bruteforce import brute_force_dds
from repro.core.density import (
    exactness_tolerance,
    global_density_upper_bound,
    surrogate_density,
)
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.flow_network import (
    DecisionNetwork,
    build_decision_network,
    decision_cut_is_improving,
)
from repro.core.network_cache import NetworkCache
from repro.core.ratio import all_candidate_ratios
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError
from repro.flow.dinic import DinicSolver
from repro.flow.engine import FlowEngine
from repro.flow.registry import available_flow_solvers
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_bipartite_digraph, gnm_random_digraph


class TestSTSubproblem:
    def test_from_graph_defaults_to_all_nodes(self):
        g = gnm_random_digraph(10, 25, seed=1)
        sub = STSubproblem.from_graph(g)
        assert sub.num_edges == g.num_edges
        assert not sub.is_empty

    def test_useless_vertices_dropped(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        g.add_node(99)  # isolated
        sub = STSubproblem.from_graph(g)
        # Node 2 has no outgoing edge -> not an S candidate; node 0 has no
        # incoming edge -> not a T candidate; 99 appears on neither side.
        assert g.index_of(99) not in sub.s_candidates
        assert g.index_of(99) not in sub.t_candidates
        assert g.index_of(2) not in sub.s_candidates
        assert g.index_of(0) not in sub.t_candidates

    def test_candidate_restriction(self):
        g = complete_bipartite_digraph(3, 3)
        s_idx = g.indices_of(["s0", "s1"])
        t_idx = g.indices_of(["t0"])
        sub = STSubproblem.from_graph(g, s_idx, t_idx)
        assert sub.num_edges == 2
        assert set(sub.s_candidates) == set(s_idx)
        assert set(sub.t_candidates) == set(t_idx)

    def test_degrees(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        sub = STSubproblem.from_graph(g)
        dout = sub.out_degrees()
        din = sub.in_degrees()
        assert dout[g.index_of(0)] == 2
        assert din[g.index_of(2)] == 2

    def test_restricted_to(self):
        g = gnm_random_digraph(10, 30, seed=2)
        sub = STSubproblem.from_graph(g)
        smaller = sub.restricted_to(sub.s_candidates[:3], sub.t_candidates[:3])
        assert smaller.num_edges <= sub.num_edges
        for u, v in smaller.edges:
            assert u in sub.s_candidates[:3]
            assert v in sub.t_candidates[:3]

    def test_empty_subproblem(self):
        g = DiGraph.from_edges([(0, 1)])
        sub = STSubproblem.from_graph(g, s_candidates=[g.index_of(1)], t_candidates=[g.index_of(0)])
        assert sub.is_empty
        assert sub.size_signature() == (0, 0, 0)


class TestDecisionNetwork:
    def test_structure(self):
        g = complete_bipartite_digraph(2, 2)
        sub = STSubproblem.from_graph(g)
        decision = build_decision_network(sub, ratio=1.0, guess=1.0)
        # source + sink + 2 S copies + 2 T copies
        assert decision.num_nodes == 6
        assert decision.total_capacity == pytest.approx(2.0 * sub.num_edges)

    def test_invalid_parameters(self):
        g = complete_bipartite_digraph(2, 2)
        sub = STSubproblem.from_graph(g)
        with pytest.raises(AlgorithmError):
            build_decision_network(sub, ratio=0.0, guess=1.0)
        with pytest.raises(AlgorithmError):
            build_decision_network(sub, ratio=1.0, guess=-1.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_non_finite_ratio_is_rejected(self, ratio):
        """A NaN or infinite ratio can never end a search: refuse it up front."""
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 2))
        with pytest.raises(AlgorithmError, match="ratio"):
            build_decision_network(sub, ratio=ratio, guess=1.0)
        decision = build_decision_network(sub, ratio=1.0, guess=1.0)
        with pytest.raises(AlgorithmError, match="ratio"):
            decision.retune(ratio, 1.0)
        with pytest.raises(AlgorithmError, match="ratio"):
            decision.retune(ratio, 1.0, warm_start=True)

    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_non_finite_guess_is_rejected(self, guess):
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 2))
        with pytest.raises(AlgorithmError, match="guess"):
            build_decision_network(sub, ratio=1.0, guess=guess)
        decision = build_decision_network(sub, ratio=1.0, guess=1.0)
        with pytest.raises(AlgorithmError, match="guess"):
            decision.retune(1.0, guess, warm_start=True)

    def test_decision_above_and_below_optimum(self):
        """mincut < 2m iff the guess is below the surrogate optimum."""
        g = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(g)
        optimum = math.sqrt(6)  # density of the full bipartite block, ratio 2/3
        ratio = 2.0 / 3.0
        for guess, expect_improving in [(optimum * 0.8, True), (optimum * 1.2, False)]:
            decision = build_decision_network(sub, ratio, guess)
            solver = DinicSolver(decision.network, decision.source, decision.sink)
            cut = solver.max_flow()
            assert decision_cut_is_improving(cut, decision.total_capacity) is expect_improving

    def test_extracted_pair_beats_guess(self):
        g = gnm_random_digraph(9, 30, seed=4)
        sub = STSubproblem.from_graph(g)
        best = brute_force_dds(g)
        ratio = best.s_size / best.t_size
        guess = best.density * 0.9
        decision = build_decision_network(sub, ratio, guess)
        solver = DinicSolver(decision.network, decision.source, decision.sink)
        cut = solver.max_flow()
        assert decision_cut_is_improving(cut, decision.total_capacity)
        s_side, t_side = decision.extract_pair(solver.min_cut_source_side())
        assert s_side and t_side
        density = g.count_edges_between(s_side, t_side) / math.sqrt(len(s_side) * len(t_side))
        assert density > guess


class TestMaximizeFixedRatio:
    def test_exact_value_at_optimal_ratio(self):
        g = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(g)
        outcome = maximize_fixed_ratio(
            sub, ratio=2.0 / 3.0, lower=0.0, upper=5.0, tolerance=1e-9
        )
        assert outcome.found_pair
        assert outcome.best_density == pytest.approx(math.sqrt(6))
        assert outcome.lower <= math.sqrt(6) + 1e-9
        assert math.sqrt(6) <= outcome.upper + 1e-9

    def test_upper_bound_certificate(self):
        """The returned bracket always contains the surrogate optimum."""
        g = gnm_random_digraph(9, 30, seed=5)
        sub = STSubproblem.from_graph(g)
        best = brute_force_dds(g)
        ratio = best.s_size / best.t_size
        outcome = maximize_fixed_ratio(
            sub, ratio, lower=0.0, upper=global_density_upper_bound(g), tolerance=1e-9
        )
        # At the optimal ratio the surrogate optimum equals rho_opt.
        assert outcome.lower <= best.density + 1e-9
        assert outcome.upper >= best.density - 1e-9
        assert outcome.best_density == pytest.approx(best.density)

    def test_lower_bound_above_value_extracts_nothing(self):
        g = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(g)
        outcome = maximize_fixed_ratio(
            sub, ratio=2.0 / 3.0, lower=10.0, upper=12.0, tolerance=1e-6
        )
        assert not outcome.found_pair
        # The first guess is the lower bound itself, and one failed cut there
        # settles the search.
        assert outcome.flow_calls == 1
        assert outcome.lower == outcome.upper == 10.0

    def test_empty_subproblem_shortcut(self):
        g = DiGraph.from_edges([(0, 1)])
        sub = STSubproblem.from_graph(g, s_candidates=[g.index_of(1)], t_candidates=[])
        outcome = maximize_fixed_ratio(sub, 1.0, lower=0.0, upper=1.0, tolerance=1e-6)
        assert outcome.flow_calls == 0
        assert not outcome.found_pair

    def test_invalid_parameters(self):
        g = complete_bipartite_digraph(2, 2)
        sub = STSubproblem.from_graph(g)
        with pytest.raises(AlgorithmError):
            maximize_fixed_ratio(sub, 1.0, lower=-1.0, upper=1.0, tolerance=1e-6)
        with pytest.raises(AlgorithmError):
            maximize_fixed_ratio(sub, 1.0, lower=0.0, upper=1.0, tolerance=0.0)

    @pytest.mark.parametrize(
        "lower, upper, tolerance",
        [(math.nan, 1.0, 1e-6), (0.0, math.nan, 1e-6), (0.0, 1.0, math.nan)],
    )
    def test_nan_bounds_are_rejected(self, lower, upper, tolerance):
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 2))
        with pytest.raises(AlgorithmError):
            maximize_fixed_ratio(sub, 1.0, lower=lower, upper=upper, tolerance=tolerance)

    def test_infinite_upper_bound_is_legal(self):
        """Divide and conquer passes ``inf`` when the core bound is trivial."""
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 3))
        outcome = maximize_fixed_ratio(sub, 2.0 / 3.0, lower=0.0, upper=math.inf, tolerance=1e-6)
        assert outcome.lower == pytest.approx(math.sqrt(6))

    def test_network_observer_called(self):
        g = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(g)
        sizes: list[tuple[int, int]] = []
        maximize_fixed_ratio(
            sub,
            1.0,
            0.0,
            5.0,
            tolerance=1e-3,
            network_observer=lambda nodes, arcs: sizes.append((nodes, arcs)),
        )
        assert sizes
        assert all(nodes == 7 for nodes, _ in sizes)

    def test_maximiser_tracking(self):
        g = complete_bipartite_digraph(3, 3)
        sub = STSubproblem.from_graph(g)
        outcome = maximize_fixed_ratio(sub, 1.0, 0.0, 5.0, tolerance=1e-9)
        assert outcome.found_maximiser
        # At ratio 1 the whole 3x3 block is the surrogate maximiser.
        assert len(outcome.last_s) == 3
        assert len(outcome.last_t) == 3
        assert outcome.last_surrogate == pytest.approx(3.0)


def _max_edges_by_size(graph: DiGraph) -> dict[tuple[int, int], int]:
    """Most edges any ``(S, T)`` with ``|S| = s`` and ``|T| = t`` spans (brute force)."""
    n = graph.num_nodes
    out_masks = [0] * n
    for u, v in graph.edge_indices():
        out_masks[u] |= 1 << v
    best: dict[tuple[int, int], int] = {}
    subsets = [combo for size in range(1, n + 1) for combo in combinations(range(n), size)]
    for s_side in subsets:
        for t_side in subsets:
            t_mask = sum(1 << v for v in t_side)
            edges = sum(bin(out_masks[u] & t_mask).count("1") for u in s_side)
            key = (len(s_side), len(t_side))
            best[key] = max(best.get(key, 0), edges)
    return best


def _surrogate_maximum(best_edges: dict[tuple[int, int], int], ratio: float) -> float:
    """``val(ratio)`` from the size-indexed edge maxima."""
    return max(
        surrogate_density(edges, s_size, t_size, ratio)
        for (s_size, t_size), edges in best_edges.items()
    )


@st.composite
def _small_digraphs(draw) -> DiGraph:
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return DiGraph.from_edges(edges)


class _GuessRecorder:
    """Search events in order: each build/retune guess and each extracted surrogate.

    ``builds`` counts the networks built, narrowed ones included.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, float]] = []
        self.builds = 0

    def patches(self, surrogate=None):
        real_build = fixed_ratio.build_decision_network
        real_retune = DecisionNetwork.retune
        real_surrogate = fixed_ratio.surrogate_density

        def build(subproblem, ratio, guess):
            self.events.append(("guess", guess))
            self.builds += 1
            return real_build(subproblem, ratio, guess)

        def retune(network, ratio, guess, warm_start=False):
            self.events.append(("guess", guess))
            return real_retune(network, ratio, guess, warm_start=warm_start)

        def extracted(edges, s_size, t_size, ratio):
            if surrogate is None:
                value = real_surrogate(edges, s_size, t_size, ratio)
            else:
                value = surrogate(self.last_guess())
            self.events.append(("surrogate", value))
            return value

        return (
            mock.patch.object(fixed_ratio, "build_decision_network", build),
            mock.patch.object(DecisionNetwork, "retune", retune),
            mock.patch.object(fixed_ratio, "surrogate_density", extracted),
        )

    def last_guess(self) -> float:
        return next(value for kind, value in reversed(self.events) if kind == "guess")

    def guesses(self) -> list[float]:
        return [value for kind, value in self.events if kind == "guess"]

    def first_stall(self) -> int | None:
        """Index (into :meth:`guesses`) of the first guess whose success stalled."""
        position = -1
        for kind, value in self.events:
            if kind == "guess":
                position += 1
                guess = value
            elif value <= guess:
                return position
        return None


class TestDinkelbachSearch:
    """The guess rule: probe the certified lower bound, bisect only after a stall."""

    @settings(max_examples=100, deadline=None)
    @given(graph=_small_digraphs(), fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_brackets_close_on_the_surrogate_maximum(self, graph, fraction):
        sub = STSubproblem.from_graph(graph)
        tolerance = exactness_tolerance(graph)
        upper = global_density_upper_bound(graph)
        best_edges = _max_edges_by_size(graph)
        for ratio in all_candidate_ratios(graph.num_nodes):
            value = _surrogate_maximum(best_edges, float(ratio))
            lower = min(fraction * value, value)
            recorder = _GuessRecorder()
            build, retune, surrogate = recorder.patches()
            with build, retune, surrogate:
                outcome = maximize_fixed_ratio(
                    sub, float(ratio), lower=lower, upper=upper, tolerance=tolerance
                )
            assert outcome.upper - outcome.lower < tolerance
            assert outcome.lower <= value + 1e-9
            assert value <= outcome.upper + 1e-9
            guesses = recorder.guesses()
            assert len(guesses) == outcome.flow_calls
            if upper - lower < tolerance:
                assert outcome.flow_calls == 0
                continue
            assert guesses[0] == lower
            if lower >= value:
                assert outcome.flow_calls == 1
            stall = recorder.first_stall()
            rising = guesses if stall is None else guesses[: stall + 1]
            assert rising == sorted(rising), (ratio, guesses)

    @settings(max_examples=100, deadline=None)
    @given(graph=_small_digraphs(), data=st.data())
    def test_seeded_search_keeps_the_unseeded_bracket(self, graph, data):
        sub = STSubproblem.from_graph(graph)
        tolerance = exactness_tolerance(graph)
        upper = global_density_upper_bound(graph)
        n = graph.num_nodes
        ratios = [float(ratio) for ratio in all_candidate_ratios(n)]
        extracted: list[tuple[list[int], list[int]]] = []
        real_extract = DecisionNetwork.extract_pair

        def extract(network, source_side):
            pair = real_extract(network, source_side)
            if pair[0] and pair[1]:
                extracted.append(pair)
            return pair

        with mock.patch.object(DecisionNetwork, "extract_pair", extract):
            for ratio in ratios:
                maximize_fixed_ratio(sub, ratio, lower=0.0, upper=upper, tolerance=tolerance)
        s_seed, t_seed = data.draw(st.sampled_from(extracted))
        ratio = data.draw(st.floats(min_value=1.0 / n, max_value=float(n)))
        edges = graph.count_edges_between(s_seed, t_seed)
        seed_surrogate = surrogate_density(edges, len(s_seed), len(t_seed), ratio)

        unseeded = maximize_fixed_ratio(sub, ratio, lower=0.0, upper=upper, tolerance=tolerance)
        seeded = maximize_fixed_ratio(
            sub,
            ratio,
            lower=0.0,
            upper=upper,
            tolerance=tolerance,
            start=(s_seed, t_seed, seed_surrogate),
        )
        assert seeded.upper == pytest.approx(unseeded.upper, abs=tolerance)
        assert seeded.last_surrogate >= seeded.upper - tolerance
        assert seeded.flow_calls <= unseeded.flow_calls
        if seeded.flow_calls == 1 and not seeded.found_pair:
            # The first cut failed: the seed is an exact surrogate maximiser.
            assert (seeded.last_s, seeded.last_t) == (s_seed, t_seed)
            assert seeded.upper == min(seed_surrogate, upper)

    def test_seed_at_the_maximum_settles_in_one_cut(self):
        # K_{2,3} at its optimal ratio: the whole block is the surrogate
        # maximiser, so a search seeded with it only confirms val(a).
        graph = complete_bipartite_digraph(2, 3)
        sub = STSubproblem.from_graph(graph)
        block = (sub.s_candidates, sub.t_candidates, math.sqrt(6))
        outcome = maximize_fixed_ratio(
            sub, 2.0 / 3.0, lower=0.0, upper=10.0, tolerance=1e-6, start=block
        )
        assert outcome.flow_calls == 1
        assert not outcome.found_pair
        assert outcome.lower == outcome.upper == math.sqrt(6)
        assert (outcome.last_s, outcome.last_t, outcome.last_surrogate) == block

    def test_lower_below_value_settles_in_two_cuts(self):
        # At the optimal ratio of K_{2,3} the cut at g = 0 extracts the whole
        # block, whose surrogate is val(a); the cut there closes the bracket.
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 3))
        outcome = maximize_fixed_ratio(sub, 2.0 / 3.0, lower=0.0, upper=10.0, tolerance=1e-6)
        assert outcome.flow_calls == 2
        assert outcome.lower == outcome.upper == pytest.approx(math.sqrt(6))

    def test_upper_below_value_caps_lower(self):
        # A conditional upper bound below val(a): the jump is capped so the
        # outcome keeps lower <= upper.
        sub = STSubproblem.from_graph(complete_bipartite_digraph(2, 3))
        outcome = maximize_fixed_ratio(sub, 2.0 / 3.0, lower=0.0, upper=1.0, tolerance=1e-6)
        assert outcome.lower == outcome.upper == 1.0
        assert outcome.last_surrogate == pytest.approx(math.sqrt(6))
        assert outcome.flow_calls == 1

    def test_float_stall_falls_back_to_bisection(self):
        graph = gnm_random_digraph(7, 20, seed=11)
        sub = STSubproblem.from_graph(graph)
        best = brute_force_dds(graph)
        ratio = best.s_size / best.t_size
        upper = global_density_upper_bound(graph)
        tolerance = 1e-6
        recorder = _GuessRecorder()
        # Every extracted pair claims a surrogate equal to the guess: no
        # success ever raises the lower bound past the guess.
        build, retune, surrogate = recorder.patches(surrogate=lambda guess: guess)
        with build, retune, surrogate:
            outcome = maximize_fixed_ratio(sub, ratio, lower=0.0, upper=upper, tolerance=tolerance)
        assert outcome.upper - outcome.lower < tolerance
        # Successes only ever certify guesses below val(a) = rho_opt here,
        # failures only guesses at or above it.
        assert outcome.lower <= best.density + 1e-9 <= outcome.upper + 2e-9
        guesses = recorder.guesses()
        assert recorder.first_stall() == 0
        assert guesses[1] == pytest.approx(upper / 2.0)
        assert len(guesses) == outcome.flow_calls
        assert outcome.flow_calls <= 2 + math.ceil(math.log2(upper / tolerance))


def _canonical_cut(decision, solver_name, slack_capacity=None):
    """Cold min-cut verdict and canonical extracted pair of ``decision``."""
    cut, solver = FlowEngine(solver_name).min_cut(
        decision.network, decision.source, decision.sink
    )
    improving = decision_cut_is_improving(cut, decision.total_capacity, slack_capacity)
    return improving, decision.extract_pair(solver.min_cut_source_side())


def _reference_search(sub, ratio, lower, upper, tolerance):
    """The Dinkelbach guess rule, solving every guess on the whole-sub-problem network."""
    graph = sub.graph
    low, high = float(lower), max(float(upper), float(lower))
    stalled = False
    best = ([], [], 0.0)
    last = ([], [], 0.0)
    flow_calls = 0
    while high - low >= tolerance:
        guess = (low + high) / 2.0 if stalled else low
        decision = build_decision_network(sub, ratio, guess)
        solver = DinicSolver(decision.network, decision.source, decision.sink)
        cut = solver.max_flow()
        flow_calls += 1
        if decision_cut_is_improving(cut, decision.total_capacity):
            s_side, t_side = decision.extract_pair(solver.min_cut_source_side())
            if s_side and t_side:
                edges = graph.count_edges_between(s_side, t_side)
                surrogate = surrogate_density(edges, len(s_side), len(t_side), ratio)
                density = edges / math.sqrt(len(s_side) * len(t_side))
                if density > best[2]:
                    best = (s_side, t_side, density)
                if surrogate >= last[2]:
                    last = (s_side, t_side, surrogate)
                stalled = surrogate <= guess
                low = min(max(guess, surrogate), high)
                continue
        high = guess
    return low, high, best, last, flow_calls


def _outcome_summary(outcome):
    return (
        outcome.lower,
        outcome.upper,
        (outcome.best_s, outcome.best_t, outcome.best_density),
        (outcome.last_s, outcome.last_t, outcome.last_surrogate),
        outcome.flow_calls,
    )


class TestNestedSearch:
    """Guesses after a narrowing cut run on the pair that cut extracted."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=_small_digraphs(),
        fraction=st.floats(min_value=0.0, max_value=0.999),
        stretch=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_later_cuts_nest_inside_the_extracted_pair(self, graph, fraction, stretch):
        sub = STSubproblem.from_graph(graph)
        upper = global_density_upper_bound(graph)
        best_edges = _max_edges_by_size(graph)
        for ratio in map(float, all_candidate_ratios(graph.num_nodes)):
            guess = fraction * _surrogate_maximum(best_edges, ratio)
            for solver_name in available_flow_solvers():
                full = build_decision_network(sub, ratio, guess)
                improving, (s_side, t_side) = _canonical_cut(full, solver_name)
                if not improving:
                    continue
                narrowed = sub.restricted_to(s_side, t_side)
                edges = graph.count_edges_between(s_side, t_side)
                surrogate = surrogate_density(edges, len(s_side), len(t_side), ratio)
                for later in (guess, max(guess, surrogate), guess + stretch * (upper - guess)):
                    whole = build_decision_network(sub, ratio, later)
                    verdict, pair = _canonical_cut(whole, solver_name)
                    assert set(pair[0]) <= set(s_side), (ratio, guess, later)
                    assert set(pair[1]) <= set(t_side), (ratio, guess, later)
                    narrow = build_decision_network(narrowed, ratio, later)
                    assert _canonical_cut(narrow, solver_name, whole.total_capacity) == (
                        verdict,
                        pair,
                    ), (solver_name, ratio, guess, later)

    @settings(max_examples=60, deadline=None)
    @given(graph=_small_digraphs(), fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_the_whole_network_reference(self, graph, fraction):
        sub = STSubproblem.from_graph(graph)
        tolerance = exactness_tolerance(graph)
        upper = global_density_upper_bound(graph)
        for ratio in map(float, all_candidate_ratios(graph.num_nodes)):
            lower = fraction * upper
            outcome = maximize_fixed_ratio(sub, ratio, lower, upper, tolerance)
            assert _outcome_summary(outcome) == _reference_search(
                sub, ratio, lower, upper, tolerance
            ), ratio

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_whole_network_reference_on_larger_graphs(self, seed):
        graph = gnm_random_digraph(14, 45, seed=seed)
        sub = STSubproblem.from_graph(graph)
        tolerance = exactness_tolerance(graph)
        upper = global_density_upper_bound(graph)
        for ratio in (0.5, 1.0, 2.0):
            outcome = maximize_fixed_ratio(sub, ratio, 0.0, upper, tolerance)
            assert _outcome_summary(outcome) == _reference_search(
                sub, ratio, 0.0, upper, tolerance
            ), ratio

    def test_cache_holds_the_search_network_and_narrowed_solves_are_cold(self):
        graph = gnm_random_digraph(10, 30, seed=0)
        sub = STSubproblem.from_graph(graph)
        cache = NetworkCache(8)
        engine = FlowEngine()
        recorder = _GuessRecorder()
        build, retune, surrogate = recorder.patches()
        with build, retune, surrogate:
            outcome = maximize_fixed_ratio(
                sub,
                1.0,
                lower=0.0,
                upper=global_density_upper_bound(graph),
                tolerance=1e-9,
                engine=engine,
                network_cache=cache,
            )
        assert outcome.flow_calls >= 3
        assert len(cache) == 1
        assert (outcome.networks_built, outcome.networks_reused) == (1, 0)
        assert engine.networks_built == 1
        narrowed = recorder.builds - 1
        assert narrowed >= 1
        # The built network's first solve and every narrowed solve are
        # cold; the retunes of the search network in between are warm.
        assert outcome.cold_starts == 1 + narrowed
        assert outcome.warm_starts_used == outcome.flow_calls - outcome.cold_starts
        # Sizes stay those of the search network, one entry per cut.
        size = 2 + len(sub.s_candidates) + len(sub.t_candidates)
        assert outcome.network_nodes == [size] * outcome.flow_calls


def _decision_state(decision):
    """Every buffer and bookkeeping field a build produces."""
    tails, targets, caps, base = decision.network.arc_state_views()
    return (
        decision.network.num_nodes,
        tails.tolist(),
        targets.tolist(),
        caps.tolist(),
        base.tolist(),
        decision.s_penalty_arcs,
        decision.t_penalty_arcs,
        decision.total_capacity,
        decision.s_nodes,
        decision.t_nodes,
    )


class TestBulkBuild:
    """The numpy build is bit-identical to the scalar ``add_edge`` loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=_small_digraphs(),
        keep=st.integers(min_value=0, max_value=5),
        ratio=st.sampled_from([0.25, 2.0 / 3.0, 1.0, 3.0]),
        guess=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_matches_the_scalar_loop(self, graph, keep, ratio, guess):
        sub = STSubproblem.from_graph(graph)
        u, v = sub.edges[0]
        subproblems = [
            sub,
            sub.restricted_to(sub.s_candidates[:keep], sub.t_candidates[keep:]),
            sub.restricted_to([u], [v]),
        ]
        for subproblem in subproblems:
            bulk = build_decision_network(subproblem, ratio, guess)
            with mock.patch.object(flow_network, "_np", None):
                scalar = build_decision_network(subproblem, ratio, guess)
            assert _decision_state(bulk) == _decision_state(scalar)

    def test_single_edge_network_layout(self):
        graph = DiGraph.from_edges([(0, 1)])
        decision = build_decision_network(STSubproblem.from_graph(graph), 1.0, 0.5)
        state = _decision_state(decision)
        assert state[0] == 4
        assert state[1] == [0, 2, 2, 1, 3, 1, 2, 3]
        assert state[2] == [2, 0, 1, 2, 1, 3, 3, 2]
        assert state[3] == [2.0, 0.0, 0.5, 0.0, 0.5, 0.0, 2.0, 0.0]
        assert state[5:8] == ([2], [4], 2.0)
