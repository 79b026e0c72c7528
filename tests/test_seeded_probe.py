"""The session's seeded fixed-ratio probe against the whole-graph search.

:meth:`DDSSession.fixed_ratio` starts at the seed bound ``l`` (the better
ratio-``a`` surrogate of the maximum-product core and of the whole candidate
pair) and searches only the containing [x, y]-core of ``l`` at ``a``.  The
reference is :func:`maximize_fixed_ratio` on the whole graph from the
caller's ``lower``, with the session's upper bound and tolerance.

* The brackets are bit-identical, or within the improving-cut slack of each
  other: a cut does not see a pair that beats its guess by less than that
  slack, and the two searches try different guesses.  Starting just below
  ``l``, for instance, the whole-graph search closes at its start while the
  probe closes at ``l``.  Both certify ``val(a)`` to within the slack.
* On graphs of at most 7 nodes ``val(a)`` comes from enumerating every
  pair: it lies in both brackets, and the search space holds every pair
  that attains it.
* ``best_density`` is the true density of ``(best_s, best_t)``, never above
  the optimum, and at least the seed pair's.
* A probe cut short by its deadline keeps a certified bracket.
"""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.session.session as session_module
from repro.core.bounds import fixed_ratio_space
from repro.core.bruteforce import brute_force_dds
from repro.core.density import directed_density_from_indices, surrogate_density
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.flow_network import CUT_RELATIVE_TOLERANCE
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, DeadlineExceeded
from repro.graph.generators import (
    complete_bipartite_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
    powerlaw_digraph,
    star_digraph,
)
from repro.runtime import Deadline
from repro.session import DDSSession
from test_core_exact import TIE_HEAVY_SHAPES, _in_and_out_star, disjoint_union
from test_deadline_chaos import SteppingClock

RATIOS = (1e-3, 0.5, 1.0, 2.0, 1e3)

#: Graphs of at most 7 nodes: ``val(a)`` is checked against enumeration.
#: The unions tie at several ratios, like the tie-heavy shapes below.
SMALL_GRAPHS = {
    "K12+K21": lambda: disjoint_union(
        complete_bipartite_digraph(1, 2), complete_bipartite_digraph(2, 1)
    ),
    "K12+K12": lambda: disjoint_union(
        complete_bipartite_digraph(1, 2), complete_bipartite_digraph(1, 2)
    ),
    "in-and-out-star-3": lambda: _in_and_out_star(3),
    "star-out-6": lambda: star_digraph(6, outward=True),
    "star-in-6": lambda: star_digraph(6, outward=False),
    "K25": lambda: complete_bipartite_digraph(2, 5),
    "K33": lambda: complete_bipartite_digraph(3, 3),
    "gnm-7-20": lambda: gnm_random_digraph(7, 20, seed=4),
}

#: Larger graphs, checked against the whole-graph search: the tie-heavy
#: shapes, planted blocks, where the core is far smaller than the graph, and
#: hub-heavy power-law graphs, where the whole pair can win the seed.
LARGE_GRAPHS = {
    **TIE_HEAVY_SHAPES,
    "planted-40": lambda: planted_dds_digraph(40, 1.5, 4, 6, p_dense=0.9, seed=3)[0],
    "planted-80": lambda: planted_dds_digraph(80, 2.0, 5, 5, p_dense=1.0, seed=11)[0],
    "powerlaw-60": lambda: powerlaw_digraph(60, 3.0, exponent=2.1, seed=5),
    "powerlaw-90": lambda: powerlaw_digraph(90, 2.0, exponent=2.3, seed=9),
    "star-out-40": lambda: star_digraph(40, outward=True),
    "gnm-30-120": lambda: gnm_random_digraph(30, 120, seed=8),
}


def _seed(session: DDSSession, ratio: float) -> tuple[float, float]:
    """``(l, density of the seed pair)``, from the documented definition."""
    core = session.max_xy_core()
    full = session.subproblem()
    graph = session.graph
    pairs = [
        (graph.count_edges_between(core.s_nodes, core.t_nodes), len(core.s_nodes), len(core.t_nodes)),
        (full.num_edges, len(full.s_candidates), len(full.t_candidates)),
    ]
    surrogates = [surrogate_density(e, s, t, ratio) for e, s, t in pairs]
    e, s, t = pairs[0] if surrogates[0] >= surrogates[1] else pairs[1]
    return max(surrogates), e / math.sqrt(s * t)


def _reference(graph, ratio: float, lower: float, session: DDSSession):
    return maximize_fixed_ratio(
        STSubproblem.from_graph(graph),
        ratio,
        lower=lower,
        upper=session.density_upper_bound(),
        tolerance=session.exactness_tolerance(),
    )


def _enumerated_maximisers(graph, ratio: float) -> tuple[float, list[tuple[set, set]]]:
    """``val(ratio)`` and every ``(S, T)`` attaining it, by enumeration."""
    n = graph.num_nodes
    subsets = [
        set(nodes) for size in range(1, n + 1) for nodes in combinations(range(n), size)
    ]
    scored = []
    for s_nodes in subsets:
        for t_nodes in subsets:
            edges = graph.count_edges_between(s_nodes, t_nodes)
            if edges:
                scored.append((surrogate_density(edges, len(s_nodes), len(t_nodes), ratio), s_nodes, t_nodes))
    value = max(score for score, _, _ in scored)
    return value, [(s, t) for score, s, t in scored if score >= value * (1 - 1e-12)]


def _lowers(seed: float, value: float) -> list[tuple[float, bool]]:
    """``(lower, above val(a))``: 0, just below ``l``, above ``l``, and above ``val(a)``."""
    return [(0.0, False), (seed * (1 - 1e-9), False), ((seed + value) / 2, False), (value + 1.0, True)]


def _check_probe(graph, ratio: float, lower: float, above: bool, value: float | None = None) -> None:
    """One seeded probe against the whole-graph search from ``lower``.

    ``value`` is ``val(ratio)`` when known by enumeration.  The whole-graph
    search itself only certifies it to within the improving-cut slack: a
    pair beating a guess by less than that is not seen.
    """
    session = DDSSession(graph)
    if lower > session.density_upper_bound():
        # Not a bracket: refused before a search starts.
        with pytest.raises(AlgorithmError, match="at most the upper bound"):
            session.fixed_ratio(ratio, lower=lower)
        assert session.cache_stats()["flow_calls"] == 0
        return
    probe = session.fixed_ratio(ratio, lower=lower)
    reference = _reference(graph, ratio, lower, session)
    slack = CUT_RELATIVE_TOLERANCE * max(2.0 * graph.num_edges, 1.0)
    if (probe.lower, probe.upper) != (reference.lower, reference.upper):
        # A cut cannot see a pair that beats its guess by less than the
        # slack, and the two searches try different guesses.
        assert abs(probe.lower - reference.lower) <= slack
        assert abs(probe.upper - reference.upper) <= slack
    if above:
        # A lower bound above val(a), within the upper one, closes at
        # itself, never at [0, 0].
        assert probe.lower == probe.upper == lower
    elif value is not None:
        certified = session.exactness_tolerance() + slack
        assert probe.lower - certified <= value <= probe.upper + certified
        assert reference.lower - certified <= value <= reference.upper + certified
    # best_density is the seed pair's or a denser extracted pair's.
    _, seed_density = _seed(session, ratio)
    assert probe.best_density == directed_density_from_indices(graph, probe.best_s, probe.best_t)
    assert probe.best_density >= seed_density
    optimum = (
        brute_force_dds(graph).density
        if graph.num_nodes <= 10
        else session.densest_subgraph("core-exact").density
    )
    assert probe.best_density <= optimum + 1e-9


def _check_enumerated(graph, ratio: float) -> None:
    """Enumerated ``val(a)`` and its maximisers against the space and the probes."""
    value, maximisers = _enumerated_maximisers(graph, ratio)
    session = DDSSession(graph)
    seed, _ = _seed(session, ratio)
    assert seed <= value * (1 + 1e-12)
    space = fixed_ratio_space(session.subproblem(), seed, ratio)
    s_space, t_space = set(space.s_candidates), set(space.t_candidates)
    for s_nodes, t_nodes in maximisers:
        assert s_nodes <= s_space and t_nodes <= t_space
    for lower, above in _lowers(seed, value):
        _check_probe(graph, ratio, lower, above, value)


def _check_against_search(graph, ratio: float) -> None:
    session = DDSSession(graph)
    seed, _ = _seed(session, ratio)
    for lower, above in _lowers(seed, _reference(graph, ratio, 0.0, session).upper):
        _check_probe(graph, ratio, lower, above)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", list(SMALL_GRAPHS))
def test_small_graphs_match_enumeration(name, ratio):
    _check_enumerated(SMALL_GRAPHS[name](), ratio)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", list(LARGE_GRAPHS))
def test_larger_graphs_match_the_whole_graph_search(name, ratio):
    _check_against_search(LARGE_GRAPHS[name](), ratio)


def test_power_law_inputs_are_seeded_by_the_whole_pair():
    """A hub-heavy input exercises the second seed pair."""
    session = DDSSession(LARGE_GRAPHS["powerlaw-60"]())
    core = session.max_xy_core()
    full = session.subproblem()
    core_edges = session.graph.count_edges_between(core.s_nodes, core.t_nodes)
    for ratio in (1e-3, 0.5, 1.0, 2.0):
        whole = surrogate_density(
            full.num_edges, len(full.s_candidates), len(full.t_candidates), ratio
        )
        assert whole > surrogate_density(core_edges, len(core.s_nodes), len(core.t_nodes), ratio)
        assert _seed(session, ratio)[0] == whole


def test_planted_probe_searches_a_smaller_space():
    graph = LARGE_GRAPHS["planted-80"]()
    session = DDSSession(graph)
    seed, _ = _seed(session, 1.0)
    space = fixed_ratio_space(session.subproblem(), seed, 1.0)
    assert len(space.s_candidates) < len(session.subproblem().s_candidates)
    probe = session.fixed_ratio(1.0)
    assert probe.flow_calls < _reference(graph, 1.0, 0.0, session).flow_calls


@given(
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(RATIOS),
)
@settings(max_examples=40, deadline=None)
def test_property_random_small_graphs(n, m, seed, ratio):
    graph = gnm_random_digraph(n, m, seed=seed)
    if graph.num_edges:
        _check_enumerated(graph, ratio)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(RATIOS))
@settings(max_examples=15, deadline=None)
def test_property_random_power_law_graphs(seed, ratio):
    graph = powerlaw_digraph(40, 2.5, exponent=2.2, seed=seed)
    if graph.num_edges:
        _check_against_search(graph, ratio)


# Each budget runs out inside the probe on these graphs (a stepping clock
# makes the expiry point deterministic), before or after its first cut.
@pytest.mark.parametrize("budget_readings", [2, 5, 8])
@pytest.mark.parametrize("name", ["planted-40", "powerlaw-60", "gnm-30-120"])
def test_deadline_partial_keeps_a_certified_bracket(name, budget_readings, monkeypatch):
    graph = LARGE_GRAPHS[name]()
    reference = DDSSession(graph).fixed_ratio(1.0)
    monkeypatch.setattr(
        session_module,
        "Deadline",
        lambda budget_ms: Deadline(float(budget_readings), clock=SteppingClock(step_ms=1.0)),
    )
    session = DDSSession(graph)
    seed, _ = _seed(session, 1.0)
    with pytest.raises(DeadlineExceeded) as caught:
        session.fixed_ratio(1.0, deadline_ms=1000.0)
    assert session.cache_stats()["anytime_returns"] == 1
    partial = caught.value.outcome
    assert seed <= partial.lower <= reference.lower
    assert reference.upper <= partial.upper
    assert partial.best_density == directed_density_from_indices(
        graph, partial.best_s, partial.best_t
    )
