"""The [x, y]-core walk against a verbatim copy of the x-sweep it replaced.

:func:`repro.core.xycore.max_xy_core` walks the core skyline from both ends
in ``O(sqrt(m))`` steps (see "Why the two-ended core walk is exact" in
``docs/architecture.md``).  The reference below is the previous engine,
which swept ``x`` from 1 up to the maximum out-degree with three peels per
step; it is copied unchanged except for the ``ref_`` prefix on each name,
so its docstrings are as they were (``ref_max_xy_core``'s "ties: larger
``x``" was wrong: the sweep keeps the smallest ``x``).  The walk must return the identical ``(x, y, S, T)`` — side lists included —
and the identical skyline, and must stay within its step bound.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core_exact import TIE_HEAVY_SHAPES, disjoint_union

from repro.core import xycore
from repro.core.bounds import containing_core
from repro.core.xycore import XYCore
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_bipartite_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
    powerlaw_digraph,
    rmat_digraph,
)
from repro.utils.validation import require_non_negative_int

# ----------------------------------------------------------------------
# reference: the x-sweep engine, verbatim
# ----------------------------------------------------------------------


def ref_xy_core(
    graph: DiGraph,
    x: int,
    y: int,
    s_candidates: Sequence[int] | None = None,
    t_candidates: Sequence[int] | None = None,
) -> XYCore:
    """Compute the maximal [x, y]-core (optionally inside candidate sets).

    The candidate restriction computes the maximal pair *within*
    ``s_candidates × t_candidates``; with the default (all vertices) this is
    the [x, y]-core of the whole graph.

    Correctness of the peeling: any valid pair ``(S', T')`` inside the
    candidate sets survives every removal (by induction — a vertex is removed
    only when its degree into the *current* superset is too small, hence its
    degree into the subset is too small as well), so the fixpoint contains
    every valid pair; and the fixpoint itself is valid because no violating
    vertex remains.  Therefore the fixpoint is the unique maximal pair.

    Complexity: ``O(n + m)`` with the queue-based implementation below.
    """
    require_non_negative_int(x, "x")
    require_non_negative_int(y, "y")
    n = graph.num_nodes
    out_adj = graph.out_adj
    in_adj = graph.in_adj

    if s_candidates is None:
        in_s = [True] * n
    else:
        in_s = [False] * n
        for u in s_candidates:
            in_s[u] = True
    if t_candidates is None:
        in_t = [True] * n
    else:
        in_t = [False] * n
        for v in t_candidates:
            in_t[v] = True

    dout = [0] * n
    din = [0] * n
    for u in range(n):
        if in_s[u]:
            dout[u] = sum(1 for v in out_adj[u] if in_t[v])
    for v in range(n):
        if in_t[v]:
            din[v] = sum(1 for u in in_adj[v] if in_s[u])

    # Queue entries are (side, node): side 0 = remove from S, side 1 = remove from T.
    queue: deque[tuple[int, int]] = deque()
    for u in range(n):
        if in_s[u] and dout[u] < x:
            queue.append((0, u))
    for v in range(n):
        if in_t[v] and din[v] < y:
            queue.append((1, v))

    while queue:
        side, node = queue.popleft()
        if side == 0:
            if not in_s[node]:
                continue
            in_s[node] = False
            for v in out_adj[node]:
                if in_t[v]:
                    din[v] -= 1
                    if din[v] < y:
                        queue.append((1, v))
        else:
            if not in_t[node]:
                continue
            in_t[node] = False
            for u in in_adj[node]:
                if in_s[u]:
                    dout[u] -= 1
                    if dout[u] < x:
                        queue.append((0, u))

    s_nodes = [u for u in range(n) if in_s[u]]
    t_nodes = [v for v in range(n) if in_t[v]]
    if not s_nodes or not t_nodes:
        # With x, y >= 1 an empty side forces the other side empty as well;
        # report a canonical empty core either way.
        if x > 0 or y > 0:
            return XYCore(x=x, y=y, s_nodes=[], t_nodes=[])
    return XYCore(x=x, y=y, s_nodes=s_nodes, t_nodes=t_nodes)


def ref_y_decomposition(graph: DiGraph, x: int, base: XYCore) -> int:
    """Largest ``y`` with a non-empty [x, y]-core inside ``base`` (one peel pass).

    This is the directed analogue of the classic core-decomposition argument:
    repeatedly remove the T vertex with the smallest in-degree (cascading the
    removal of S vertices whose out-degree drops below ``x``).  Whenever a T
    vertex is removed with in-degree ``d``, every remaining T vertex has
    in-degree at least ``d`` and every remaining S vertex out-degree at least
    ``x``, so the surviving pair is an [x, d]-core; the answer is the maximum
    ``d`` observed.  Total cost ``O((n + m) log n)`` — independent of how
    large the answer is.
    """
    out_adj = graph.out_adj
    in_adj = graph.in_adj
    in_s = {u: True for u in base.s_nodes}
    in_t = {v: True for v in base.t_nodes}
    dout = {
        u: sum(1 for v in out_adj[u] if v in in_t) for u in base.s_nodes
    }
    din = {
        v: sum(1 for u in in_adj[v] if u in in_s) for v in base.t_nodes
    }

    heap = [(degree, v) for v, degree in din.items()]
    heapq.heapify(heap)
    best_y = 0

    def remove_from_s(u: int) -> None:
        in_s[u] = False
        for v in out_adj[u]:
            if in_t.get(v, False):
                din[v] -= 1
                heapq.heappush(heap, (din[v], v))

    while heap:
        degree, v = heapq.heappop(heap)
        if not in_t.get(v, False) or degree != din[v]:
            continue
        # v is the minimum-in-degree T vertex: the current pair is an
        # [x, degree]-core (possibly with degree < previous maxima).
        best_y = max(best_y, degree)
        in_t[v] = False
        # Cascade: S vertices losing this target may fall below x.
        pending = []
        for u in in_adj[v]:
            if in_s.get(u, False):
                dout[u] -= 1
                if dout[u] < x:
                    pending.append(u)
        while pending:
            u = pending.pop()
            if in_s.get(u, False):
                remove_from_s(u)
    return best_y


def ref_max_y_for_x(
    graph: DiGraph,
    x: int,
    y_upper: int | None = None,
    s_candidates: Sequence[int] | None = None,
    t_candidates: Sequence[int] | None = None,
) -> tuple[int, XYCore | None]:
    """Largest ``y`` such that the [x, y]-core is non-empty (0 if none).

    The answer is found with a single decomposition pass over the [x, 1]-core
    (see :func:`ref_y_decomposition`); one further peel materialises the witness
    core.  ``y_upper`` (when known, e.g. from the previous ``x`` in a sweep,
    thanks to monotonicity) clips the reported value, and ``s_candidates`` /
    ``t_candidates`` may restrict the search to any superset of the sought
    core (e.g. the [x-1, 1]-core — valid by nestedness), which keeps the
    max-product sweep near-linear on large graphs.
    """
    require_non_negative_int(x, "x")
    if graph.num_edges == 0:
        return 0, None
    base = ref_xy_core(graph, x, 1, s_candidates=s_candidates, t_candidates=t_candidates)
    if base.is_empty:
        return 0, None

    best_y = ref_y_decomposition(graph, x, base)
    if best_y == 0:
        return 0, None
    if y_upper is not None:
        best_y = min(best_y, y_upper)
    best_core = ref_xy_core(graph, x, best_y, s_candidates=base.s_nodes, t_candidates=base.t_nodes)
    if best_core.is_empty:  # pragma: no cover - defensive, should be impossible
        return 0, None
    return best_y, best_core


def ref_xy_core_skyline(graph: DiGraph) -> list[tuple[int, int]]:
    """The skyline ``[(x, y_max(x))]`` for ``x = 1, 2, ...`` until the core vanishes.

    ``y_max`` is non-increasing in ``x`` (nestedness), which the property
    tests verify.  This is the directed analogue of a full core decomposition
    and is reported in the dataset-statistics experiment (E1).
    """
    skyline: list[tuple[int, int]] = []
    y_cap: int | None = None
    base_s: list[int] | None = None
    base_t: list[int] | None = None
    x = 1
    while True:
        # The [x, 1]-core is contained in the [x-1, 1]-core, so each step only
        # ever peels inside the previous step's base core.
        base = ref_xy_core(graph, x, 1, s_candidates=base_s, t_candidates=base_t)
        if base.is_empty:
            break
        base_s, base_t = base.s_nodes, base.t_nodes
        y_best, core = ref_max_y_for_x(
            graph, x, y_upper=y_cap, s_candidates=base_s, t_candidates=base_t
        )
        if y_best == 0 or core is None:
            break
        skyline.append((x, y_best))
        y_cap = y_best
        x += 1
    return skyline


def ref_max_xy_core(graph: DiGraph) -> XYCore:
    """The non-empty [x, y]-core maximising ``x * y`` (ties: larger ``x``).

    This is the object returned by the CoreApprox 2-approximation.  The sweep
    walks ``x`` upward, reusing three structural facts to stay near-linear in
    practice: the monotone cap ``y_max(x) <= y_max(x - 1)``, the containment
    of every step's cores in the previous [x-1, 1]-core (so peeling never
    touches the whole graph again after the first step), and the skip rule
    ``x * y_cap <= best_product`` which discards hopeless ``x`` values
    outright.
    """
    if graph.num_edges == 0:
        return XYCore(x=0, y=0, s_nodes=[], t_nodes=[])

    best_core = XYCore(x=0, y=0, s_nodes=[], t_nodes=[])
    best_product = 0
    y_cap: int | None = None
    base_s: list[int] | None = None
    base_t: list[int] | None = None
    max_x = max(graph.max_out_degree(), 1)

    for x in range(1, max_x + 1):
        base = ref_xy_core(graph, x, 1, s_candidates=base_s, t_candidates=base_t)
        if base.is_empty:
            break
        base_s, base_t = base.s_nodes, base.t_nodes
        if y_cap is not None and x * y_cap <= best_product:
            continue
        y_best, core = ref_max_y_for_x(
            graph, x, y_upper=y_cap, s_candidates=base_s, t_candidates=base_t
        )
        if y_best == 0 or core is None:
            break
        y_cap = y_best
        if x * y_best > best_product:
            best_product = x * y_best
            best_core = core
    return best_core


# ----------------------------------------------------------------------
# the walk against the reference
# ----------------------------------------------------------------------
def _key(core: XYCore) -> tuple[int, int, list[int], list[int]]:
    return core.x, core.y, core.s_nodes, core.t_nodes


@st.composite
def _graphs(draw) -> DiGraph:
    """ER, Chung–Lu power-law, planted-block and R-MAT digraphs."""
    family = draw(st.sampled_from(["er", "chung-lu", "planted", "rmat"]))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    if family == "er":
        n = draw(st.integers(min_value=2, max_value=40))
        return gnm_random_digraph(n, draw(st.integers(min_value=1, max_value=4 * n)), seed=seed)
    if family == "chung-lu":
        n = draw(st.integers(min_value=5, max_value=60))
        degree = draw(st.floats(min_value=1.0, max_value=6.0))
        return powerlaw_digraph(n, average_degree=degree, seed=seed)
    if family == "planted":
        graph, _, _ = planted_dds_digraph(
            draw(st.integers(min_value=5, max_value=40)),
            draw(st.floats(min_value=0.5, max_value=3.0)),
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.floats(min_value=0.5, max_value=1.0)),
            seed=seed,
        )
        return graph
    scale = draw(st.integers(min_value=3, max_value=6))
    return rmat_digraph(scale, edge_factor=draw(st.integers(min_value=1, max_value=8)), seed=seed)


def _assert_matches_reference(graph: DiGraph) -> None:
    assert _key(xycore.max_xy_core(graph)) == _key(ref_max_xy_core(graph))
    assert xycore.xy_core_skyline(graph) == ref_xy_core_skyline(graph)


class TestWalkMatchesSweep:
    @given(_graphs())
    @settings(max_examples=150, deadline=None)
    def test_property_max_core_and_skyline_match_reference(self, graph):
        _assert_matches_reference(graph)

    @pytest.mark.parametrize("shape", list(TIE_HEAVY_SHAPES))
    def test_tie_heavy_shapes_match_reference(self, shape):
        _assert_matches_reference(TIE_HEAVY_SHAPES[shape]())

    @given(_graphs(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_property_max_y_for_x_matches_reference(self, graph, x, y_upper):
        for cap in (None, y_upper):
            got_y, got_core = xycore.max_y_for_x(graph, x, y_upper=cap)
            want_y, want_core = ref_max_y_for_x(graph, x, y_upper=cap)
            assert got_y == want_y
            assert (got_core is None) == (want_core is None)
            if want_core is not None:
                assert _key(got_core) == _key(want_core)

    @given(
        _graphs(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_core_inside_any_superset_is_the_core(self, graph, x, y, rng):
        whole = xycore.xy_core(graph, x, y)
        assert _key(whole) == _key(ref_xy_core(graph, x, y))
        nodes = range(graph.num_nodes)
        # A shuffled superset with repeats: the peel must not depend on order.
        s_candidates = whole.s_nodes + [u for u in nodes if rng.random() < 0.5]
        t_candidates = whole.t_nodes + [v for v in nodes if rng.random() < 0.5]
        rng.shuffle(s_candidates)
        rng.shuffle(t_candidates)
        restricted = xycore.xy_core(graph, x, y, s_candidates, t_candidates)
        assert _key(restricted) == _key(whole)


class TestTieRule:
    def test_equal_products_keep_the_smaller_x(self):
        """K(2,3) + K(3,2): the [3, 2]- and [2, 3]-cores both have product 6."""
        graph = disjoint_union(complete_bipartite_digraph(2, 3), complete_bipartite_digraph(3, 2))
        core = xycore.max_xy_core(graph)
        assert (core.x, core.y) == (2, 3)
        assert _key(core) == _key(ref_max_xy_core(graph))
        # The winner is the block whose three sources each reach both targets.
        assert sorted(graph.labels_of(core.s_nodes)) == [(1, f"s{i}") for i in range(3)]
        assert sorted(graph.labels_of(core.t_nodes)) == [(1, "t0"), (1, "t1")]


class TestStepBound:
    def test_hub_heavy_graph_takes_at_most_two_root_m_steps(self, monkeypatch):
        """K(1,400) + K(400,1) + K(7,7): the sweep peels once per x up to 400."""
        graph = disjoint_union(
            complete_bipartite_digraph(1, 400),
            complete_bipartite_digraph(400, 1),
            complete_bipartite_digraph(7, 7),
        )
        assert graph.num_edges == 849 and graph.max_out_degree() == 400
        steps = []
        step = xycore._core_step

        def counted(*args, **kwargs):
            steps.append(args[1:3])
            return step(*args, **kwargs)

        monkeypatch.setattr(xycore, "_core_step", counted)
        core = xycore.max_xy_core(graph)
        assert len(steps) <= 2 * math.isqrt(graph.num_edges) + 2
        # The [1, 400]- and [400, 1]-cores tie at 400; the smaller x wins.
        assert (core.x, core.y) == (1, 400)
        assert graph.labels_of(core.t_nodes) == [(1, "t0")]
        assert len(core.s_nodes) == 400


class TestContainingCoreInsideParent:
    @given(
        _graphs(),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_child_core_peeled_inside_parent_is_identical(
        self, graph, density, gain, lo, width, left, right
    ):
        """A sub-interval with a higher incumbent: its core is nested in the parent's."""
        hi = lo * width
        child_lo = lo * (hi / lo) ** (left * 0.5)
        child_hi = hi / (hi / child_lo) ** (right * 0.5)
        parent = containing_core(graph, density, lo, hi)
        child = containing_core(graph, density + gain, child_lo, child_hi)
        assert _key(containing_core(graph, density + gain, child_lo, child_hi, within=parent)) == _key(
            child
        )
