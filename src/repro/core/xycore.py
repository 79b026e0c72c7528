"""[x, y]-cores: the directed analogue of k-cores introduced by the paper.

Definition
----------
Given a directed graph ``G`` and integers ``x, y >= 0``, the **[x, y]-core**
is the largest pair ``(S, T)`` of vertex subsets such that

* every ``u ∈ S`` has at least ``x`` out-neighbours inside ``T``, and
* every ``v ∈ T`` has at least ``y`` in-neighbours inside ``S``.

"Largest" is well defined because valid pairs are closed under component-wise
union, so a unique maximal pair exists; it is computed by iteratively peeling
violating vertices, and the peeling fixpoint is independent of removal order.

Key properties (proved in the docstrings of the corresponding functions and
checked by the property tests):

* **nestedness** — if ``x' >= x`` and ``y' >= y`` then the [x', y']-core is
  contained (side-wise) in the [x, y]-core;
* **density lower bound** — a non-empty [x, y]-core has directed density at
  least ``sqrt(x * y)``;
* **containment** — the densest pair ``(S*, T*)`` is contained in the
  ``[ceil(rho_opt / (2*sqrt(a*))), ceil(rho_opt * sqrt(a*) / 2)]``-core where
  ``a* = |S*|/|T*|`` (see :mod:`repro.core.bounds`).

These facts power both the 2-approximation (:mod:`repro.core.approx_core`)
and the core-based exact algorithm (:mod:`repro.core.exact_core`).

Engine
------
Every function here runs one step, :func:`_core_step`: peel a candidate
pair (:class:`_Pair`) in place to its [x, y]-core and, on request,
decompose that core.  A pair built with ``in_adj`` for ``out_adj`` runs on
the reversed graph without building it.  :func:`max_xy_core` walks the
core skyline from both ends in at most ``2*floor(sqrt(m)) + 2`` steps (see
"Why the two-ended core walk is exact" in ``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from repro.graph.digraph import DiGraph
from repro.utils.validation import require_non_negative_int


@dataclass(frozen=True)
class XYCore:
    """A concrete [x, y]-core: the orders ``(x, y)`` and the two vertex sides."""

    x: int
    y: int
    s_nodes: list[int]
    t_nodes: list[int]

    @property
    def is_empty(self) -> bool:
        """True when either side is empty (the core does not exist)."""
        return not self.s_nodes or not self.t_nodes

    @property
    def product(self) -> int:
        """``x * y`` — the quantity the 2-approximation maximises."""
        return self.x * self.y


def _flags(n: int, nodes: Sequence[int] | None) -> tuple[bytearray, Sequence[int]]:
    """Membership flags for ``nodes`` (``None``: all ``n`` vertices) and the node sequence."""
    if nodes is None:
        return bytearray(b"\x01") * n, range(n)
    flags = bytearray(n)
    for node in nodes:
        flags[node] = 1
    return flags, nodes


def _degrees(adj: Sequence[Sequence[int]], nodes: Sequence[int], inside: bytearray) -> list[int]:
    """``len(adj[u] ∩ inside)`` for every ``u`` in ``nodes`` (other entries 0)."""
    degrees = [0] * len(adj)
    member = inside.__getitem__
    for u in nodes:
        degrees[u] = sum(map(member, adj[u]))
    return degrees


class _Pair:
    """A candidate pair ``(S, T)`` with membership flags and in-pair degrees.

    ``dout[u]`` counts the out-neighbours of ``u ∈ S`` inside ``T`` and
    ``din[v]`` the in-neighbours of ``v ∈ T`` inside ``S``; the entries of
    other vertices are never read.  Built with ``in_adj`` as ``out_adj`` and
    vice versa, the pair lives on the reversed graph, whose [x, y]-cores are
    the [y, x]-cores with the sides swapped.  Side lists are replaced, never
    mutated, so a caller may keep them.
    """

    __slots__ = ("out_adj", "in_adj", "s_nodes", "t_nodes", "in_s", "in_t", "dout", "din")

    def __init__(
        self,
        out_adj: Sequence[Sequence[int]],
        in_adj: Sequence[Sequence[int]],
        s_nodes: Sequence[int] | None = None,
        t_nodes: Sequence[int] | None = None,
    ) -> None:
        n = len(out_adj)
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.in_s, self.s_nodes = _flags(n, s_nodes)
        self.in_t, self.t_nodes = _flags(n, t_nodes)
        # Degrees are counted over the candidates only; an unrestricted side
        # lets the other side take plain adjacency lengths.
        if t_nodes is None:
            self.dout = list(map(len, out_adj))
        else:
            self.dout = _degrees(out_adj, self.s_nodes, self.in_t)
        if s_nodes is None:
            self.din = list(map(len, in_adj))
        else:
            self.din = _degrees(in_adj, self.t_nodes, self.in_s)

    def copy(self) -> _Pair:
        """An independent pair with the same sides (the side lists are shared)."""
        clone = _Pair.__new__(_Pair)
        clone.out_adj, clone.in_adj = self.out_adj, self.in_adj
        clone.s_nodes, clone.t_nodes = self.s_nodes, self.t_nodes
        clone.in_s, clone.in_t = self.in_s[:], self.in_t[:]
        clone.dout, clone.din = self.dout[:], self.din[:]
        return clone

    def peel(self, x: int, y: int) -> None:
        """Shrink the pair in place to its [x, y]-core.

        Any valid pair inside the current one survives every removal (a
        vertex is removed only when its degree into the *current* superset
        is too small, hence its degree into the valid pair is too small as
        well), so the fixpoint contains every valid pair; and it is itself
        valid because no violating vertex remains.  A vertex is queued once:
        when it starts below its threshold, or when a removal drops its
        degree to exactly one below.
        """
        out_adj, in_adj = self.out_adj, self.in_adj
        in_s, in_t, dout, din = self.in_s, self.in_t, self.dout, self.din
        x_below = x - 1
        y_below = y - 1
        drop_s = [u for u in self.s_nodes if dout[u] < x]
        drop_t = [v for v in self.t_nodes if din[v] < y]
        while drop_s or drop_t:
            while drop_s:
                u = drop_s.pop()
                in_s[u] = 0
                for v in out_adj[u]:
                    if in_t[v]:
                        d = din[v] - 1
                        din[v] = d
                        if d == y_below:
                            drop_t.append(v)
            while drop_t:
                v = drop_t.pop()
                in_t[v] = 0
                for u in in_adj[v]:
                    if in_s[u]:
                        d = dout[u] - 1
                        dout[u] = d
                        if d == x_below:
                            drop_s.append(u)
        self.s_nodes = list(compress(self.s_nodes, map(in_s.__getitem__, self.s_nodes)))
        self.t_nodes = list(compress(self.t_nodes, map(in_t.__getitem__, self.t_nodes)))

    def decompose(self, x: int, y: int) -> int:
        """Largest ``y' >= y`` whose [x, y']-core is non-empty; consumes the pair.

        The pair must be a non-empty [x, y]-core.  This is the directed form
        of Batagelj–Zaversnik's bucket queue: for levels ``k = y, y + 1, ...``
        remove every T vertex whose in-degree is at most ``k``, cascading the
        removal of S vertices whose out-degree falls below ``x``; a degree
        that falls to ``k`` or below during level ``k`` is removed at level
        ``k``.  At the start of each level every remaining T vertex has
        in-degree at least ``k`` and every remaining S vertex out-degree at
        least ``x``, so while T is non-empty the remaining pair is an
        [x, k]-core, and the pair left after level ``k`` is the
        [x, k + 1]-core.  The answer is the level of the last removal.
        """
        out_adj, in_adj = self.out_adj, self.in_adj
        in_s, in_t, dout, din = self.in_s, self.in_t, self.dout, self.din
        x_below = x - 1
        buckets: list[list[int]] = [[] for _ in range(max(map(din.__getitem__, self.t_nodes)) + 1)]
        for v in self.t_nodes:
            buckets[din[v]].append(v)
        y_max = y
        for level in range(y, len(buckets)):
            queue = buckets[level]
            while queue:
                v = queue.pop()
                if not in_t[v]:
                    continue  # a stale entry: removed at a lower level
                in_t[v] = 0
                y_max = level
                for u in in_adj[v]:
                    if in_s[u]:
                        d = dout[u] - 1
                        dout[u] = d
                        if d == x_below:
                            in_s[u] = 0
                            for w in out_adj[u]:
                                if in_t[w]:
                                    d = din[w] - 1
                                    din[w] = d
                                    # A degree already at or below the level
                                    # has its entry in this level's queue.
                                    if d == level:
                                        queue.append(w)
                                    elif d > level:
                                        buckets[d].append(w)
        return y_max


def _core_step(pair: _Pair, x: int, y: int, decompose: bool = False) -> int:
    """One step: peel ``pair`` in place to its [x, y]-core, optionally decompose.

    With ``decompose`` and a non-empty core, returns the largest ``y' >= y``
    whose [x, y']-core inside the pair is non-empty (worked out on a copy, so
    the pair keeps the [x, y]-core); otherwise returns 0.  Every function in
    this module runs on this step.  Its Python-level work is proportional to
    the pair's vertices and edges; the flag and degree arrays are copied
    whole, in C.
    """
    pair.peel(x, y)
    if not decompose or not pair.s_nodes or not pair.t_nodes:
        return 0
    return pair.copy().decompose(x, y)


def _candidate_list(candidates: Sequence[int] | None) -> list[int] | None:
    """Candidates as a sorted duplicate-free list, so cores come out ascending."""
    return None if candidates is None else sorted(set(candidates))


def xy_core(
    graph: DiGraph,
    x: int,
    y: int,
    s_candidates: Sequence[int] | None = None,
    t_candidates: Sequence[int] | None = None,
) -> XYCore:
    """Compute the maximal [x, y]-core (optionally inside candidate sets).

    The candidate restriction computes the maximal pair *within*
    ``s_candidates × t_candidates``; with the default (all vertices) this is
    the [x, y]-core of the whole graph.  By nestedness, any candidate pair
    containing the core (for instance an [x', y']-core with ``x' <= x`` and
    ``y' <= y``) yields the same core as the whole graph.  Both sides come
    out in ascending index order.

    Complexity: linear in the candidate sets and their edges (``O(n + m)``
    unrestricted); see :class:`_Pair`.
    """
    require_non_negative_int(x, "x")
    require_non_negative_int(y, "y")
    pair = _Pair(
        graph.out_adj, graph.in_adj, _candidate_list(s_candidates), _candidate_list(t_candidates)
    )
    _core_step(pair, x, y)
    if (not pair.s_nodes or not pair.t_nodes) and (x > 0 or y > 0):
        # With x, y >= 1 an empty side forces the other side empty as well;
        # report a canonical empty core either way.
        return XYCore(x=x, y=y, s_nodes=[], t_nodes=[])
    return XYCore(x=x, y=y, s_nodes=pair.s_nodes, t_nodes=pair.t_nodes)


def max_y_for_x(
    graph: DiGraph,
    x: int,
    y_upper: int | None = None,
    s_candidates: Sequence[int] | None = None,
    t_candidates: Sequence[int] | None = None,
) -> tuple[int, XYCore | None]:
    """Largest ``y`` such that the [x, y]-core is non-empty (0 if none).

    One step peels to the [x, 1]-core and decomposes it; one further peel
    inside that core materialises the witness.  ``y_upper`` clips the
    reported value, and ``s_candidates`` / ``t_candidates`` may restrict the
    search to any superset of the sought core (e.g. the [x-1, 1]-core —
    valid by nestedness).
    """
    require_non_negative_int(x, "x")
    if graph.num_edges == 0:
        return 0, None
    pair = _Pair(
        graph.out_adj, graph.in_adj, _candidate_list(s_candidates), _candidate_list(t_candidates)
    )
    best_y = _core_step(pair, x, 1, decompose=True)
    if best_y == 0:
        return 0, None
    if y_upper is not None:
        best_y = min(best_y, y_upper)
    _core_step(pair, x, best_y)
    return best_y, XYCore(x=x, y=best_y, s_nodes=pair.s_nodes, t_nodes=pair.t_nodes)


def xy_core_skyline(graph: DiGraph) -> list[tuple[int, int]]:
    """The skyline ``[(x, y_max(x))]`` for ``x = 1, 2, ...`` until the core vanishes.

    ``y_max`` is non-increasing in ``x`` (nestedness), which the property
    tests verify.  This is the directed analogue of a full core decomposition
    and is reported in the dataset-statistics experiment (E1).  Each ``x``
    is one step that peels the previous [x-1, 1]-core, in place, to the
    [x, 1]-core and decomposes it.
    """
    skyline: list[tuple[int, int]] = []
    pair = _Pair(graph.out_adj, graph.in_adj)
    x = 1
    while True:
        y_best = _core_step(pair, x, 1, decompose=True)
        if y_best == 0:
            return skyline
        skyline.append((x, y_best))
        x += 1


def max_xy_core(graph: DiGraph) -> XYCore:
    """The non-empty [x, y]-core maximising ``x * y`` (ties: smallest ``x``).

    This is the object returned by the CoreApprox 2-approximation.  Let
    ``Y(x)`` be the largest ``y`` with a non-empty [x, y]-core; it is
    non-increasing, and the maximum product lies on the skyline
    ``(x, Y(x))``, which the walk covers from both ends:

    * ``x = 1, 2, ...`` peels the [x-1, x-1]-core to the [x, x]-core until
      it is empty at ``x_last + 1``, visiting every skyline point with
      ``x <= Y(x)`` (each has ``x^2 <= x * Y(x) <= m``);
    * every other skyline point has ``Y(x) <= x_last``, so ``y = 1 ..
      x_last`` on the swapped adjacency finds the largest ``x`` with a
      non-empty [x, y]-core inside the [x_last + 1, y]-cores.

    A step whose monotone cap cannot reach the best product only peels.  A
    maximal pair from the second walk is itself a skyline point, so keeping
    the smallest ``x`` among both walks' maximal products is the rule of a
    sweep over every ``x`` that keeps its first maximum;
    :mod:`repro.incremental.maintain` relies on it.
    """
    if graph.num_edges == 0:
        return XYCore(x=0, y=0, s_nodes=[], t_nodes=[])
    out_adj, in_adj = graph.out_adj, graph.in_adj
    best_x = best_y = best_product = 0
    best_s: list[int] = []
    best_t: list[int] = []
    # Y(x) <= y_cap and X(y) <= x_cap: both are non-increasing, and no order
    # exceeds n.
    y_cap = x_cap = graph.num_nodes

    pair = _Pair(out_adj, in_adj)
    x = 1
    while True:
        y_max = _core_step(pair, x, x, decompose=x * y_cap >= best_product)
        if not pair.t_nodes:
            break
        if y_max:
            y_cap = y_max
            if x * y_max > best_product:
                best_x, best_y, best_product = x, y_max, x * y_max
                best_s, best_t = pair.s_nodes, pair.t_nodes
        x += 1

    x_floor = x
    pair = _Pair(in_adj, out_adj)  # S and T swap roles
    for y in range(1, x_floor):
        x_max = _core_step(pair, y, x_floor, decompose=y * x_cap >= best_product)
        if not pair.t_nodes:
            break
        if x_max:
            x_cap = x_max
            if x_max * y > best_product or (x_max * y == best_product and x_max < best_x):
                best_x, best_y, best_product = x_max, y, x_max * y
                best_s, best_t = pair.t_nodes, pair.s_nodes

    witness = _Pair(out_adj, in_adj, best_s, best_t)
    _core_step(witness, best_x, best_y)
    return XYCore(x=best_x, y=best_y, s_nodes=witness.s_nodes, t_nodes=witness.t_nodes)
