"""Reduction from the fixed-ratio density decision to minimum s-t cut.

For a sub-problem with edge set ``E'`` (``m' = |E'|``), a ratio ``a > 0`` and
a guess ``g >= 0`` we build the following network:

* a source ``s`` and a sink ``t``;
* an *out-copy* node ``o_u`` for every S-candidate ``u`` and an *in-copy*
  node ``i_v`` for every T-candidate ``v``;
* arcs ``s -> o_u`` with capacity ``2 * dout'(u)`` (out-degree inside ``E'``);
* arcs ``o_u -> i_v`` with capacity ``2`` for every edge ``(u, v) ∈ E'``;
* arcs ``o_u -> t`` with capacity ``g / sqrt(a)``;
* arcs ``i_v -> t`` with capacity ``g * sqrt(a)``.

**Correctness.**  Identify a cut with indicator vectors ``x`` (``x_u = 1``
iff ``o_u`` is on the source side) and ``y`` (likewise for ``i_v``).  The cut
capacity is

    sum_u 2*dout'(u)*(1 - x_u)  +  sum_{(u,v)} 2*x_u*(1 - y_v)
        +  (g/sqrt(a)) * sum_u x_u  +  (g*sqrt(a)) * sum_v y_v.

Using the per-edge identity ``(1 - x_u) + x_u*(1 - y_v) = 1 - x_u*y_v`` the
first two terms collapse to ``2m' - 2|E'(S,T)|`` where ``S = {u : x_u = 1}``
and ``T = {v : y_v = 1}``, so

    cut(x, y) = 2m' - [ 2|E'(S,T)| - g*(|S|/sqrt(a) + sqrt(a)*|T|) ].

Hence ``mincut = 2m' - max_{S,T} F_a,g(S,T)`` with
``F = 2|E'| - 2g*D_a`` and ``D_a`` the surrogate denominator.  Because
``F(∅, ∅) = 0`` we always have ``mincut <= 2m'``, and ``mincut < 2m'`` holds
iff some pair has surrogate density ``|E'(S,T)| / D_a(S,T) > g``.  The source
side of a minimum cut then exhibits such a pair.  Since
``D_a >= sqrt(|S||T|)`` (AM–GM), any exhibited pair also has *true* density
``> g`` — for every ratio ``a`` — while for ``a = |S*|/|T*|`` the test is
tight, which is what makes the all-ratios sweep exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError
from repro.flow.network import FlowNetwork

try:  # optional acceleration: the build and retune's penalty sweep vectorise under numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None

#: Slack used when comparing a min-cut value against ``2m'``; the comparison
#: involves sums of ``O(m)`` floats so the tolerance scales with ``m``.
CUT_RELATIVE_TOLERANCE = 1e-9

#: Networks with fewer stored arcs than this keep zero flow in
#: :meth:`DecisionNetwork.route_start_flow`.  Routing costs ~45 µs of fixed
#: numpy overhead per call.  On the cold decision networks of perfbench's
#: ``exact`` workload (seed 501, routing plus ``dinic``, best of 3 per
#: network, 2-CPU VM) it saved 20–50 µs per solve from 256 stored arcs up,
#: and cost ~50 µs per solve on the 727 networks of 192–255 arcs.
START_FLOW_MIN_ARCS = 256


@dataclass
class DecisionNetwork:
    """A built decision network plus the bookkeeping to read the answer back.

    Only the ``o_u -> t`` and ``i_v -> t`` penalty arcs depend on the probe
    parameters ``(ratio, guess)``; their arc indices are recorded so that
    :meth:`retune` can update the capacities in place and reset the residual
    state instead of rebuilding the whole network for every
    guess (O(|S| + |T| + m') instead of a full Python-object rebuild).
    """

    network: FlowNetwork
    source: int
    sink: int
    s_nodes: list[int]  # graph indices, aligned with network nodes 2..2+|S|
    t_nodes: list[int]  # graph indices, aligned with network nodes 2+|S|..
    total_capacity: float  # the 2m' reference value
    s_penalty_arcs: list[int] = field(default_factory=list)  # o_u -> t arcs
    t_penalty_arcs: list[int] = field(default_factory=list)  # i_v -> t arcs

    @property
    def num_nodes(self) -> int:
        """Number of network nodes (for instrumentation)."""
        return self.network.num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of stored network arcs (for instrumentation)."""
        return self.network.num_arcs

    def extract_pair(self, source_side: list[int]) -> tuple[list[int], list[int]]:
        """Map the source side of a cut back to graph-index sets ``(S, T)``."""
        s_offset = 2
        t_offset = 2 + len(self.s_nodes)
        side = set(source_side)
        s_selected = [
            self.s_nodes[position]
            for position in range(len(self.s_nodes))
            if (s_offset + position) in side
        ]
        t_selected = [
            self.t_nodes[position]
            for position in range(len(self.t_nodes))
            if (t_offset + position) in side
        ]
        return s_selected, t_selected

    def retune(self, ratio: float, guess: float) -> None:
        """Re-parameterise the network for a new ``(ratio, guess)`` in place.

        Updates the guess-dependent penalty-arc capacities, leaving the
        topology (and hence the CSR index) untouched, and resets the
        residual state: the network is then observationally identical to
        one freshly built by :func:`build_decision_network` with the same
        parameters — same node layout, same arc order, bit-identical
        capacities, zero flow.  A fixed-ratio search routes
        :meth:`route_start_flow` after every retune, as after every build.

        With numpy the penalty sweep is a bulk assignment to the base
        capacities on the network's zero-copy views (``reset_flow`` then
        copies them over every residual, as it does after the scalar
        loop's per-arc writes); without numpy the per-arc loop runs.
        """
        check_decision_parameters(ratio, guess)
        root = math.sqrt(ratio)
        s_penalty = guess / root
        t_penalty = guess * root
        network = self.network
        if _np is not None:
            _, _, _, _, _, base = network.numpy_csr()
            arcs = self._penalty_arc_index()
            split = len(self.s_penalty_arcs)
            base[arcs[:split]] = s_penalty
            base[arcs[split:]] = t_penalty
        else:
            for arc_index in self.s_penalty_arcs:
                network.set_capacity(arc_index, s_penalty)
            for arc_index in self.t_penalty_arcs:
                network.set_capacity(arc_index, t_penalty)
        network.reset_flow()

    def route_start_flow(self) -> None:
        """Route a greedy feasible flow along the network's 2- and 3-arc paths.

        The network must hold zero flow in :func:`build_decision_network`'s
        arc layout: freshly built, or retuned.
        Each ``s -> o_u -> t`` path first carries
        ``min(2 dout'(u), g / sqrt(a))``.  Each ``o_u`` then offers what is
        left of its source arc to its edge arcs in arc order, up to 2 per
        edge, and each ``i_v`` accepts offers from its in-edges in arc order
        up to its sink arc's ``g * sqrt(a)``; only accepted offers are
        routed.  No residual falls below zero and every interior node
        conserves flow up to float rounding, so a solver continues from the
        result like from any feasible flow, usually with most of the
        maximum already in place.  Solvers do not count these updates in
        ``arcs_pushed``.

        A no-op without numpy and on networks with fewer than
        :data:`START_FLOW_MIN_ARCS` stored arcs.
        """
        network = self.network
        if _np is None or network.num_arcs < START_FLOW_MIN_ARCS:
            return
        starts, order, _, caps, tails, base = network.numpy_csr()
        s_count = len(self.s_nodes)
        t_first, t_stop = 2 + s_count, 2 + s_count + len(self.t_nodes)
        t_arcs_start = 4 * s_count
        edge_start = t_arcs_start + 2 * len(self.t_nodes)
        # The CSR lists each node's arcs in arc order, so the edge arcs come
        # grouped by tail (o_u's forward arcs) and by head (i_v's residual
        # twins) with no sort, whatever order the sub-problem's edges had.
        out_arcs = order[starts[2] : starts[t_first]]
        by_tail = out_arcs[out_arcs >= edge_start]
        in_arcs = order[starts[t_first] : starts[t_stop]]
        by_head = in_arcs[(in_arcs & 1) == 1] ^ 1
        # Besides its edges, o_u holds its source arc's twin and its penalty
        # arc, and i_v its penalty arc.
        bounds = starts[2 : t_stop + 1]
        arc_counts = bounds[1:] - bounds[:-1]
        out_degree = arc_counts[:s_count] - 2
        in_degree = arc_counts[s_count:] - 1

        source_caps = base[0:t_arcs_start:4]
        direct = _np.minimum(source_caps, base[2:t_arcs_start:4])
        offers = _np.empty(order.shape[0] // 2, dtype=_np.float64)
        offers[by_tail >> 1] = _greedy_fill(base[by_tail], out_degree, source_caps - direct)
        routed = _greedy_fill(offers[by_head >> 1], in_degree, base[t_arcs_start:edge_start:2])
        caps[by_head] = base[by_head] - routed
        caps[by_head ^ 1] = routed
        source_flow = direct + _np.bincount(tails[by_head] - 2, weights=routed, minlength=s_count)
        head_of = _np.arange(in_degree.shape[0]).repeat(in_degree)
        sink_flow = _np.bincount(head_of, weights=routed, minlength=in_degree.shape[0])
        for start, stop, step, flow in (
            (0, t_arcs_start, 4, source_flow),
            (2, t_arcs_start, 4, direct),
            (t_arcs_start, edge_start, 2, sink_flow),
        ):
            # Rounding in the sums can overfill a source or sink arc by ulps.
            caps[start:stop:step] = _np.maximum(base[start:stop:step] - flow, 0.0)
            caps[start + 1 : stop : step] = flow

    def _penalty_arc_index(self) -> "object":
        """The S- then T-penalty arc indices as one cached int64 array."""
        cached = getattr(self, "_np_penalty_arcs", None)
        if cached is None:
            cached = _np.asarray(self.s_penalty_arcs + self.t_penalty_arcs, dtype=_np.int64)
            self._np_penalty_arcs = cached
        return cached


def _greedy_fill(amounts, counts, budgets):
    """Fill each group's budget greedily over its items, in item order.

    ``amounts`` lists the items group after group, ``counts[g]`` of them
    for group ``g``.  Each item gets its amount clipped to what is left of
    its group's budget after the group's earlier items.
    """
    before = amounts.cumsum() - amounts
    first = (counts.cumsum() - counts).repeat(counts)
    # Differences of one global prefix sum can go a few ulps negative.
    prefix = _np.maximum(before - before[first], 0.0)
    return _np.minimum(_np.maximum(budgets.repeat(counts) - prefix, 0.0), amounts)


def check_decision_parameters(ratio: float, guess: float) -> None:
    """Reject a ratio outside ``(0, inf)`` or a guess outside ``[0, inf)``.

    The comparisons are written so NaN fails them: a NaN ratio makes every
    surrogate NaN and an infinite one makes a penalty ``0 * inf = nan``,
    and neither can ever end a fixed-ratio search.
    """
    if not 0 < ratio < math.inf:
        raise AlgorithmError(f"ratio must be finite and > 0, got {ratio}")
    if not 0 <= guess < math.inf:
        raise AlgorithmError(f"guess must be finite and >= 0, got {guess}")


def build_decision_network(
    subproblem: STSubproblem, ratio: float, guess: float
) -> DecisionNetwork:
    """Build the min-cut decision network for ``(ratio, guess)``.

    Node layout: ``0 = source``, ``1 = sink``, then one node per S candidate
    (in ``subproblem.s_candidates`` order), then one node per T candidate.

    Arc order: per S candidate its source arc then its penalty arc, then
    the T penalty arcs, then one arc per sub-problem edge.  With numpy the
    paired-arc columns are assembled in bulk and appended with one
    :meth:`~repro.flow.network.FlowNetwork.append_paired_arcs` call;
    without it the same arcs go through ``add_edge`` one at a time.  Both
    paths produce bit-identical buffers, penalty-arc lists and
    ``total_capacity``.
    """
    check_decision_parameters(ratio, guess)

    s_nodes = subproblem.s_candidates
    t_nodes = subproblem.t_candidates
    network = FlowNetwork(2 + len(s_nodes) + len(t_nodes))
    source, sink = 0, 1
    root = math.sqrt(ratio)
    s_penalty = guess / root
    t_penalty = guess * root

    if _np is not None:
        total_capacity = _append_decision_arcs(network, subproblem, s_penalty, t_penalty)
        s_count = len(s_nodes)
        s_penalty_arcs = list(range(2, 4 * s_count, 4))
        t_penalty_arcs = list(range(4 * s_count, 4 * s_count + 2 * len(t_nodes), 2))
    else:
        s_position = {u: index for index, u in enumerate(s_nodes)}
        t_position = {v: index for index, v in enumerate(t_nodes)}
        s_offset = 2
        t_offset = 2 + len(s_nodes)
        out_degree = subproblem.out_degrees()
        total_capacity = 0.0
        s_penalty_arcs = []
        t_penalty_arcs = []
        for u in s_nodes:
            capacity = 2.0 * out_degree[u]
            network.add_edge(source, s_offset + s_position[u], capacity)
            total_capacity += capacity
            s_penalty_arcs.append(network.add_edge(s_offset + s_position[u], sink, s_penalty))
        for v in t_nodes:
            t_penalty_arcs.append(network.add_edge(t_offset + t_position[v], sink, t_penalty))
        for u, v in subproblem.edges:
            network.add_edge(s_offset + s_position[u], t_offset + t_position[v], 2.0)

    return DecisionNetwork(
        network=network,
        source=source,
        sink=sink,
        s_nodes=list(s_nodes),
        t_nodes=list(t_nodes),
        total_capacity=total_capacity,
        s_penalty_arcs=s_penalty_arcs,
        t_penalty_arcs=t_penalty_arcs,
    )


def _append_decision_arcs(
    network: FlowNetwork, subproblem: STSubproblem, s_penalty: float, t_penalty: float
) -> float:
    """Append the decision arcs as numpy columns; returns ``total_capacity``.

    The forward arcs are laid out in ``add_edge`` order and then
    interleaved with their zero-capacity residual twins, which is exactly
    the buffer layout the scalar loop produces.
    """
    s_nodes = subproblem.s_candidates
    t_count = len(subproblem.t_candidates)
    s_count, m = len(s_nodes), len(subproblem.edges)
    t_offset = 2 + s_count
    s_copies = _np.arange(2, t_offset, dtype=_np.int64)
    t_copies = _np.arange(t_offset, t_offset + t_count, dtype=_np.int64)
    # Graph index -> network node of its out-copy (o_u) / in-copy (i_v).
    out_copy = _np.full(subproblem.graph.num_nodes, -1, dtype=_np.int64)
    out_copy[_np.asarray(s_nodes, dtype=_np.int64)] = s_copies
    in_copy = _np.full(subproblem.graph.num_nodes, -1, dtype=_np.int64)
    in_copy[_np.asarray(subproblem.t_candidates, dtype=_np.int64)] = t_copies
    ends = _np.fromiter(chain.from_iterable(subproblem.edges), dtype=_np.int64, count=2 * m)
    edge_tails = out_copy[ends[0::2]]
    edge_heads = in_copy[ends[1::2]]
    source_caps = 2.0 * _np.bincount(edge_tails - 2, minlength=s_count)

    # Forward arcs: per S candidate s -> o_u then o_u -> t, then i_v -> t
    # per T candidate, then o_u -> i_v per edge.
    t_start = 2 * s_count
    e_start = t_start + t_count
    forward_heads = _np.empty(e_start + m, dtype=_np.int64)
    forward_tails = _np.empty(e_start + m, dtype=_np.int64)
    forward_caps = _np.empty(e_start + m, dtype=_np.float64)
    forward_tails[0:t_start:2] = 0
    forward_heads[0:t_start:2] = s_copies
    forward_caps[0:t_start:2] = source_caps
    forward_tails[1:t_start:2] = s_copies
    forward_heads[1:t_start:2] = 1
    forward_caps[1:t_start:2] = s_penalty
    forward_tails[t_start:e_start] = t_copies
    forward_heads[t_start:e_start] = 1
    forward_caps[t_start:e_start] = t_penalty
    forward_tails[e_start:] = edge_tails
    forward_heads[e_start:] = edge_heads
    forward_caps[e_start:] = 2.0

    tails = _np.empty(2 * forward_heads.shape[0], dtype=_np.int64)
    targets = _np.empty_like(tails)
    caps = _np.zeros(tails.shape[0], dtype=_np.float64)
    tails[0::2] = targets[1::2] = forward_tails
    targets[0::2] = tails[1::2] = forward_heads
    caps[0::2] = forward_caps
    network.append_paired_arcs(tails, targets, caps, caps)
    return float(source_caps.sum())


def decision_cut_is_improving(
    cut_value: float, total_capacity: float, slack_capacity: float | None = None
) -> bool:
    """Whether ``cut_value`` is strictly below ``2m'`` beyond float tolerance.

    The slack is ``CUT_RELATIVE_TOLERANCE * max(slack_capacity, 1)``, with
    ``slack_capacity`` defaulting to ``total_capacity``.  A network built on
    a restriction of a search's sub-problem passes the search network's
    ``2m'`` here, so narrowing never moves the tie threshold.
    """
    if slack_capacity is None:
        slack_capacity = total_capacity
    slack = CUT_RELATIVE_TOLERANCE * max(slack_capacity, 1.0)
    return cut_value < total_capacity - slack
