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
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError
from repro.flow.network import FlowNetwork

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

    The arc layout of :func:`build_decision_network` is fixed: for the
    ``i``-th S candidate, arc ``4i`` is its source arc ``s -> o_u`` and arc
    ``4i + 2`` its penalty arc ``o_u -> t``; arc ``4|S| + 2j`` is the penalty
    arc ``i_v -> t`` of the ``j``-th T candidate; the edge arcs follow from
    arc ``4|S| + 2|T|``, and every odd arc is the residual twin of the arc
    before it.  Only the penalty arcs depend on the probe parameters
    ``(ratio, guess)``, so :meth:`retune` rewrites their capacities in place
    and resets the residual state instead of rebuilding the whole network
    for every guess (O(|S| + |T| + m') instead of a full rebuild).
    """

    network: FlowNetwork
    source: int
    sink: int
    s_nodes: list[int]  # graph indices, aligned with network nodes 2..2+|S|
    t_nodes: list[int]  # graph indices, aligned with network nodes 2+|S|..
    total_capacity: float  # the 2m' reference value

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

        The penalty capacities are written into the base capacities through
        the network's zero-copy views, one strided slice per penalty kind;
        ``reset_flow`` then copies them over every residual.
        """
        check_decision_parameters(ratio, guess)
        root = math.sqrt(ratio)
        t_arcs_start = 4 * len(self.s_nodes)
        _, _, _, _, _, base = self.network.numpy_csr()
        base[2:t_arcs_start:4] = guess / root
        base[t_arcs_start : t_arcs_start + 2 * len(self.t_nodes) : 2] = guess * root
        self.network.reset_flow()

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

        A no-op on networks with fewer than :data:`START_FLOW_MIN_ARCS`
        stored arcs.
        """
        network = self.network
        if network.num_arcs < START_FLOW_MIN_ARCS:
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
        direct = np.minimum(source_caps, base[2:t_arcs_start:4])
        offers = np.empty(order.shape[0] // 2, dtype=np.float64)
        offers[by_tail >> 1] = _greedy_fill(base[by_tail], out_degree, source_caps - direct)
        routed = _greedy_fill(offers[by_head >> 1], in_degree, base[t_arcs_start:edge_start:2])
        caps[by_head] = base[by_head] - routed
        caps[by_head ^ 1] = routed
        source_flow = direct + np.bincount(tails[by_head] - 2, weights=routed, minlength=s_count)
        head_of = np.arange(in_degree.shape[0]).repeat(in_degree)
        sink_flow = np.bincount(head_of, weights=routed, minlength=in_degree.shape[0])
        for start, stop, step, flow in (
            (0, t_arcs_start, 4, source_flow),
            (2, t_arcs_start, 4, direct),
            (t_arcs_start, edge_start, 2, sink_flow),
        ):
            # Rounding in the sums can overfill a source or sink arc by ulps.
            caps[start:stop:step] = np.maximum(base[start:stop:step] - flow, 0.0)
            caps[start + 1 : stop : step] = flow


def _greedy_fill(amounts, counts, budgets):
    """Fill each group's budget greedily over its items, in item order.

    ``amounts`` lists the items group after group, ``counts[g]`` of them
    for group ``g``.  Each item gets its amount clipped to what is left of
    its group's budget after the group's earlier items.
    """
    before = amounts.cumsum() - amounts
    first = (counts.cumsum() - counts).repeat(counts)
    # Differences of one global prefix sum can go a few ulps negative.
    prefix = np.maximum(before - before[first], 0.0)
    return np.minimum(np.maximum(budgets.repeat(counts) - prefix, 0.0), amounts)


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

    Arc order (the layout :class:`DecisionNetwork` documents): per S
    candidate its source arc then its penalty arc, then the T penalty arcs,
    then one arc per sub-problem edge, each forward arc followed by its
    zero-capacity residual twin.  The paired-arc columns are assembled in
    numpy and appended with one
    :meth:`~repro.flow.network.FlowNetwork.append_paired_arcs` call.
    """
    check_decision_parameters(ratio, guess)
    root = math.sqrt(ratio)
    s_nodes = subproblem.s_candidates
    t_nodes = subproblem.t_candidates
    s_count, t_count, m = len(s_nodes), len(t_nodes), len(subproblem.edges)
    t_offset = 2 + s_count
    network = FlowNetwork(t_offset + t_count)
    s_copies = np.arange(2, t_offset, dtype=np.int64)
    t_copies = np.arange(t_offset, t_offset + t_count, dtype=np.int64)
    # Graph index -> network node of its out-copy (o_u) / in-copy (i_v).
    out_copy = np.full(subproblem.graph.num_nodes, -1, dtype=np.int64)
    out_copy[np.asarray(s_nodes, dtype=np.int64)] = s_copies
    in_copy = np.full(subproblem.graph.num_nodes, -1, dtype=np.int64)
    in_copy[np.asarray(t_nodes, dtype=np.int64)] = t_copies
    ends = np.fromiter(chain.from_iterable(subproblem.edges), dtype=np.int64, count=2 * m)
    edge_tails = out_copy[ends[0::2]]
    edge_heads = in_copy[ends[1::2]]
    source_caps = 2.0 * np.bincount(edge_tails - 2, minlength=s_count)

    # Forward arcs: per S candidate s -> o_u then o_u -> t, then i_v -> t
    # per T candidate, then o_u -> i_v per edge.
    t_start = 2 * s_count
    e_start = t_start + t_count
    forward_heads = np.empty(e_start + m, dtype=np.int64)
    forward_tails = np.empty(e_start + m, dtype=np.int64)
    forward_caps = np.empty(e_start + m, dtype=np.float64)
    forward_tails[0:t_start:2] = 0
    forward_heads[0:t_start:2] = s_copies
    forward_caps[0:t_start:2] = source_caps
    forward_tails[1:t_start:2] = s_copies
    forward_heads[1:t_start:2] = 1
    forward_caps[1:t_start:2] = guess / root
    forward_tails[t_start:e_start] = t_copies
    forward_heads[t_start:e_start] = 1
    forward_caps[t_start:e_start] = guess * root
    forward_tails[e_start:] = edge_tails
    forward_heads[e_start:] = edge_heads
    forward_caps[e_start:] = 2.0

    tails = np.empty(2 * forward_heads.shape[0], dtype=np.int64)
    targets = np.empty_like(tails)
    caps = np.zeros(tails.shape[0], dtype=np.float64)
    tails[0::2] = targets[1::2] = forward_tails
    targets[0::2] = tails[1::2] = forward_heads
    caps[0::2] = forward_caps
    network.append_paired_arcs(tails, targets, caps, caps)
    return DecisionNetwork(
        network=network,
        source=0,
        sink=1,
        s_nodes=list(s_nodes),
        t_nodes=list(t_nodes),
        total_capacity=float(source_caps.sum()),
    )


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
