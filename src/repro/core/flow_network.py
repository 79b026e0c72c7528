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
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.exceptions import AlgorithmError
from repro.flow.network import FlowNetwork, FlowTopology

if TYPE_CHECKING:
    from repro.core.subproblem import STSubproblem

#: Slack used when comparing a min-cut value against ``2m'``; the comparison
#: involves sums of ``O(m)`` floats so the tolerance scales with ``m``.
CUT_RELATIVE_TOLERANCE = 1e-9

#: Networks whose live arcs are fewer than this keep zero flow in
#: :meth:`DecisionNetwork.route_start_flow`.  The live arcs are the arcs the
#: network would store if it were built from the sub-problem it has been
#: narrowed to (:meth:`DecisionNetwork.narrow`), so the threshold sees the
#: same count as it would on such a build.  Routing costs ~45 µs of fixed
#: numpy overhead per call.  On the cold decision networks of perfbench's
#: ``exact`` workload (seed 501, routing plus ``dinic``, best of 3 per
#: network, 2-CPU VM) it saved 20–50 µs per solve from 256 stored arcs up,
#: and cost ~50 µs per solve on the 727 networks of 192–255 arcs.
START_FLOW_MIN_ARCS = 256


class DecisionTopology:
    """The guess-independent layout every decision network of one sub-problem shares.

    Node ``0`` is the source and ``1`` the sink, then one node per S
    candidate (in ``s_nodes`` order), then one per T candidate.  The arcs
    (a read-only :class:`~repro.flow.network.FlowTopology`, with its CSR
    index and the solver's lists) follow the layout :class:`DecisionNetwork`
    documents.  ``source_caps`` holds the source-arc capacities
    ``2 * dout'(u)`` and ``total_capacity`` their sum ``2m'``.

    A sub-problem builds its topology on first use and keeps it as long as
    it lives (:attr:`~repro.core.subproblem.STSubproblem.decision_topology`);
    nothing in it holds flow or a guess-dependent capacity.
    """

    __slots__ = ("arcs", "s_nodes", "t_nodes", "source_caps", "total_capacity", "_edge_groups")

    def __init__(self, subproblem: STSubproblem) -> None:
        s_nodes = list(subproblem.s_candidates)
        t_nodes = list(subproblem.t_candidates)
        s_count, t_count, m = len(s_nodes), len(t_nodes), len(subproblem.edges)
        t_offset = 2 + s_count
        s_copies = np.arange(2, t_offset, dtype=np.int64)
        t_copies = np.arange(t_offset, t_offset + t_count, dtype=np.int64)
        # Graph index -> network node of its out-copy (o_u) / in-copy (i_v).
        out_copy = np.full(subproblem.graph.num_nodes, -1, dtype=np.int64)
        out_copy[np.asarray(s_nodes, dtype=np.int64)] = s_copies
        in_copy = np.full(subproblem.graph.num_nodes, -1, dtype=np.int64)
        in_copy[np.asarray(t_nodes, dtype=np.int64)] = t_copies
        ends = np.fromiter(chain.from_iterable(subproblem.edges), dtype=np.int64, count=2 * m)
        edge_tails = out_copy[ends[0::2]]
        source_caps = 2.0 * np.bincount(edge_tails - 2, minlength=s_count)
        source_caps.flags.writeable = False

        # Forward arcs: per S candidate s -> o_u then o_u -> t, then i_v -> t
        # per T candidate, then o_u -> i_v per edge.
        t_start = 2 * s_count
        e_start = t_start + t_count
        forward_heads = np.empty(e_start + m, dtype=np.int64)
        forward_tails = np.empty(e_start + m, dtype=np.int64)
        forward_tails[0:t_start:2] = 0
        forward_heads[0:t_start:2] = s_copies
        forward_tails[1:t_start:2] = s_copies
        forward_heads[1:t_start:2] = 1
        forward_tails[t_start:e_start] = t_copies
        forward_heads[t_start:e_start] = 1
        forward_tails[e_start:] = edge_tails
        forward_heads[e_start:] = in_copy[ends[1::2]]
        tails = np.empty(2 * forward_heads.shape[0], dtype=np.int64)
        targets = np.empty_like(tails)
        tails[0::2] = targets[1::2] = forward_tails
        targets[0::2] = tails[1::2] = forward_heads

        self.arcs = FlowTopology(t_offset + t_count, tails, targets)
        self.s_nodes = s_nodes
        self.t_nodes = t_nodes
        self.source_caps = source_caps
        self.total_capacity = float(source_caps.sum())
        self._edge_groups: tuple | None = None

    @property
    def edge_start(self) -> int:
        """Index of the first edge arc ``o_u -> i_v``."""
        return 4 * len(self.s_nodes) + 2 * len(self.t_nodes)

    def edge_groups(self) -> tuple:
        """``(by_tail, by_head, out_degree, in_degree)`` of the edge arcs, built once.

        ``by_tail`` lists the forward edge arcs grouped by tail in S
        candidate order, ``by_head`` grouped by head in T candidate order,
        each group in arc order; ``out_degree`` / ``in_degree`` give the
        group sizes.  The start flow walks them.
        """
        if self._edge_groups is None:
            starts, order = self.arcs.starts, self.arcs.order
            s_count = len(self.s_nodes)
            t_first, t_stop = 2 + s_count, 2 + s_count + len(self.t_nodes)
            # The CSR lists each node's arcs in arc order, so the edge arcs
            # come grouped by tail (o_u's forward arcs) and by head (i_v's
            # residual twins) with no sort, whatever order the sub-problem's
            # edges had.
            out_arcs = order[starts[2] : starts[t_first]]
            in_arcs = order[starts[t_first] : starts[t_stop]]
            # Besides its edges, o_u holds its source arc's twin and its
            # penalty arc, and i_v its penalty arc.
            bounds = starts[2 : t_stop + 1]
            arc_counts = bounds[1:] - bounds[:-1]
            self._edge_groups = (
                out_arcs[out_arcs >= self.edge_start],
                in_arcs[(in_arcs & 1) == 1] ^ 1,
                arc_counts[:s_count] - 2,
                arc_counts[s_count:] - 1,
            )
        return self._edge_groups


class _Narrowing(NamedTuple):
    """What :meth:`DecisionNetwork.narrow` left in the network."""

    live: np.ndarray  # per edge: it survived
    out_degree: np.ndarray  # d''(u) per S candidate
    in_degree: np.ndarray  # surviving in-edges per T candidate
    s_scale: np.ndarray  # per S candidate: 1.0 if it survived, else 0.0
    t_scale: np.ndarray  # likewise per T candidate


class DecisionNetwork:
    """One search's decision network: its own capacities over a shared topology.

    The arc layout is fixed: for the ``i``-th S candidate, arc ``4i`` is
    its source arc ``s -> o_u`` and arc ``4i + 2`` its penalty arc
    ``o_u -> t``; arc ``4|S| + 2j`` is the penalty arc ``i_v -> t`` of the
    ``j``-th T candidate; the edge arcs follow from arc ``4|S| + 2|T|``, and
    every odd arc is the residual twin of the arc before it.  The layout
    (targets, tails, CSR index, the solver's lists) belongs to the
    sub-problem's :class:`DecisionTopology`; the network owns only its base
    and residual capacities.

    Only the penalty arcs depend on the probe parameters ``(ratio, guess)``,
    so :meth:`retune` rewrites their capacities in place and resets the
    residual state instead of rebuilding the network for every guess.
    :meth:`narrow` restricts the network to a pair of candidate sets in
    place, by zeroing capacities: the network then solves exactly like one
    built from the restricted sub-problem.
    """

    __slots__ = ("network", "topology", "total_capacity", "_counts", "_narrowing", "_edge_groups")

    #: Network node of the source.
    source = 0
    #: Network node of the sink.
    sink = 1

    def __init__(self, network: FlowNetwork, topology: DecisionTopology) -> None:
        self.network = network
        self.topology = topology
        #: The ``2m'`` of the (narrowed) sub-problem the network solves.
        self.total_capacity = topology.total_capacity
        # |S|, |T| and m' of the (narrowed) sub-problem.
        self._counts = (
            len(topology.s_nodes),
            len(topology.t_nodes),
            (topology.arcs.num_arcs - topology.edge_start) // 2,
        )
        self._narrowing: _Narrowing | None = None
        self._edge_groups: tuple | None = None

    @property
    def s_nodes(self) -> list[int]:
        """Graph indices aligned with network nodes ``2 .. 2 + |S|``."""
        return self.topology.s_nodes

    @property
    def t_nodes(self) -> list[int]:
        """Graph indices aligned with network nodes ``2 + |S| ..``."""
        return self.topology.t_nodes

    @property
    def num_nodes(self) -> int:
        """Number of network nodes (for instrumentation)."""
        return self.network.num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of stored network arcs (for instrumentation)."""
        return self.network.num_arcs

    @property
    def candidate_counts(self) -> tuple[int, int]:
        """``(|S|, |T|)`` of the candidates still in the network (all, until narrowed)."""
        return self._counts[0], self._counts[1]

    @property
    def live_arcs(self) -> int:
        """Arcs a build from the narrowed sub-problem would store (all, until narrowed)."""
        s_count, t_count, edge_count = self._counts
        return 2 * (2 * s_count + t_count + edge_count)

    def extract_pair(self, source_side: list[int]) -> tuple[list[int], list[int]]:
        """Map the source side of a cut back to graph-index sets ``(S, T)``."""
        s_nodes, t_nodes = self.s_nodes, self.t_nodes
        t_offset = 2 + len(s_nodes)
        t_stop = t_offset + len(t_nodes)
        side = sorted(set(source_side))
        s_selected = [s_nodes[node - 2] for node in side if 2 <= node < t_offset]
        t_selected = [t_nodes[node - t_offset] for node in side if t_offset <= node < t_stop]
        return s_selected, t_selected

    def retune(self, ratio: float, guess: float) -> None:
        """Re-parameterise the network for a new ``(ratio, guess)`` in place.

        Updates the guess-dependent penalty-arc capacities, leaving the
        topology (and hence the CSR index) untouched, and resets the
        residual state: the network is then observationally identical to
        one freshly built by :func:`build_decision_network` with the same
        parameters — same capacities on the same arcs, zero flow — and,
        after a :meth:`narrow`, solves like one built from the narrowed
        sub-problem.  A fixed-ratio search routes :meth:`route_start_flow`
        after every retune, as after every build.

        The penalty capacities are written into the network's base
        capacities in place, one strided slice per penalty kind;
        ``reset_flow`` then copies them over every residual.
        """
        check_decision_parameters(ratio, guess)
        self._write_penalties(ratio, guess)
        self.network.reset_flow()

    def narrow(self, source_side: list[int], ratio: float, guess: float) -> None:
        """Restrict the network to the nodes of ``source_side`` and retune it.

        ``source_side`` lists network nodes, as the source side of a cut on
        this network does.  Every edge arc ``o_u -> i_v`` with an endpoint
        outside it gets capacity zero, each source arc ``s -> o_u`` gets
        ``2 * d''(u)`` (the out-degree over the surviving edges), and the
        penalty arcs of every candidate left without a surviving edge get
        zero; then the penalties are written for ``(ratio, guess)`` and the
        flow is reset.  The candidates and edges that survive are exactly
        those of the sub-problem restricted to the pair, and the zeroed
        arcs never carry flow, so every solve pushes the same paths in the
        same order as on a network built from that restriction (see
        ``docs/architecture.md``, "Why narrowing is exact").  Narrowing
        again restricts further.
        """
        check_decision_parameters(ratio, guess)
        topology = self.topology
        s_count = len(topology.s_nodes)
        t_arcs_start, edge_start = 4 * s_count, topology.edge_start
        base = self.network.base_capacities
        kept = np.zeros(self.num_nodes, dtype=bool)
        kept[source_side] = True
        edge_tails = topology.arcs.tails[edge_start::2]
        edge_heads = topology.arcs.targets[edge_start::2]
        live = kept[edge_tails] & kept[edge_heads]
        if self._narrowing is not None:
            live &= self._narrowing.live
        out_degree = np.bincount(edge_tails[live] - 2, minlength=s_count)
        in_degree = np.bincount(edge_heads[live] - (2 + s_count), minlength=len(topology.t_nodes))
        base[edge_start::2] = 2.0 * live
        base[0:t_arcs_start:4] = 2.0 * out_degree
        s_kept, t_kept = out_degree > 0, in_degree > 0
        self._narrowing = _Narrowing(
            live, out_degree, in_degree, s_kept.astype(np.float64), t_kept.astype(np.float64)
        )
        self._edge_groups = None
        edge_count = int(np.count_nonzero(live))
        self._counts = (int(np.count_nonzero(s_kept)), int(np.count_nonzero(t_kept)), edge_count)
        self.total_capacity = 2.0 * edge_count
        self._write_penalties(ratio, guess)
        self.network.reset_flow()

    def _write_penalties(self, ratio: float, guess: float) -> None:
        """Write the penalty capacities for ``(ratio, guess)``; dropped candidates keep zero."""
        root = math.sqrt(ratio)
        t_arcs_start = 4 * len(self.s_nodes)
        base = self.network.base_capacities
        s_penalties = base[2:t_arcs_start:4]
        t_penalties = base[t_arcs_start : self.topology.edge_start : 2]
        if self._narrowing is None:
            s_penalties[:] = guess / root
            t_penalties[:] = guess * root
        else:
            # x * 1.0 == x exactly, so surviving candidates get the same bits.
            np.multiply(self._narrowing.s_scale, guess / root, out=s_penalties)
            np.multiply(self._narrowing.t_scale, guess * root, out=t_penalties)

    def _live_edge_groups(self) -> tuple:
        """:meth:`DecisionTopology.edge_groups` restricted to the surviving edges."""
        if self._narrowing is None:
            return self.topology.edge_groups()
        if self._edge_groups is None:
            by_tail, by_head, _, _ = self.topology.edge_groups()
            narrowing = self._narrowing
            edge_start = self.topology.edge_start
            self._edge_groups = (
                by_tail[narrowing.live[(by_tail - edge_start) >> 1]],
                by_head[narrowing.live[(by_head - edge_start) >> 1]],
                narrowing.out_degree,
                narrowing.in_degree,
            )
        return self._edge_groups

    def route_start_flow(self) -> None:
        """Route a greedy feasible flow along the network's 2- and 3-arc paths.

        The network must hold zero flow in :func:`build_decision_network`'s
        arc layout: freshly built, retuned or narrowed.
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

        The greedy walks only the edges that survived the last
        :meth:`narrow`, in the same order and with the same prefix sums as
        on a network built from the narrowed sub-problem, so it routes the
        same flow bit for bit.  A no-op on networks with fewer than
        :data:`START_FLOW_MIN_ARCS` live arcs (:attr:`live_arcs`).
        """
        if self.live_arcs < START_FLOW_MIN_ARCS:
            return
        network = self.network
        caps, base = network.arc_capacities, network.base_capacities
        tails = self.topology.arcs.tails
        by_tail, by_head, out_degree, in_degree = self._live_edge_groups()
        s_count = len(self.s_nodes)
        t_arcs_start = 4 * s_count
        edge_start = self.topology.edge_start

        source_caps = base[0:t_arcs_start:4]
        direct = np.minimum(source_caps, base[2:t_arcs_start:4])
        offers = np.empty(network.num_arcs // 2, dtype=np.float64)
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

    The network runs over the sub-problem's
    :attr:`~repro.core.subproblem.STSubproblem.decision_topology` (built
    here by the sub-problem's first search, shared by every later one), so
    a build allocates only the network's own base and residual capacities:
    the source arcs get ``2 * dout'(u)``, the edge arcs 2, and the penalty
    arcs their ``(ratio, guess)`` capacities, in the layout
    :class:`DecisionNetwork` documents.
    """
    check_decision_parameters(ratio, guess)
    topology = subproblem.decision_topology
    root = math.sqrt(ratio)
    t_arcs_start, edge_start = 4 * len(topology.s_nodes), topology.edge_start
    base = np.zeros(topology.arcs.num_arcs, dtype=np.float64)
    base[0:t_arcs_start:4] = topology.source_caps
    base[2:t_arcs_start:4] = guess / root
    base[t_arcs_start:edge_start:2] = guess * root
    base[edge_start::2] = 2.0
    return DecisionNetwork(FlowNetwork(topology.arcs, base), topology)


def decision_cut_is_improving(
    cut_value: float, total_capacity: float, slack_capacity: float | None = None
) -> bool:
    """Whether ``cut_value`` is strictly below ``2m'`` beyond float tolerance.

    The slack is ``CUT_RELATIVE_TOLERANCE * max(slack_capacity, 1)``, with
    ``slack_capacity`` defaulting to ``total_capacity``.  A search passes
    its narrowed network's ``2m''`` as ``total_capacity`` and the whole
    sub-problem's ``2m'`` (its topology's) as ``slack_capacity``, so
    narrowing never moves the tie threshold.
    """
    if slack_capacity is None:
        slack_capacity = total_capacity
    slack = CUT_RELATIVE_TOLERANCE * max(slack_capacity, 1.0)
    return cut_value < total_capacity - slack
