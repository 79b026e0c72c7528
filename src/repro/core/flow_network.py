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

    def clone(self) -> "DecisionNetwork":
        """Deep copy: independent flow network, shared immutable parameters.

        The clone can be patched and solved without disturbing this
        network's residual state — the seed step of the incremental
        ``top_k`` reuse path.  The lazily built edge-arc map is copied when
        present (it is cheap and the clone's topology is identical).
        """
        twin = DecisionNetwork(
            network=self.network.clone(),
            source=self.source,
            sink=self.sink,
            s_nodes=list(self.s_nodes),
            t_nodes=list(self.t_nodes),
            total_capacity=self.total_capacity,
            s_penalty_arcs=list(self.s_penalty_arcs),
            t_penalty_arcs=list(self.t_penalty_arcs),
        )
        cached = getattr(self, "_edge_arc_map", None)
        if cached is not None:
            twin._edge_arc_map = dict(cached)
        return twin

    def edge_arc_map(self) -> dict[tuple[int, int], int]:
        """``(u, v) -> forward arc index`` for the ``o_u -> i_v`` edge arcs.

        Keys are *graph* indices.  Built lazily by replaying the construction
        order of :func:`build_decision_network` (edge arcs are appended after
        the ``4|S| + 2|T|`` candidate arcs) and maintained by the incremental
        patcher across arc appends; entries for deleted edges are kept at
        capacity zero so a later re-insertion reuses the stale arc instead of
        growing the network.
        """
        cached = getattr(self, "_edge_arc_map", None)
        if cached is None:
            s_offset = 2
            t_offset = 2 + len(self.s_nodes)
            first = 4 * len(self.s_nodes) + 2 * len(self.t_nodes)
            targets = self.network.arc_targets
            cached = {}
            for arc in range(first, self.network.num_arcs, 2):
                # The reverse twin's target is the forward arc's tail.
                u = self.s_nodes[targets[arc + 1] - s_offset]
                v = self.t_nodes[targets[arc] - t_offset]
                cached[(u, v)] = arc
            self._edge_arc_map = cached
        return cached

    def source_arc(self, s_position: int) -> int:
        """Forward arc index of the ``s -> o_u`` arc for S position ``s_position``.

        The construction adds each S candidate's source arc immediately
        before its penalty arc, so the index is recoverable from the recorded
        penalty arcs without storing a third list.
        """
        return self.s_penalty_arcs[s_position] - 2

    def retune(self, ratio: float, guess: float, warm_start: bool = False) -> None:
        """Re-parameterise the network for a new ``(ratio, guess)`` in place.

        Updates the guess-dependent penalty-arc capacities, leaving the
        topology (and hence the CSR index) untouched.

        With ``warm_start=False`` the residual state is reset, so the next
        solve starts from zero flow and the network is observationally
        identical to one freshly built by :func:`build_decision_network`
        with the same parameters: same node layout, same arc order,
        bit-identical capacities.  Narrowed networks of a fixed-ratio search
        are retuned this way.

        With ``warm_start=True`` the flow of the previous solve is kept as
        the starting point of the next one: each penalty arc's flow is
        clamped to its new capacity and any clamped excess is pushed back to
        the source (:meth:`~repro.flow.network.FlowNetwork.return_excess`),
        leaving a *valid feasible flow* under the new capacities.  When the
        guess moves up the bracket the penalty capacities only grow, so the
        previous flow is untouched and the solver merely tops it up; when
        the guess moves down, the clamp-and-return pass shrinks the flow
        just enough to stay feasible.  Either way the subsequent max-flow is
        exact — warm starting changes the amount of *work*, never the
        answer.

        Both paths run their penalty-arc sweep as bulk numpy operations on
        the network's zero-copy views when numpy is importable (the
        elementwise arithmetic is identical to the scalar loop, so residual
        states are bit-identical either way); without numpy the original
        per-arc loop runs.
        """
        _check_parameters(ratio, guess)
        root = math.sqrt(ratio)
        s_penalty = guess / root
        t_penalty = guess * root
        network = self.network
        if _np is not None:
            self._retune_vectorised(s_penalty, t_penalty, warm_start)
            return
        if not warm_start:
            for arc_index in self.s_penalty_arcs:
                network.set_capacity(arc_index, s_penalty)
            for arc_index in self.t_penalty_arcs:
                network.set_capacity(arc_index, t_penalty)
            network.reset_flow()
            return
        s_offset = 2
        t_offset = 2 + len(self.s_nodes)
        excess: list[tuple[int, float]] = []
        for position, arc_index in enumerate(self.s_penalty_arcs):
            overflow = network.set_capacity_preserving_flow(arc_index, s_penalty)
            if overflow > 0.0:
                excess.append((s_offset + position, overflow))
        for position, arc_index in enumerate(self.t_penalty_arcs):
            overflow = network.set_capacity_preserving_flow(arc_index, t_penalty)
            if overflow > 0.0:
                excess.append((t_offset + position, overflow))
        if excess:
            network.return_excess(excess, self.source)

    def _retune_vectorised(self, s_penalty: float, t_penalty: float, warm_start: bool) -> None:
        """Bulk-array implementation of the penalty sweep (numpy present).

        Elementwise it performs exactly the arithmetic of
        :meth:`FlowNetwork.set_capacity` /
        :meth:`FlowNetwork.set_capacity_preserving_flow` — same operands,
        same operations, no re-association — so the resulting residual
        state is bit-identical to the scalar loop's.  Only the clamp
        *detection* is vectorised; returning the clamped excess still goes
        through the generic :meth:`FlowNetwork.return_excess` walk, in the
        same (node, amount) order the scalar loop would produce.
        """
        network = self.network
        _, _, _, caps, _, base = network.numpy_csr()
        arcs = self._penalty_arc_index()
        penalties = _np.empty(arcs.shape[0], dtype=_np.float64)
        penalties[: len(self.s_penalty_arcs)] = s_penalty
        penalties[len(self.s_penalty_arcs) :] = t_penalty
        base[arcs] = penalties
        if not warm_start:
            # reset_flow() copies base over every capacity, so the scalar
            # path's interim cap/twin writes are subsumed by the reset.
            network.reset_flow()
            return
        flows = caps[arcs + 1]
        fits = flows <= penalties
        caps[arcs] = _np.where(fits, penalties - flows, 0.0)
        caps[arcs + 1] = _np.where(fits, flows, penalties)
        overflow = flows - penalties
        clamped = _np.flatnonzero(overflow > 0.0)
        if clamped.size:
            nodes = self._penalty_node_index()[clamped]
            network.return_excess(
                list(zip(nodes.tolist(), overflow[clamped].tolist())), self.source
            )

    def _penalty_arc_index(self) -> "object":
        """The S- then T-penalty arc indices as one cached int64 array."""
        cached = getattr(self, "_np_penalty_arcs", None)
        if cached is None:
            cached = _np.asarray(self.s_penalty_arcs + self.t_penalty_arcs, dtype=_np.int64)
            self._np_penalty_arcs = cached
        return cached

    def _penalty_node_index(self) -> "object":
        """Network node of each penalty arc's tail, aligned with :meth:`_penalty_arc_index`."""
        cached = getattr(self, "_np_penalty_nodes", None)
        if cached is None:
            s_offset = 2
            t_offset = 2 + len(self.s_nodes)
            cached = _np.concatenate(
                [
                    s_offset + _np.arange(len(self.s_penalty_arcs), dtype=_np.int64),
                    t_offset + _np.arange(len(self.t_penalty_arcs), dtype=_np.int64),
                ]
            )
            self._np_penalty_nodes = cached
        return cached


def _check_parameters(ratio: float, guess: float) -> None:
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
    _check_parameters(ratio, guess)

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


def decision_network_arc_count(subproblem: STSubproblem) -> int:
    """Stored arc count of the network :func:`build_decision_network` would build.

    Derived from the construction without building anything: one edge per S
    candidate to the source, one penalty edge per S and per T candidate, one
    edge per sub-problem edge — each stored with its residual twin.  The
    batching gate uses this to decide, before any network exists, whether a
    family of fixed-ratio searches over ``subproblem`` should be stacked
    (the count is ratio-independent: only capacities vary with the ratio).
    """
    return 2 * (
        2 * len(subproblem.s_candidates)
        + len(subproblem.t_candidates)
        + len(subproblem.edges)
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
