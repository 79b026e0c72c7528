"""Vectorised push-relabel max flow over zero-copy numpy views of the CSR buffers.

This is the registry's long-reserved "numpy backend slot" filled in: a
preflow-push solver whose *entire* mutable state — residual capacities, arc
targets/tails, CSR segment boundaries — lives in numpy arrays created with
``numpy.frombuffer`` over the network's flat ``array('d')``/``array('q')``
storage (:meth:`~repro.flow.network.FlowNetwork.numpy_csr`).  No copy is ever
taken of the capacities: the solver's writes land directly in the network's
residual state, so there is no snapshot/write-back step at all (the scalar
solvers pay one O(m) list snapshot and one O(m) write-back per solve).

Execution model
---------------
The scalar solvers run one interpreted Python iteration per *arc*; this
backend runs one per *phase*.  Each superstep is a handful of O(m) bulk
array operations (the Goldberg–Tarjan parallel "pulse" formulation):

1. **Bulk push (saturation sweep)** — compute the admissible-arc mask
   (``residual & active(tail) & height(tail) == height(head) + 1``) over
   every arc at once, then discharge every active node along *all* of its
   admissible arcs simultaneously: a per-segment exclusive prefix sum of
   the admissible capacities, clipped against each node's excess, yields
   exactly the greedy sequential fill (arc ``i`` of a node carries
   ``clip(excess - prefix_before_i, 0, cap_i)``) for every node in one
   O(m) pass.  An arc and its residual twin can never both be admissible
   (their height conditions are mutually exclusive), so the fancy-indexed
   capacity updates are race-free, and only the scatter-add into receiving
   nodes' excess needs ``numpy.add.at``.  Pushes read a *fixed* height
   labelling, and a push never invalidates validity (it creates a residual
   twin going downhill by one), so the bulk sweep is equivalent to
   executing its pushes in any sequential order.
2. **Bulk relabel** — every still-active node with no admissible arc lifts to
   ``1 + min(height(head))`` over its residual arcs, computed for all nodes
   at once with ``numpy.minimum.reduceat`` over the CSR segments.
   Simultaneous relabels are sound because capacities are fixed during the
   phase: for a residual arc ``(u, v)`` the new ``h'(u) = 1 + min <= 1 +
   h(v) <= 1 + h'(v)`` (relabels only raise labels), so validity is
   preserved — the textbook argument, applied in bulk.

Two classic heuristics, both absent from the pure-python
:class:`~repro.flow.push_relabel.PushRelabelSolver`, keep the superstep count
low:

* **Global relabeling** — every :data:`GLOBAL_RELABEL_INTERVAL` supersteps
  (and once at the start of every flood attempt) the labels are reset to exact
  residual BFS distances (``d(v, t)``, else ``n + d(v, s)``), computed as a
  frontier-per-iteration vectorised BFS.  The new labels are merged with
  ``numpy.maximum`` — the elementwise max of two valid labellings is itself
  valid, and labels stay monotone.
* **Gap heuristic** — after each relabel phase a ``numpy.bincount`` of the
  labels finds empty levels below ``n``; every node stranded above the
  lowest gap is lifted past ``n`` at once (it can no longer reach the sink).

Like the scalar push–relabel, every solve continues from the flow the
network's residual state holds: its value seeds the sink's excess, and the
labels start at zero (source at ``n``) and jump to exact residual distances
at the first global relabel.

Answers are bit-identical to the scalar solvers' by construction:
``min_cut_source_side`` returns the canonical cut (nodes residual-reachable
from the source), which is invariant across maximum flows, computed here as
a vectorised BFS using the same :data:`~repro.flow.network.EPSILON`
threshold the scalar walk uses.

This module imports numpy at module scope **on purpose**: the registry
import-guards it, so environments without numpy simply do not list the
``numpy-push-relabel`` backend (and the ``auto`` policy falls back to
``dinic``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DeadlineExceeded, FlowError
from repro.flow.network import EPSILON, FlowNetwork

#: Supersteps between two global relabels.  Decision networks are shallow
#: (source → out-copies → in-copies → sink), so exact distance labels are
#: cheap to recompute and pay for themselves quickly; the interval mainly
#: bounds how long the excess-return phase can wander before being handed
#: exact route-to-source labels.
GLOBAL_RELABEL_INTERVAL = 16

#: Additionally trigger a global relabel once this fraction of the nodes has
#: been relabelled since the last one (the hi_pr-style work trigger).  Bulk
#: relabel phases lift whole node classes one level per superstep; exact BFS
#: labels replace that climb with a single pass, which is what keeps the
#: superstep count per solve small.
GLOBAL_RELABEL_NODE_FRACTION = 0.4


class NumpyPushRelabelSolver:
    """Bulk-synchronous push–relabel bound to one :class:`FlowNetwork`.

    Satisfies the registry's solver protocol (``max_flow`` /
    ``min_cut_source_side`` / ``arcs_pushed``): the network's residual
    state is continued from as a feasible flow, and the returned value is
    the total max flow.

    Unlike the scalar solvers this one mutates the network's capacities
    *in place through zero-copy views* — there is no snapshot to write
    back.  ``arcs_pushed`` counts individual arc pushes exactly like the
    scalar solvers (each selected arc in a bulk push counts once), so the
    engine glossary's meaning of the counter is preserved.
    """

    name = "numpy-push-relabel"

    #: Optional :class:`repro.runtime.Deadline`, attached by the engine.
    #: Checked once per superstep.  Because this backend writes *directly*
    #: into the network's residual capacities (zero-copy views, no
    #: write-back step to skip), arming a deadline makes :meth:`max_flow`
    #: take one O(m) capacity backup up front and restore it on
    #: cancellation — the only way a mid-phase preflow can be rolled back
    #: to the valid entry flow so a later warm retune stays bit-identical.
    #: Undeadlined solves take no backup and are unchanged.
    deadline = None

    def __init__(self, network: FlowNetwork, source: int, sink: int) -> None:
        if source == sink:
            raise FlowError("source and sink must differ")
        network._check_node(source)
        network._check_node(sink)
        self.network = network
        self.source = source
        self.sink = sink
        self.arcs_pushed = 0
        #: Optional per-arc owner labels for block-diagonal batched solves.
        #: When :class:`~repro.flow.batch.BatchedFlowNetwork` assigns these
        #: (an ``int64`` array over arc indices plus a zeroed per-owner
        #: accumulator) before :meth:`max_flow`, every counted push is also
        #: attributed to the owning block in ``owner_pushes`` — the split
        #: the engine reports per member network.
        self.arc_owner: np.ndarray | None = None
        self.owner_pushes: np.ndarray | None = None
        #: Number of global-relabel passes this solve ran (instrumentation).
        self.global_relabels = 0
        # Views and position-space constants, bound during max_flow().
        self._caps: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._pos_arc: np.ndarray | None = None
        self._pos_tail: np.ndarray | None = None
        self._pos_head: np.ndarray | None = None
        self._seg_starts: np.ndarray | None = None
        self._empty_seg: np.ndarray | None = None
        self._pos_of_arc: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._valid_segments = 0
        self._reduce_starts: np.ndarray | None = None
        # Final reachability mask (the cut certificate), cached by max_flow.
        self._seen: np.ndarray | None = None

    # ------------------------------------------------------------------
    def max_flow(self) -> float:
        """Run bulk-synchronous push–relabel to completion; return the flow value."""
        network = self.network
        n = network.num_nodes
        source, sink = self.source, self.sink
        starts, order, targets, caps, tails, _ = network.numpy_csr()
        m = caps.shape[0]
        if m == 0:
            return 0.0
        limit = 2 * n
        big = np.int64(2 * limit + 4)  # "unreachable" label, safely above any real one

        # Position space: arcs permuted into CSR order, so each node's arcs
        # occupy the contiguous slice starts[u]:starts[u+1] — the layout the
        # per-node segment reductions (reduceat) need.  The index is cached
        # on the network per topology, so repeated solves on a retuned
        # network pay nothing here.
        pos_arc = order
        pos_tail, pos_head, seg_starts, empty_seg, pos_of_arc, counts, valid_segments = (
            network.numpy_position_index()
        )
        self._caps, self._targets = caps, targets
        self._pos_arc, self._pos_tail, self._pos_head = pos_arc, pos_tail, pos_head
        self._seg_starts, self._empty_seg = seg_starts, empty_seg
        self._pos_of_arc, self._counts = pos_of_arc, counts
        self._starts = starts
        # True reduceat boundaries: trailing arc-less nodes must be excluded
        # rather than clipped, or the last non-empty segment is truncated.
        self._valid_segments = valid_segments
        self._reduce_starts = starts[:valid_segments]

        height = np.zeros(n, dtype=np.int64)
        excess = np.zeros(n, dtype=np.float64)

        src_segment = order[int(starts[source]) : int(starts[source + 1])]
        # Credit the feasible flow the network already holds to the sink;
        # the solve below then only tops it up (same contract as the scalar
        # solvers).  Computed in bulk over the source's CSR segment: forward
        # arcs contribute the flow pushed onto their twins, residual twins
        # subtract theirs.
        src_odd = src_segment & 1 == 1
        excess[sink] = float(
            caps[src_segment[~src_odd] ^ 1].sum() - caps[src_segment[src_odd]].sum()
        )
        height[source] = n

        interior = np.ones(n, dtype=bool)
        interior[source] = interior[sink] = False
        relabel_trigger = max(int(GLOBAL_RELABEL_NODE_FRACTION * n), 1)

        # Budgeted flood with a certified-cut fallback.  Every unit of flow
        # must enter the sink through the sink's incoming residual capacity,
        # so saturating more than that out of the source only manufactures
        # excess that phase 2 has to cancel straight back — on warm retunes
        # (where the sink-side headroom is a small delta) that cancelled
        # flood is almost all of the textbook algorithm's work.  The first
        # attempt therefore floods only up to the sink-side headroom,
        # greedily over the source's arcs in CSR order.  The budget can
        # under-shoot when the flooded excess hits interior bottlenecks
        # while other source arcs could still route, so after each attempt
        # the residual reachability of the sink is checked (the same BFS
        # that certifies the min cut): still reachable ⇒ flood everything
        # that is left and run again — the second attempt is the classic
        # fully-flooded algorithm, whose termination guarantees the cut.
        cap_backup = caps.copy() if self.deadline is not None else None
        try:
            self._flood_attempts(
                caps, targets, excess, height, interior, relabel_trigger,
                src_segment, big,
            )
        except DeadlineExceeded:
            # Roll the zero-copy residual state back to the entry flow: a
            # mid-phase preflow is not a feasible flow and must never be
            # left behind for a warm retune to continue from.
            caps[:] = cap_backup
            self._seen = None
            raise

        return float(excess[sink])

    def _flood_attempts(
        self,
        caps: np.ndarray,
        targets: np.ndarray,
        excess: np.ndarray,
        height: np.ndarray,
        interior: np.ndarray,
        relabel_trigger: int,
        src_segment: np.ndarray,
        big: np.int64,
    ) -> None:
        """The budgeted-flood / certify loop of :meth:`max_flow` (see there)."""
        sink = self.sink
        for attempt in range(3):
            src_live = src_segment[caps[src_segment] > EPSILON]
            if src_live.size:
                src_caps = caps[src_live]
                sink_in = float(caps[np.flatnonzero(targets == sink)].sum())
                total_src = float(src_caps.sum())
                if attempt == 0 and np.isfinite(sink_in) and np.isfinite(total_src):
                    # Proportional fill: spread the budget over every source
                    # arc instead of saturating the first few in CSR order —
                    # a retune opens sink-side headroom across *all* penalty
                    # arcs, so a spread flood routes in a couple of sweeps
                    # where a concentrated one thrashes against per-arc
                    # bottlenecks.
                    ratio = min(sink_in / total_src, 1.0) if total_src > 0.0 else 0.0
                    amounts = src_caps * ratio
                    chosen = np.flatnonzero(amounts > 0.0)
                    src_sel = src_live[chosen]
                    amounts = amounts[chosen]
                else:
                    src_sel = src_live
                    amounts = src_caps.copy()
                if src_sel.size:
                    caps[src_sel] -= amounts
                    caps[src_sel ^ 1] += amounts
                    np.add.at(excess, targets[src_sel], amounts)
                    self._tally_pushes(src_sel)
            if (excess[interior] > EPSILON).any():
                # Every attempt starts phase 1 from exact residual distance
                # labels.
                self._global_relabel(height, big)
                self._phase_one(height, excess, interior, relabel_trigger, big)
                self._cancel_stranded(excess, interior)
            self._seen = self._residual_seen()
            if not self._seen[sink]:
                break
        else:  # pragma: no cover - defensive: two attempts always certify
            raise FlowError(
                "numpy push-relabel failed to certify a minimum cut after a full flood"
            )

    def _phase_one(
        self,
        height: np.ndarray,
        excess: np.ndarray,
        interior: np.ndarray,
        relabel_trigger: int,
        big: np.int64,
    ) -> None:
        """Drive a maximum preflow into the sink (active nodes below height n).

        Only nodes below height ``n`` can still reach the sink, so
        everything at or above ``n`` is frozen; when no active node remains
        below ``n`` the preflow is maximum.  :meth:`_cancel_stranded` then
        converts it into a flow by cancelling the stranded excess along
        flow-carrying arcs (the flow-decomposition walk) instead of
        push-relabelling it back over height ``n`` — the climb that
        dominates the textbook single-phase variant.
        """
        network = self.network
        n = network.num_nodes
        m = len(self._pos_arc)
        limit = 2 * n
        caps = self._caps
        starts = self._starts
        pos_arc, pos_tail, pos_head = self._pos_arc, self._pos_tail, self._pos_head
        seg_starts, empty_seg = self._seg_starts, self._empty_seg
        pos_of_arc, counts = self._pos_of_arc, self._counts
        since_relabel = 0
        relabelled_nodes = 0
        stalled = False
        pos_caps = caps[pos_arc]
        while True:
            if self.deadline is not None:
                # Cooperative cancellation checkpoint (one per superstep);
                # max_flow's backup/restore undoes the in-place writes.
                self.deadline.check("numpy-push-relabel superstep")
            active = interior & (height < n) & (excess > EPSILON)
            active_nodes = np.flatnonzero(active)
            if not active_nodes.size:
                break
            if since_relabel >= GLOBAL_RELABEL_INTERVAL or relabelled_nodes >= relabel_trigger:
                self._global_relabel(height, big)
                since_relabel = 0
                relabelled_nodes = 0
                continue
            since_relabel += 1

            # Saturation-sweep push: every active node discharges along ALL
            # of its admissible arcs at once, greedily in CSR order.  The
            # per-arc amounts come from a per-segment exclusive prefix sum
            # of the admissible capacities clipped against the node's
            # excess — arc i of a node receives
            # ``clip(excess - prefix_before_i, 0, cap_i)`` — which is
            # exactly the greedy sequential fill, computed in bulk.
            #
            # Two layouts of the same superstep: a *dense* one over all m
            # CSR positions (right after a flood, when most nodes hold
            # excess), and a *frontier-sparse* one over just the active
            # nodes' CSR segments — warm retune solves quickly shrink to a
            # handful of active nodes, where scanning all m arcs per
            # superstep would dwarf the actual work.
            seg_cnt = counts[active_nodes]
            sub_total = int(seg_cnt.sum())
            sparse = 4 * sub_total < m
            progressed = False
            if sparse:
                if sub_total == 0:
                    # Active nodes without a single arc can never discharge;
                    # freeze them (cannot happen on preflows, where excess
                    # always arrives over a twin arc — defensive).
                    height[active_nodes] = limit + 1
                    relabelled_nodes += int(active_nodes.size)
                    continue
                # Concatenate the active nodes' CSR segments: position index
                # built from a ragged arange (global arange minus each
                # segment's running offset).
                sub_off = np.cumsum(seg_cnt) - seg_cnt
                sub_pos = (
                    np.arange(sub_total, dtype=np.int64)
                    - np.repeat(sub_off, seg_cnt)
                    + np.repeat(starts[active_nodes], seg_cnt)
                )
                safe_off = np.minimum(sub_off, sub_total - 1)
                sub_empty = seg_cnt == 0
                # reduceat boundaries: only segments whose true offset is in
                # range; clipping trailing empties into the last segment
                # would truncate it (see numpy_position_index).
                valid_sub = int(np.searchsorted(sub_off, sub_total, side="left"))

                def sub_reduce(op: np.ufunc, values: np.ndarray, fill) -> np.ndarray:
                    """Per-active-node reduceat over the concatenated segments."""
                    out = np.full(active_nodes.size, fill, dtype=values.dtype)
                    if valid_sub:
                        out[:valid_sub] = op.reduceat(values, sub_off[:valid_sub])
                    out[sub_empty] = fill
                    return out
                sub_arc = pos_arc[sub_pos]
                sub_caps = caps[sub_arc]
                sub_head = pos_head[sub_pos]
                h_head = height[sub_head]
                h_tail = np.repeat(height[active_nodes], seg_cnt)
                admissible = (sub_caps > EPSILON) & (h_tail == h_head + 1)
                adm_caps = np.where(admissible, sub_caps, 0.0)
                exc_active = excess[active_nodes]
                fill_caps = np.minimum(adm_caps, max(float(exc_active.max()), 1.0))
                cum = np.cumsum(fill_caps)
                exclusive = cum - fill_caps
                prefix = np.maximum(
                    exclusive - np.repeat(exclusive[safe_off], seg_cnt), 0.0
                )
                room = np.repeat(exc_active, seg_cnt)
                delta = np.minimum(np.maximum(room - prefix, 0.0), adm_caps)
                pushed = np.flatnonzero(delta > 0.0)
                if pushed.size:
                    sel_arcs = sub_arc[pushed]
                    twins = sel_arcs ^ 1
                    moved = delta[pushed]
                    caps[sel_arcs] -= moved
                    caps[twins] += moved
                    excess[active_nodes] -= sub_reduce(np.add, delta, 0.0)
                    np.add.at(excess, sub_head[pushed], moved)
                    self._tally_pushes(sel_arcs)
                    # Keep the dense pos_caps mirror coherent for later
                    # dense supersteps.
                    pos_caps[sub_pos[pushed]] = caps[sel_arcs]
                    pos_caps[pos_of_arc[twins]] = caps[twins]
                    sub_caps = caps[sub_arc]
                    progressed = True

                still = (
                    interior[active_nodes]
                    & (height[active_nodes] < n)
                    & (excess[active_nodes] > EPSILON)
                )
                if still.any():
                    head_h = np.where(sub_caps > EPSILON, h_head, big)
                    seg_min = sub_reduce(np.minimum, head_h, big)
                    relabel = still & (seg_min >= height[active_nodes])
                    if relabel.any():
                        nodes = active_nodes[relabel]
                        height[nodes] = np.minimum(seg_min[relabel] + 1, limit + 1)
                        relabelled_nodes += int(nodes.size)
                        progressed = True
                        self._gap_lift(height, n)
            else:
                h_head = height[pos_head]
                admissible = (
                    (pos_caps > EPSILON)
                    & active[pos_tail]
                    & (height[pos_tail] == h_head + 1)
                )
                adm_caps = np.where(admissible, pos_caps, 0.0)
                # The prefix sum must stay finite under INFINITY capacities;
                # any surrogate at least as large as a node's excess fills
                # the same way (later arcs see a prefix >= excess and carry
                # nothing), so clip at the largest excess for the cumsum.
                fill_caps = np.minimum(adm_caps, max(float(excess.max()), 1.0))
                cum = np.cumsum(fill_caps)
                exclusive = cum - fill_caps
                # Clamp: differences of one global cumsum can go a few ulps
                # negative, which would overfill a segment's first arc.
                prefix = np.maximum(
                    exclusive - np.repeat(exclusive[seg_starts], counts), 0.0
                )
                room = np.repeat(excess, counts)
                delta = np.minimum(np.maximum(room - prefix, 0.0), adm_caps)
                pushed = np.flatnonzero(delta > 0.0)
                if pushed.size:
                    sel_arcs = pos_arc[pushed]
                    twins = sel_arcs ^ 1
                    moved = delta[pushed]
                    caps[sel_arcs] -= moved
                    caps[twins] += moved
                    excess -= self._segment_reduce(np.add, delta, 0.0)
                    np.add.at(excess, pos_head[pushed], moved)
                    self._tally_pushes(sel_arcs)
                    # Incremental residual-capacity maintenance: only the
                    # pushed arcs and their twins changed.
                    pos_caps[pushed] = caps[sel_arcs]
                    pos_caps[pos_of_arc[twins]] = caps[twins]
                    progressed = True

                # Relabel every still-active node with no admissible arc left.
                still = interior & (height < n) & (excess > EPSILON)
                if still.any():
                    head_h = np.where(pos_caps > EPSILON, h_head, big)
                    seg_min = self._segment_reduce(np.minimum, head_h, big)
                    # Under a valid labelling, "min residual head height >=
                    # own height" is exactly "no admissible arc".
                    relabel = still & (seg_min >= height)
                    if relabel.any():
                        height[relabel] = np.minimum(seg_min[relabel] + 1, limit + 1)
                        relabelled_nodes += int(relabel.sum())
                        progressed = True
                        self._gap_lift(height, n)

            if not progressed:
                # No push and no relabel can only mean the labelling drifted
                # invalid (float pathology): restore exact labels once, and
                # fail loudly rather than spin if that does not unblock.
                if stalled:
                    raise FlowError(
                        "numpy push-relabel made no progress with active excess; "
                        "the height labelling is inconsistent with the residual graph"
                    )
                stalled = True
                self._global_relabel(height, big)
                since_relabel = 0
                relabelled_nodes = 0
            else:
                stalled = False

    def _segment_reduce(self, op: np.ufunc, values: np.ndarray, fill) -> np.ndarray:
        """Per-node ``op.reduceat`` over the CSR segments of ``values``.

        Runs over the true segment boundaries of the leading non-trailing
        segments and fills everything else — trailing arc-less nodes and
        empty middle segments — with ``fill``.
        """
        out = np.full(self.network.num_nodes, fill, dtype=values.dtype)
        if self._valid_segments:
            out[: self._valid_segments] = op.reduceat(values, self._reduce_starts)
        out[self._empty_seg] = fill
        return out

    def _gap_lift(self, height: np.ndarray, n: int) -> None:
        """Gap heuristic: any empty level below ``n`` strands every node above it.

        A residual path to the sink descends at most one level per arc, so
        it must pass through every level below its start — an empty level
        ``g < n`` therefore proves that nodes with ``g < h < n`` can never
        reach the sink again; they are lifted past ``n`` in bulk.
        """
        levels = np.bincount(np.minimum(height, n), minlength=n + 1)
        gaps = np.flatnonzero(levels[:n] == 0)
        if gaps.size:
            lifted = (height > gaps[0]) & (height < n)
            if lifted.any():
                height[lifted] = n + 1

    def _cancel_stranded(self, excess: np.ndarray, interior: np.ndarray) -> None:
        """Phase 2: cancel stranded excess back along flow-carrying arcs.

        The preflow is maximum when this runs; every surplus node has a flow
        path from the source (flow decomposition), so the cancellation walk
        always succeeds.  The cancelled per-arc updates count towards
        ``arcs_pushed`` exactly like the scalar solver's return-phase
        pushes.  The stranded entries are zeroed so a fallback flood attempt
        starts from a clean excess vector.
        """
        stranded = np.flatnonzero(interior & (excess > 0.0))
        if stranded.size:
            self.network._return_excess_vectorised(
                list(zip(stranded.tolist(), excess[stranded].tolist())),
                self.source,
                on_moves=self._tally_pushes,
            )
            excess[stranded] = 0.0

    def _tally_pushes(self, sel_arcs: np.ndarray) -> None:
        """Count a bulk push's arcs, splitting them per owner when batched."""
        self.arcs_pushed += int(sel_arcs.size)
        if self.arc_owner is not None:
            self.owner_pushes += np.bincount(
                self.arc_owner[sel_arcs], minlength=self.owner_pushes.size
            )

    def _residual_seen(self) -> np.ndarray:
        """Boolean mask of nodes residual-reachable from the source (BFS)."""
        caps, pos_arc = self._caps, self._pos_arc
        pos_tail, pos_head = self._pos_tail, self._pos_head
        residual = caps[pos_arc] > EPSILON
        seen = np.zeros(self.network.num_nodes, dtype=bool)
        seen[self.source] = True
        while True:
            frontier = residual & seen[pos_tail] & ~seen[pos_head]
            hits = pos_head[frontier]
            if hits.size == 0:
                return seen
            seen[hits] = True

    def min_cut_source_side(self) -> list[int]:
        """Source side of the canonical minimum cut (valid after :meth:`max_flow`).

        Vectorised residual BFS from the source using the same ``EPSILON``
        threshold as :meth:`FlowNetwork.residual_reachable
        <repro.flow.network.FlowNetwork.residual_reachable>`, so the returned
        node list is bit-identical to every scalar solver's.  The BFS is the
        same reachability pass that certified the cut at the end of
        :meth:`max_flow`, so its cached result is reused.
        """
        network = self.network
        if self._caps is None:
            # max_flow() has not run; fall back to the network's scalar walk.
            reachable = network.residual_reachable(self.source)
            return [node for node, flag in enumerate(reachable) if flag]
        if self._seen is None:
            self._seen = self._residual_seen()
        return np.flatnonzero(self._seen).tolist()

    # ------------------------------------------------------------------
    def _global_relabel(self, height: np.ndarray, big: np.int64) -> None:
        """Merge exact residual BFS distance labels into ``height`` (in place).

        Nodes that can reach the sink get ``d(v, t)``; the rest get ``n +
        d(v, s)`` (a node holding excess always has a residual path back to
        the source, and — because reaching a sink-labelled node would make it
        sink-reaching itself — that path stays inside the unlabelled set, so
        the second BFS finds it).  Both BFS passes advance one level per
        iteration with full-array masks.  The merge uses ``numpy.maximum``:
        the elementwise max of two valid labellings is valid, and labels stay
        monotone non-decreasing, which the termination argument needs.
        """
        n = self.network.num_nodes
        limit = 2 * n
        residual = self._caps[self._pos_arc] > EPSILON
        fresh = np.full(n, big, dtype=np.int64)
        fresh[self.sink] = 0
        # The source label is pinned at n *before* the sink BFS: with a
        # budgeted flood the source may keep residual outgoing arcs, and
        # distances measured through the source would let interior nodes
        # aim their pushes at it instead of at the sink.
        fresh[self.source] = n
        self._bfs_levels(fresh, residual, level=0, big=big)
        self._bfs_levels(fresh, residual, level=n, big=big)
        np.minimum(fresh, limit + 1, out=fresh)
        np.maximum(height, fresh, out=height)
        height[self.sink] = 0
        height[self.source] = n
        self.global_relabels += 1

    def _bfs_levels(
        self, levels: np.ndarray, residual: np.ndarray, level: int, big: np.int64
    ) -> None:
        """Backward residual BFS: label unlabelled tails of arcs into ``level``.

        An arc ``(u, v)`` with residual capacity lets ``u`` step towards
        whatever ``v`` reaches, so each iteration labels every still-``big``
        tail whose head sits on the current level.
        """
        pos_tail, pos_head = self._pos_tail, self._pos_head
        while True:
            frontier = residual & (levels[pos_head] == level) & (levels[pos_tail] == big)
            hits = pos_tail[frontier]
            if hits.size == 0:
                return
            levels[hits] = level + 1
            level += 1


def numpy_push_relabel_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run the vectorised backend and return the flow value."""
    return NumpyPushRelabelSolver(network, source, sink).max_flow()
