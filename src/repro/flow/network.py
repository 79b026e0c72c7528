"""Residual flow-network representation shared by all max-flow solvers.

The network stores arcs in a flat list where arc ``i`` and arc ``i ^ 1`` are
mutual residuals (the classic pairing trick), so pushing flow on an arc and
its reverse is an O(1) index operation.  Capacities are floats because the
DDS reduction uses capacities such as ``g / sqrt(a)``; all solvers treat
residual capacities below :data:`EPSILON` as zero to keep floating-point
noise from creating phantom augmenting paths.

Storage is CSR-style and array-backed: arc targets/tails live in
``array('q')`` buffers and capacities in ``array('d')`` buffers, with the
per-node adjacency expressed as slices ``csr_order[csr_starts[u] :
csr_starts[u + 1]]`` over a flat arc-index array rather than a list of
Python lists.  The CSR index is (re)built lazily after construction, so
``add_edge`` stays O(1) amortised and a built network can be retuned
(capacities updated in place via :meth:`set_capacity` + :meth:`reset_flow`)
and re-solved without ever touching the topology again — the hot pattern in
the fixed-ratio searches of the exact DDS algorithms.

The residual capacities are also the start state of every solve: each
registered solver continues from the flow they encode (zero on a freshly
built network or after :meth:`reset_flow`) and returns the *total* flow
value.  A retune that keeps the flow
(:meth:`set_capacity_preserving_flow` plus :meth:`return_excess`) therefore
leaves the next solve only the difference to push.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import FlowError

try:  # optional vectorised fast paths; everything works scalar without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None

#: Capacity used for "uncuttable" arcs.
INFINITY = float("inf")

#: Residual capacities smaller than this are treated as zero.
EPSILON = 1e-9


@dataclass(frozen=True)
class Arc:
    """Read-only view of one arc (used for inspection and debugging)."""

    source: int
    target: int
    capacity: float
    flow: float


class FlowNetwork:
    """A directed flow network over nodes ``0 .. num_nodes-1``.

    Examples
    --------
    >>> net = FlowNetwork(4)
    >>> _ = net.add_edge(0, 1, 3.0)
    >>> _ = net.add_edge(1, 3, 2.0)
    >>> from repro.flow import dinic_max_flow
    >>> dinic_max_flow(net, 0, 3)
    2.0
    """

    __slots__ = (
        "num_nodes",
        "_to",
        "_cap",
        "_base",
        "_tails",
        "_csr_starts",
        "_csr_order",
        "_csr_dirty",
        "_csr_lists",
        "_np_views",
    )

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise FlowError(f"num_nodes must be >= 0, got {num_nodes}")
        self.num_nodes = num_nodes
        self._to = array("q")
        self._cap = array("d")
        self._base = array("d")  # original capacities (reverse arcs hold 0.0)
        self._tails = array("q")
        self._csr_starts = array("q", bytes(8 * (num_nodes + 1)))
        self._csr_order = array("q")
        self._csr_dirty = False
        self._csr_lists: tuple[list[list[int]], list[int]] | None = None
        self._np_views: tuple | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append a new node and return its index."""
        self.num_nodes += 1
        self._csr_dirty = True
        self._np_views = None
        return self.num_nodes - 1

    def add_edge(self, source: int, target: int, capacity: float) -> int:
        """Add arc ``source -> target`` with ``capacity`` (reverse gets 0).

        Returns the arc index, which can be passed to :meth:`arc_flow`.
        """
        self._check_node(source)
        self._check_node(target)
        if capacity < 0:
            raise FlowError(f"capacity must be >= 0, got {capacity}")
        arc_index = len(self._to)
        capacity = float(capacity)
        # Drop our cached numpy views before resizing: a live buffer export
        # would make the appends below raise BufferError.  (Views handed out
        # by numpy_csr() and still held by callers do keep the buffers
        # pinned — growing a network mid-solve is an error either way.)
        self._np_views = None
        appends = (
            (self._to, target),
            (self._cap, capacity),
            (self._base, capacity),
            (self._tails, source),
            (self._to, source),
            (self._cap, 0.0),
            (self._base, 0.0),
            (self._tails, target),
        )
        done = 0
        try:
            for buffer, value in appends:
                buffer.append(value)
                done += 1
        except BufferError:
            # A caller-held view pins one of the buffers mid-sequence; the
            # parallel arrays must stay aligned, so undo the partial appends
            # (only non-pinned buffers were touched, so the pops succeed)
            # before re-raising.
            for buffer, _ in reversed(appends[:done]):
                buffer.pop()
            raise
        self._csr_dirty = True
        return arc_index

    def append_paired_arcs(self, tails, targets, capacities, base_capacities) -> int:
        """Bulk-append already-paired arcs and return the first new arc index.

        The four sequences are *arc-indexed* (not edge-indexed): position
        ``i`` and ``i ^ 1`` must already be residual twins, exactly as the
        flat buffers store them — this is the fast path the block-diagonal
        stacking layer uses to copy whole member networks (whose buffers are
        already interleaved) into one big network without a per-edge
        ``add_edge`` loop.  All four sequences must have the same even
        length; with numpy each column is copied in with one ``tobytes``,
        without it element-wise.  Every endpoint is range-checked (on the
        numpy columns when numpy is present) before anything is appended, so
        a rejected call leaves the network untouched.
        """
        length = len(tails)
        if length % 2 != 0:
            raise FlowError("append_paired_arcs expects an even number of arcs")
        if not (len(targets) == len(capacities) == len(base_capacities) == length):
            raise FlowError("append_paired_arcs sequences must have equal lengths")
        endpoints = ()
        if _np is not None:
            tails = _np.ascontiguousarray(tails, dtype=_np.int64)
            targets = _np.ascontiguousarray(targets, dtype=_np.int64)
            columns = (
                (self._to, targets.tobytes()),
                (self._cap, _np.ascontiguousarray(capacities, dtype=_np.float64).tobytes()),
                (self._base, _np.ascontiguousarray(base_capacities, dtype=_np.float64).tobytes()),
                (self._tails, tails.tobytes()),
            )
            if length:
                endpoints = (tails.min(), tails.max(), targets.min(), targets.max())
        else:
            tails = [int(value) for value in tails]
            targets = [int(value) for value in targets]
            columns = (
                (self._to, array("q", targets).tobytes()),
                (self._cap, array("d", (float(value) for value in capacities)).tobytes()),
                (self._base, array("d", (float(value) for value in base_capacities)).tobytes()),
                (self._tails, array("q", tails).tobytes()),
            )
            if length:
                endpoints = (min(tails), max(tails), min(targets), max(targets))
        for node in endpoints:
            self._check_node(int(node))
        first_index = len(self._to)
        # Same BufferError discipline as add_edge: drop cached views first,
        # and keep the parallel buffers aligned if a pinned buffer raises.
        self._np_views = None
        done: list[array] = []
        try:
            for buffer, column in columns:
                buffer.frombytes(column)
                done.append(buffer)
        except BufferError:
            for buffer in reversed(done):
                del buffer[first_index:]
            raise
        self._csr_dirty = True
        return first_index

    def arc_state_views(self) -> tuple:
        """Read-only ``memoryview``s ``(tails, targets, capacities, base)``.

        Zero-copy exports of the flat paired-arc buffers in the exact shape
        :meth:`append_paired_arcs` (and :meth:`attach_paired_arcs`) accept —
        int64 tails/targets, float64 capacities/base — so a network's arc
        state can be copied into another process's network, or published
        into a shared-memory segment, without materialising Python objects
        per arc.  The views pin the underlying buffers: release them (or
        drop them) before the next topology mutation, which needs to resize
        those buffers.
        """
        return (
            memoryview(self._tails),
            memoryview(self._to),
            memoryview(self._cap),
            memoryview(self._base),
        )

    @classmethod
    def attach_paired_arcs(
        cls, num_nodes: int, tails, targets, capacities, base_capacities
    ) -> "FlowNetwork":
        """Build a network by *reading* arc buffers mapped elsewhere.

        The read-only attach path of the process-pool executor: the four
        arc-indexed sequences — typically ``memoryview`` casts or numpy
        views over a shared-memory segment, shaped exactly like
        :meth:`arc_state_views` — are bulk-copied through
        :meth:`append_paired_arcs` into a fresh network that owns its own
        buffers.  The source is never written (solvers mutate only the new
        network's capacity copy), so any number of processes can attach to
        one published segment concurrently and still satisfy the
        bit-identity guarantees: an attached network's :meth:`numpy_csr`
        views are element-for-element identical to the publisher's.
        """
        network = cls(num_nodes)
        network.append_paired_arcs(tails, targets, capacities, base_capacities)
        return network

    def clone(self) -> "FlowNetwork":
        """Deep copy of the topology *and* the current residual state.

        The flat arc buffers are copied, so retunes and solves on the clone
        never touch the original (and vice versa); the CSR index and the
        list/numpy views are per-instance caches and are rebuilt lazily on
        the clone.  This is how the incremental layer seeds a
        ``top_k`` round's working cache from the session's warm networks
        without corrupting them.
        """
        twin = FlowNetwork(self.num_nodes)
        twin._to = array("q", self._to)
        twin._cap = array("d", self._cap)
        twin._base = array("d", self._base)
        twin._tails = array("q", self._tails)
        twin._csr_dirty = True
        return twin

    def set_capacity(self, arc_index: int, capacity: float) -> None:
        """Replace the original capacity of forward arc ``arc_index`` in place.

        The residual state of the arc is reset (full capacity forward, zero
        backward); callers that retune several arcs between solver runs should
        finish with :meth:`reset_flow` so the untouched arcs are reset too.
        The network topology is untouched, so the CSR index stays valid.
        """
        if arc_index % 2 != 0:
            raise FlowError("set_capacity expects the index returned by add_edge (even)")
        if capacity < 0:
            raise FlowError(f"capacity must be >= 0, got {capacity}")
        capacity = float(capacity)
        self._base[arc_index] = capacity
        self._cap[arc_index] = capacity
        self._cap[arc_index + 1] = 0.0

    def set_capacity_preserving_flow(self, arc_index: int, capacity: float) -> float:
        """Replace the capacity of forward arc ``arc_index``, keeping its flow.

        This is the warm-start counterpart of :meth:`set_capacity`: the flow
        currently routed on the arc survives the capacity change.  When the
        new capacity is below the current flow, the flow is clamped down to
        the new capacity and the clamped amount is returned — flow
        conservation at the arc's tail is then broken by exactly that excess,
        and the caller must repair it (see :meth:`return_excess`).  Returns
        0.0 when the existing flow already fits under the new capacity.
        """
        if arc_index % 2 != 0:
            raise FlowError(
                "set_capacity_preserving_flow expects the index returned by add_edge (even)"
            )
        if capacity < 0:
            raise FlowError(f"capacity must be >= 0, got {capacity}")
        capacity = float(capacity)
        flow = self._cap[arc_index + 1]
        self._base[arc_index] = capacity
        if flow <= capacity:
            self._cap[arc_index] = capacity - flow
            return 0.0
        self._cap[arc_index] = 0.0
        self._cap[arc_index + 1] = capacity
        return flow - capacity

    def withdraw_flow(self, arc_index: int, amount: float) -> None:
        """Cancel ``amount`` units of flow on forward arc ``arc_index`` in place.

        The inverse of pushing flow on one arc: the forward residual grows by
        ``amount`` and the reverse residual (which *is* the arc's flow)
        shrinks by the same.  Conservation is intentionally broken at both
        endpoints — the tail is left with an inflow surplus and the head with
        a deficit — so this is a surgical primitive for callers that repair
        the imbalance themselves (the incremental decision-network patcher
        cancels a deleted edge's flow here and walks the tail surplus back to
        the source via :meth:`return_excess`).  Raises if the arc carries
        less than ``amount`` flow (beyond float noise); sub-noise overshoot
        is clamped so retune loops cannot accumulate negative flow.
        """
        if arc_index % 2 != 0:
            raise FlowError("withdraw_flow expects the index returned by add_edge (even)")
        if amount < 0:
            raise FlowError(f"amount must be >= 0, got {amount}")
        flow = self._cap[arc_index + 1]
        if amount > flow + EPSILON:
            raise FlowError(
                f"cannot withdraw {amount!r} from arc {arc_index} carrying {flow!r}"
            )
        amount = min(float(amount), flow)
        self._cap[arc_index + 1] = flow - amount
        self._cap[arc_index] += amount

    def return_excess(self, excess: list[tuple[int, float]], source: int) -> float:
        """Restore flow conservation by pushing node excesses back to ``source``.

        ``excess`` lists ``(node, amount)`` pairs of inflow surpluses (as
        produced by clamping in :meth:`set_capacity_preserving_flow`).  Each
        surplus is cancelled against arcs that currently carry flow *into*
        the node, walking backwards along flow-carrying paths until the
        excess is absorbed at the source — turning a clamped preflow back
        into a valid flow whose value is lower by the returned total.

        The walk terminates because it strictly cancels path flow; it assumes
        the current flow is acyclic (always true on DAG networks such as the
        DDS decision networks, and for any flow produced by augmenting-path
        solvers).  Even sub-``EPSILON`` excesses are walked back while
        matching inflow exists — cached networks are retuned indefinitely
        across a session's lifetime, so tiny imbalances must not be allowed
        to accumulate.  Raises :class:`FlowError` if an excess beyond float
        noise cannot be returned, which indicates the residual state was not
        a clamped valid flow.

        When numpy is importable the walk runs as round-based bulk array
        operations (:meth:`_return_excess_vectorised`) — per round, every
        surplus cancels greedily against its node's flow-carrying incoming
        arcs in the same CSR order the scalar walk scans, so the two paths
        route the cancellation along the same arcs.
        """
        self._check_node(source)
        if _np is not None and len(self._to):
            return self._return_excess_vectorised(excess, source)
        heads, targets = self.solver_views()
        cap = self._cap
        returned = 0.0
        stack = [(node, amount) for node, amount in excess if amount > 0.0]
        while stack:
            node, amount = stack.pop()
            if node == source:
                returned += amount
                continue
            self._check_node(node)
            remaining = amount
            for arc_index in heads[node]:
                if remaining <= 0.0:
                    break
                # Odd arcs are residual twins: positive capacity there means
                # flow on the forward arc ``arc_index ^ 1`` *into* this node.
                if arc_index & 1 and cap[arc_index] > 0.0:
                    delta = min(remaining, cap[arc_index])
                    cap[arc_index] -= delta
                    cap[arc_index ^ 1] += delta
                    stack.append((targets[arc_index], delta))
                    remaining -= delta
            if remaining > EPSILON:
                raise FlowError(
                    f"cannot return {remaining!r} units of excess from node {node}: "
                    "no flow-carrying incoming arcs (residual state is not a clamped flow)"
                )
        return returned

    def _return_excess_vectorised(
        self,
        excess: list[tuple[int, float]],
        source: int,
        on_moves: "object | None" = None,
    ) -> float:
        """Bulk-array implementation of the excess-return walk (numpy present).

        Round-based: each round cancels every surplus-holding node against
        its flow-carrying incoming arcs (positive-capacity odd twins),
        greedily in CSR order via a per-segment exclusive prefix sum, and
        scatters the cancelled amounts onto the predecessor nodes as the
        next round's surpluses — excess hops one arc towards the source per
        round instead of one arc per interpreted loop iteration.  A round
        that can move nothing while an above-``EPSILON`` surplus remains
        raises :class:`FlowError`, mirroring the scalar walk.

        ``on_moves``, when given, is called once per round with the array of
        arc indices whose residuals the round updated — the hook the
        vectorised solver uses to keep its ``arcs_pushed`` counter (and,
        for block-diagonal batched networks, its per-owner push attribution)
        honest when it reuses this walk as the second phase of the preflow
        algorithm.
        """
        starts, order, _, caps, _, _ = self.numpy_csr()
        _, pos_head, seg_starts, empty_seg, _, counts, valid_segments = (
            self.numpy_position_index()
        )
        # True (unclipped) reduceat boundaries of the non-trailing-empty
        # segments; trailing arc-less nodes are covered by the zero fill.
        reduce_starts = starts[:valid_segments]
        exc = _np.zeros(self.num_nodes, dtype=_np.float64)
        for node, amount in excess:
            self._check_node(node)
            if amount > 0.0:
                exc[node] += amount
        pos_odd = (order & 1) == 1
        returned = 0.0
        while True:
            if exc[source] > 0.0:
                returned += float(exc[source])
                exc[source] = 0.0
            if not (exc > 0.0).any():
                return returned
            pos_caps = caps[order]
            # Odd arcs with positive capacity are residual twins: capacity
            # there is flow on the forward arc *into* this position's tail.
            cand = _np.where(pos_odd & (pos_caps > 0.0), pos_caps, 0.0)
            cum = _np.cumsum(cand)
            exclusive = cum - cand
            # The per-segment prefix comes from differences of one global
            # cumsum; rounding can leave it a few ulps negative, which would
            # manufacture phantom surplus at zero-excess nodes — clamp.
            prefix = _np.maximum(
                exclusive - _np.repeat(exclusive[seg_starts], counts), 0.0
            )
            room = _np.repeat(exc, counts)
            delta = _np.minimum(_np.maximum(room - prefix, 0.0), cand)
            moved_positions = _np.flatnonzero(delta > 0.0)
            if moved_positions.size == 0:
                stuck = float(exc.max())
                if stuck > EPSILON:
                    node = int(exc.argmax())
                    raise FlowError(
                        f"cannot return {stuck!r} units of excess from node {node}: "
                        "no flow-carrying incoming arcs (residual state is not a clamped flow)"
                    )
                return returned
            arcs = order[moved_positions]
            moved = delta[moved_positions]
            caps[arcs] -= moved
            caps[arcs ^ 1] += moved
            if on_moves is not None:
                on_moves(arcs)
            sent = _np.zeros(self.num_nodes, dtype=_np.float64)
            if valid_segments:
                sent[:valid_segments] = _np.add.reduceat(delta, reduce_starts)
            sent[empty_seg] = 0.0
            exc = _np.maximum(exc - sent, 0.0)
            _np.add.at(exc, pos_head[moved_positions], moved)

    def flow_value(self, source: int) -> float:
        """Net flow currently leaving ``source`` (the value of a valid flow).

        Computed from the residual state alone: forward arcs out of the
        source contribute the flow pushed onto their residual twins, forward
        arcs *into* the source subtract theirs.  Only meaningful when the
        residual state encodes a conservative flow (e.g. after a completed
        solve or a warm-start :meth:`~repro.core.flow_network.DecisionNetwork.retune`).
        """
        self._check_node(source)
        heads, _ = self.solver_views()
        cap = self._cap
        total = 0.0
        for arc_index in heads[source]:
            if arc_index & 1:
                total -= cap[arc_index]
            else:
                total += cap[arc_index ^ 1]
        return total

    # ------------------------------------------------------------------
    # solver-facing accessors (flat arrays for speed)
    # ------------------------------------------------------------------
    def csr(self) -> tuple[array, array, array, array]:
        """``(starts, order, targets, capacities)`` — the solver hot-path view.

        ``order[starts[u] : starts[u + 1]]`` lists the arc indices (forward
        and residual) leaving node ``u``; ``targets``/``capacities`` are
        indexed by arc index.  The index is rebuilt lazily if the topology
        changed since the last call.
        """
        if self._csr_dirty:
            self._rebuild_csr()
        return self._csr_starts, self._csr_order, self._to, self._cap

    def solver_views(self) -> tuple[list[list[int]], list[int]]:
        """``(heads, targets)`` as plain nested/flat lists, cached per topology.

        Indexing ``array`` objects boxes a fresh Python object per read, so
        the solvers run their inner loops over list snapshots of the CSR
        topology: ``heads[u]`` is the list of arc indices leaving ``u``
        (``csr_order`` sliced per node) and ``targets`` a flat list indexed
        by arc.  Capacities change between runs and are snapshotted by each
        solver individually.  The cache is invalidated whenever the topology
        changes, so building the view is O(m) once per network, not per
        max-flow call.
        """
        if self._csr_dirty or self._csr_lists is None:
            starts, order, _, _ = self.csr()
            heads = [
                order[starts[node] : starts[node + 1]].tolist()
                for node in range(self.num_nodes)
            ]
            self._csr_lists = (heads, self._to.tolist())
        return self._csr_lists

    def numpy_csr(self) -> tuple:
        """Zero-copy numpy views ``(starts, order, targets, capacities, tails, base)``.

        Every array is a ``numpy.frombuffer`` view over this network's flat
        CSR storage — ``int64`` over the ``array('q')`` buffers, ``float64``
        over the ``array('d')`` capacities — so vectorised solvers read *and
        write* the canonical residual state directly: a write through the
        capacities view is immediately visible via :attr:`arc_capacities`
        (and vice versa), with no snapshot or write-back step.  The views
        are cached per topology and rebuilt lazily, like :meth:`csr`.

        numpy is imported lazily here; callers are expected to be
        import-guarded themselves (see :mod:`repro.flow.registry`), so a
        missing numpy surfaces as the backend not being registered rather
        than as an import error in this core module.
        """
        import numpy

        if self._csr_dirty:
            self._rebuild_csr()
        if self._np_views is None:
            self._np_views = (
                numpy.frombuffer(self._csr_starts, dtype=numpy.int64),
                numpy.frombuffer(self._csr_order, dtype=numpy.int64),
                numpy.frombuffer(self._to, dtype=numpy.int64),
                numpy.frombuffer(self._cap, dtype=numpy.float64),
                numpy.frombuffer(self._tails, dtype=numpy.int64),
                numpy.frombuffer(self._base, dtype=numpy.float64),
            )
        return self._np_views[:6]

    def numpy_position_index(self) -> tuple:
        """Derived position-space index for vectorised per-node segment reductions.

        ``(pos_tail, pos_head, seg_starts, empty_seg, pos_of_arc, counts,
        valid_segments)``, all cached per topology: the tail/head node of
        the arc at each CSR position, gather-safe segment start indices
        (clipped to ``m - 1``, only ever dereferenced for segments that
        repeat a positive count) with the matching empty-segment mask, the
        inverse permutation mapping an arc index to its CSR position, the
        per-node arc counts (segment lengths), and the number of leading
        segments whose *true* start is below ``m``.  ``reduceat`` callers
        must slice the true ``starts`` to ``valid_segments`` — passing the
        clipped indices would silently truncate the last non-empty segment
        whenever trailing nodes have no arcs.  Unlike :meth:`numpy_csr`
        these are *computed* (O(m), once per topology), not views — they
        never change between retunes, which is exactly why they are cached
        on the network rather than rebuilt per solve.
        """
        import numpy

        views = self.numpy_csr()
        if len(self._np_views) == 6:
            starts, order, targets, _, tails, _ = views
            m = len(order)
            pos_tail = tails[order]
            pos_head = targets[order]
            seg_starts = numpy.minimum(starts[:-1], max(m - 1, 0))
            empty_seg = starts[:-1] == starts[1:]
            pos_of_arc = numpy.empty(m, dtype=numpy.int64)
            pos_of_arc[order] = numpy.arange(m, dtype=numpy.int64)
            counts = numpy.diff(starts)
            valid_segments = int(numpy.searchsorted(starts[:-1], m, side="left"))
            self._np_views = views + (
                pos_tail,
                pos_head,
                seg_starts,
                empty_seg,
                pos_of_arc,
                counts,
                valid_segments,
            )
        return self._np_views[6:]

    @property
    def heads(self) -> list[list[int]]:
        """Outgoing arc indices per node (includes residual arcs).

        Materialised from the CSR index (cached per topology); treat the
        returned lists as read-only.
        """
        return self.solver_views()[0]

    @property
    def arc_targets(self) -> array:
        """Target node of every arc (``array('q')``)."""
        return self._to

    @property
    def arc_capacities(self) -> array:
        """Mutable residual capacities of every arc (``array('d')``)."""
        return self._cap

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (2x the number of added edges)."""
        return len(self._to)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def arcs(self) -> Iterator[Arc]:
        """Iterate over the forward arcs with their current flow.

        The flow on a forward arc equals the residual capacity pushed back
        onto its reverse arc, which stays finite (and correct) even for
        infinite-capacity arcs where ``capacity - residual`` would be
        ``inf - inf = nan``.
        """
        for index in range(0, len(self._to), 2):
            yield Arc(
                source=self._tails[index],
                target=self._to[index],
                capacity=self._base[index],
                flow=self._cap[index + 1],
            )

    def arc_flow(self, arc_index: int) -> float:
        """Flow currently routed on the forward arc ``arc_index``."""
        if arc_index % 2 != 0:
            raise FlowError("arc_flow expects the index returned by add_edge (even)")
        return self._cap[arc_index + 1]

    def arc_base_capacity(self, arc_index: int) -> float:
        """Original (base) capacity of the forward arc ``arc_index``."""
        if arc_index % 2 != 0:
            raise FlowError(
                "arc_base_capacity expects the index returned by add_edge (even)"
            )
        return self._base[arc_index]

    def reset_flow(self) -> None:
        """Restore all residual capacities to the original capacities."""
        self._cap[:] = self._base

    def residual_reachable(self, source: int) -> list[bool]:
        """Nodes reachable from ``source`` using arcs with positive residual capacity.

        After a max-flow computation this is exactly the source side of a
        minimum cut.
        """
        self._check_node(source)
        heads, targets = self.solver_views()
        caps = self._cap.tolist()
        seen = [False] * self.num_nodes
        seen[source] = True
        stack = [source]
        while stack:
            node = stack.pop()
            for arc_index in heads[node]:
                if caps[arc_index] > EPSILON:
                    target = targets[arc_index]
                    if not seen[target]:
                        seen[target] = True
                        stack.append(target)
        return seen

    # ------------------------------------------------------------------
    def _rebuild_csr(self) -> None:
        """Recompute the per-node arc slices (counting sort by arc tail).

        With numpy available the counting sort is replaced by a stable
        ``argsort`` on the tail array — bit-identical output (a stable sort
        by tail *is* the counting sort: arcs keep their index order within
        each node's segment) without the per-arc interpreted loop, which
        matters for the block-diagonal batched networks whose CSR spans many
        stacked members.
        """
        num_nodes = self.num_nodes
        tails = self._tails
        if _np is not None and len(tails):
            np_tails = _np.frombuffer(tails, dtype=_np.int64)
            counts = _np.bincount(np_tails, minlength=num_nodes)
            starts_np = _np.zeros(num_nodes + 1, dtype=_np.int64)
            _np.cumsum(counts, out=starts_np[1:])
            order_np = _np.argsort(np_tails, kind="stable")
            starts = array("q")
            starts.frombytes(starts_np.tobytes())
            order = array("q")
            order.frombytes(_np.ascontiguousarray(order_np, dtype=_np.int64).tobytes())
        else:
            starts = array("q", bytes(8 * (num_nodes + 1)))
            for tail in tails:
                starts[tail + 1] += 1
            for node in range(num_nodes):
                starts[node + 1] += starts[node]
            order = array("q", bytes(8 * len(tails)))
            cursor = starts.tolist()
            for arc_index, tail in enumerate(tails):
                order[cursor[tail]] = arc_index
                cursor[tail] += 1
        self._csr_starts = starts
        self._csr_order = order
        self._csr_dirty = False
        self._csr_lists = None
        self._np_views = None

    def _original_capacity(self, forward_index: int) -> float:
        return self._base[forward_index]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise FlowError(f"node {node} out of range [0, {self.num_nodes})")
