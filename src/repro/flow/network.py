"""Residual flow-network representation the max-flow solver runs on.

The network stores arcs in a flat list where arc ``i`` and arc ``i ^ 1`` are
mutual residuals (the classic pairing trick), so pushing flow on an arc and
its reverse is an O(1) index operation.  Capacities are floats because the
DDS reduction uses capacities such as ``g / sqrt(a)``; the solver treats
residual capacities below :data:`EPSILON` as zero to keep floating-point
noise from creating phantom augmenting paths.

Storage is CSR-style and array-backed: arc targets/tails live in
``array('q')`` buffers and capacities in ``array('d')`` buffers, with the
per-node adjacency expressed as slices ``csr_order[csr_starts[u] :
csr_starts[u + 1]]`` over a flat arc-index array rather than a list of
Python lists.  The CSR index is (re)built lazily after construction, so
``add_edge`` stays O(1) amortised and a built network can be retuned (base
capacities rewritten in place through the zero-copy views of
:meth:`numpy_csr`, then :meth:`reset_flow`) and re-solved without ever
touching the topology again — the hot pattern in the fixed-ratio searches
of the exact DDS algorithms.

Networks that differ only in capacities can share one read-only
:class:`FlowTopology`: its arc targets and tails, its CSR index and the
solver's list views are built once, and every network made over it with
:meth:`FlowNetwork.over` allocates only its own two capacity buffers.  Such
a network cannot grow.

The residual capacities are also the start state of every solve: the
solver continues from the flow they encode (zero on a freshly
built network or after :meth:`reset_flow`, or a start flow a caller routed
since) and returns the *total* flow value.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.exceptions import FlowError

#: Capacity used for "uncuttable" arcs.
INFINITY = float("inf")

#: Residual capacities smaller than this are treated as zero.
EPSILON = 1e-9


def _int_buffer(values) -> array:
    """An ``array('q')`` holding ``values`` as int64."""
    buffer = array("q")
    buffer.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return buffer


def _view(buffer: array, dtype) -> np.ndarray:
    """A zero-copy numpy view of ``buffer``, or a fresh empty array if it is empty.

    An empty ``array`` that exports its buffer refuses even a same-size
    slice assignment, which would fail :meth:`FlowNetwork.reset_flow` and
    the solver's write-back on a network with no arcs; an empty view has
    nothing to share anyway.
    """
    return np.frombuffer(buffer, dtype=dtype) if len(buffer) else np.empty(0, dtype=dtype)


def _csr_index(tails: np.ndarray, num_nodes: int) -> tuple[array, array]:
    """``(starts, order)``: the arc indices stably sorted by tail, and each node's first.

    Arcs keep their index order within each node's segment, as a counting
    sort by tail would leave them.
    """
    starts = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=num_nodes), out=starts[1:])
    return _int_buffer(starts), _int_buffer(np.argsort(tails, kind="stable"))


def _solver_lists(starts: array, order: array, targets: array) -> tuple[list[list[int]], list[int]]:
    """``(heads, targets)`` as plain lists: each node's slice of ``order``, and the targets."""
    flat = order.tolist()
    bounds = starts.tolist()
    return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])], targets.tolist()


class FlowTopology:
    """Nodes and paired arcs that several flow networks share, read-only.

    Arc ``i`` runs from ``tails[i]`` to ``targets[i]`` and arc ``i ^ 1`` is
    its residual twin, as in a :class:`FlowNetwork`.  The topology builds
    its CSR index once, and the solver's list views
    (:meth:`FlowNetwork.solver_views`) on first use; the numpy views it
    hands out are read-only.  It holds no capacities: every network over
    it (:meth:`FlowNetwork.over`) has its own.
    """

    __slots__ = ("num_nodes", "_to", "_tails", "_csr_starts", "_csr_order", "_csr_lists", "_np_views")

    def __init__(self, num_nodes: int, tails, targets) -> None:
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if tails.shape != targets.shape or tails.ndim != 1 or tails.shape[0] % 2:
            raise FlowError("a topology needs tail and target columns of one even length")
        if tails.shape[0] and not (
            min(tails.min(), targets.min()) >= 0 and max(tails.max(), targets.max()) < num_nodes
        ):
            raise FlowError(f"an arc endpoint is out of range [0, {num_nodes})")
        self.num_nodes = num_nodes
        self._to = _int_buffer(targets)
        self._tails = _int_buffer(tails)
        self._csr_starts, self._csr_order = _csr_index(tails, num_nodes)
        self._csr_lists: tuple[list[list[int]], list[int]] | None = None
        views = tuple(
            _view(buffer, np.int64)
            for buffer in (self._csr_starts, self._csr_order, self._to, self._tails)
        )
        for view in views:
            view.flags.writeable = False
        self._np_views = views

    @property
    def num_arcs(self) -> int:
        """Number of arcs (2x the number of paired edges)."""
        return len(self._to)

    def numpy_views(self) -> tuple:
        """Read-only numpy views ``(starts, order, targets, tails)``."""
        return self._np_views

    def solver_views(self) -> tuple[list[list[int]], list[int]]:
        """``(heads, targets)`` as plain lists, built once (see :meth:`FlowNetwork.solver_views`)."""
        if self._csr_lists is None:
            self._csr_lists = _solver_lists(self._csr_starts, self._csr_order, self._to)
        return self._csr_lists


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
        "_topology",
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
        self._topology: FlowTopology | None = None

    @classmethod
    def over(cls, topology: FlowTopology, base_capacities) -> "FlowNetwork":
        """A network on ``topology``'s nodes and arcs with its own capacities, at zero flow.

        ``base_capacities`` is arc-indexed like the topology (residual twins
        hold 0.0) and is checked to be non-negative and not NaN.  The
        network keeps references to the topology's buffers and copies of
        the capacities, so networks over one topology never see each
        other's capacities or flow; it cannot grow (:meth:`add_edge` and
        :meth:`append_paired_arcs` raise :class:`~repro.exceptions.FlowError`).
        """
        base = np.ascontiguousarray(base_capacities, dtype=np.float64)
        if base.shape != (topology.num_arcs,):
            raise FlowError(f"expected {topology.num_arcs} capacities, got {base.shape}")
        # ``min`` propagates NaN, so one comparison rejects it.
        if base.shape[0] and not float(base.min()) >= 0:
            raise FlowError(f"capacity must be >= 0, got {float(base.min())}")
        network = cls(topology.num_nodes)
        network._topology = topology
        network._to = topology._to
        network._tails = topology._tails
        network._csr_starts = topology._csr_starts
        network._csr_order = topology._csr_order
        network._base.frombytes(base.tobytes())
        network._cap = array("d", network._base)
        return network

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check_growable(self) -> None:
        if self._topology is not None:
            raise FlowError("a network over a shared topology cannot gain arcs")

    def add_edge(self, source: int, target: int, capacity: float) -> int:
        """Add arc ``source -> target`` with ``capacity`` (reverse gets 0).

        Returns the arc index: the forward arc's, even, whose residual twin
        is the next one.
        """
        self._check_growable()
        self._check_node(source)
        self._check_node(target)
        if not capacity >= 0:
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
        flat buffers store them — this is how the build of a decision network
        (:func:`~repro.core.flow_network.build_decision_network`) loads whole
        arc columns without a per-edge ``add_edge`` loop.  All four sequences
        must have the same even length; each is converted to a numpy column
        and copied in with one ``tobytes``.  Every endpoint is range-checked
        and every capacity checked to be non-negative and not NaN before
        anything is appended, so a rejected call leaves the network
        untouched.
        """
        self._check_growable()
        length = len(tails)
        if length % 2 != 0:
            raise FlowError("append_paired_arcs expects an even number of arcs")
        if not (len(targets) == len(capacities) == len(base_capacities) == length):
            raise FlowError("append_paired_arcs sequences must have equal lengths")
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        caps = np.ascontiguousarray(capacities, dtype=np.float64)
        base = np.ascontiguousarray(base_capacities, dtype=np.float64)
        columns = (
            (self._to, targets.tobytes()),
            (self._cap, caps.tobytes()),
            (self._base, base.tobytes()),
            (self._tails, tails.tobytes()),
        )
        endpoints = ()
        lowest = 0.0  # the smallest capacity in either column, or a NaN one
        if length:
            endpoints = (tails.min(), tails.max(), targets.min(), targets.max())
            # ``minimum`` propagates NaN, so one comparison rejects it.
            lowest = float(np.minimum(caps.min(), base.min()))
        if not lowest >= 0:
            raise FlowError(f"capacity must be >= 0, got {lowest}")
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

    def flow_value(self, source: int) -> float:
        """Net flow currently leaving ``source`` (the value of a valid flow).

        Computed from the residual state alone: forward arcs out of the
        source contribute the flow pushed onto their residual twins, forward
        arcs *into* the source subtract theirs.  Only meaningful when the
        residual state encodes a conservative flow (e.g. after a completed
        solve).
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
        max-flow call; a network over a :class:`FlowTopology` uses the
        topology's, built once for all of them.
        """
        if self._topology is not None:
            return self._topology.solver_views()
        if self._csr_dirty or self._csr_lists is None:
            starts, order, targets, _ = self.csr()
            self._csr_lists = _solver_lists(starts, order, targets)
        return self._csr_lists

    def numpy_csr(self) -> tuple:
        """Zero-copy numpy views ``(starts, order, targets, capacities, tails, base)``.

        Every array is a ``numpy.frombuffer`` view over this network's flat
        CSR storage — ``int64`` over the ``array('q')`` buffers, ``float64``
        over the ``array('d')`` capacities — so vectorised callers (the
        penalty sweep and start flow of
        :class:`~repro.core.flow_network.DecisionNetwork`) read *and write*
        the canonical residual state directly: a write through the
        capacities view is immediately visible via :attr:`arc_capacities`
        (and vice versa), with no snapshot or write-back step.  The views
        are cached per topology and rebuilt lazily, like :meth:`csr`.  On a
        network over a :class:`FlowTopology` the four integer views are the
        topology's, and read-only.
        """
        if self._csr_dirty:
            self._rebuild_csr()
        if self._np_views is None:
            if self._topology is not None:
                starts, order, targets, tails = self._topology.numpy_views()
            else:
                starts, order, targets, tails = (
                    _view(buffer, np.int64)
                    for buffer in (self._csr_starts, self._csr_order, self._to, self._tails)
                )
            self._np_views = (
                starts,
                order,
                targets,
                _view(self._cap, np.float64),
                tails,
                _view(self._base, np.float64),
            )
        return self._np_views

    @property
    def arc_capacities(self) -> array:
        """Mutable residual capacities of every arc (``array('d')``)."""
        return self._cap

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (2x the number of added edges)."""
        return len(self._to)

    # ------------------------------------------------------------------
    # residual state
    # ------------------------------------------------------------------
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
        """Recompute the per-node arc slices (:func:`_csr_index`)."""
        tails = np.frombuffer(self._tails, dtype=np.int64)
        self._csr_starts, self._csr_order = _csr_index(tails, self.num_nodes)
        self._csr_dirty = False
        self._csr_lists = None
        self._np_views = None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise FlowError(f"node {node} out of range [0, {self.num_nodes})")
