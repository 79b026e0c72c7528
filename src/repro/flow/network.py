"""Residual flow networks the max-flow solver runs on.

A network is a :class:`FlowTopology` — nodes and paired arcs, read-only —
plus two numpy ``float64`` columns of its own: the base capacities and the
residual capacities.  Arc ``i`` and arc ``i ^ 1`` are mutual residuals (the
classic pairing trick), so pushing flow on an arc and its reverse is an O(1)
index operation.  Capacities are floats because the DDS reduction uses
capacities such as ``g / sqrt(a)``; the solver treats residual capacities
below :data:`EPSILON` as zero to keep floating-point noise from creating
phantom augmenting paths.

The topology sorts the arc indices by tail once, into a CSR index
(``order[starts[u] : starts[u + 1]]`` lists the arcs leaving ``u``), and
builds the solver's list views on first use.  Networks that differ only in
capacities share one topology, and each network over it
(``FlowNetwork(topology, base_capacities)``) allocates only its two
capacity columns.  A network is retuned by writing its base capacities in
place and calling :meth:`~FlowNetwork.reset_flow`, and then re-solved
without touching the topology — the hot pattern in the fixed-ratio
searches of the exact DDS algorithms.

The residual capacities are also the start state of every solve: the
solver continues from the flow they encode (zero on a freshly
built network or after :meth:`~FlowNetwork.reset_flow`, or a start flow a
caller routed since) and returns the *total* flow value.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError

#: Capacity used for "uncuttable" arcs.
INFINITY = float("inf")

#: Residual capacities smaller than this are treated as zero.
EPSILON = 1e-9


class FlowTopology:
    """Nodes ``0 .. num_nodes-1`` and paired arcs that flow networks share, read-only.

    Arc ``i`` runs from ``tails[i]`` to ``targets[i]`` and arc ``i ^ 1`` is
    its residual twin, running the other way.  The constructor copies both
    columns and checks that they pair up and stay in range.  ``tails``,
    ``targets`` and the CSR index ``starts`` / ``order`` (arc indices
    stably sorted by tail, so each node's arcs keep their index order) are
    read-only ``int64`` arrays.  The topology holds no capacities: every
    :class:`FlowNetwork` over it has its own.
    """

    __slots__ = ("num_nodes", "tails", "targets", "starts", "order", "_solver_lists")

    def __init__(self, num_nodes: int, tails, targets) -> None:
        if num_nodes < 0:
            raise FlowError(f"num_nodes must be >= 0, got {num_nodes}")
        tails = np.array(tails, dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)
        if tails.shape != targets.shape or tails.ndim != 1 or tails.shape[0] % 2:
            raise FlowError("a topology needs tail and target columns of one even length")
        if not (
            np.array_equal(tails[1::2], targets[0::2]) and np.array_equal(targets[1::2], tails[0::2])
        ):
            raise FlowError("arc i ^ 1 must run from targets[i] to tails[i]")
        # With the twins in place every endpoint is some arc's tail.
        if tails.shape[0] and not (tails.min() >= 0 and tails.max() < num_nodes):
            raise FlowError(f"an arc endpoint is out of range [0, {num_nodes})")
        starts = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=num_nodes), out=starts[1:])
        order = np.argsort(tails, kind="stable")
        for column in (tails, targets, starts, order):
            column.flags.writeable = False
        self.num_nodes = num_nodes
        self.tails = tails
        self.targets = targets
        self.starts = starts
        self.order = order
        self._solver_lists: tuple[list[list[int]], list[int]] | None = None

    @property
    def num_arcs(self) -> int:
        """Number of arcs (2x the number of paired edges)."""
        return self.tails.shape[0]

    def solver_views(self) -> tuple[list[list[int]], list[int]]:
        """``(heads, targets)`` as plain lists, built on first use.

        Indexing a numpy array boxes a fresh Python object per read, so the
        solvers run their inner loops over list snapshots of the topology:
        ``heads[u]`` is the list of arc indices leaving ``u`` (``order``
        sliced per node) and ``targets`` a flat list indexed by arc.
        Capacities change between runs and are snapshotted by each solver.
        """
        if self._solver_lists is None:
            flat = self.order.tolist()
            bounds = self.starts.tolist()
            self._solver_lists = (
                [flat[start:stop] for start, stop in zip(bounds, bounds[1:])],
                self.targets.tolist(),
            )
        return self._solver_lists


class FlowNetwork:
    """One flow problem's capacities over a :class:`FlowTopology`, with its residual state.

    ``base_capacities`` (residual twins hold 0.0) is checked to have one
    entry per arc, none negative or NaN (``+inf`` marks an uncuttable arc),
    and copied.  The network owns two arc-indexed ``float64`` columns:
    ``base_capacities``, which callers retune in place, and
    ``arc_capacities``, the residual capacities, which start equal to the
    base (zero flow).  Networks over one topology never see each other's
    capacities or flow.

    Examples
    --------
    >>> topology = FlowTopology(4, [0, 1, 1, 3], [1, 0, 3, 1])
    >>> net = FlowNetwork(topology, [3.0, 0.0, 2.0, 0.0])
    >>> from repro.flow import dinic_max_flow
    >>> dinic_max_flow(net, 0, 3)
    2.0
    """

    __slots__ = ("topology", "num_nodes", "base_capacities", "arc_capacities")

    def __init__(self, topology: FlowTopology, base_capacities) -> None:
        base = np.array(base_capacities, dtype=np.float64)
        if base.shape != (topology.num_arcs,):
            raise FlowError(f"expected {topology.num_arcs} capacities, got {base.shape}")
        # ``min`` propagates NaN, so one comparison rejects it.
        if base.shape[0] and not float(base.min()) >= 0:
            raise FlowError(f"capacity must be >= 0, got {float(base.min())}")
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.base_capacities = base
        self.arc_capacities = base.copy()

    @property
    def num_arcs(self) -> int:
        """Number of arcs (2x the number of paired edges)."""
        return self.topology.num_arcs

    def reset_flow(self) -> None:
        """Restore all residual capacities to the base capacities."""
        self.arc_capacities[:] = self.base_capacities

    def residual_reachable(self, source: int) -> list[bool]:
        """Nodes reachable from ``source`` using arcs with positive residual capacity.

        After a max-flow computation this is exactly the source side of a
        minimum cut.
        """
        self._check_node(source)
        heads, targets = self.topology.solver_views()
        caps = self.arc_capacities.tolist()
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

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise FlowError(f"node {node} out of range [0, {self.num_nodes})")
