"""Dinic's maximum-flow algorithm (the primary solver).

Dinic builds a BFS level graph from the source and repeatedly finds blocking
flows with an iterative DFS that remembers, per node, how far into its arc
list it has advanced ("current-arc" optimisation).  On the networks produced
by the DDS density reduction — thousands of unit-capacity arcs plus a handful
of ``O(g)`` capacity arcs — it is far faster than Edmonds–Karp and entirely
adequate for the graph sizes the exact algorithms target.

Indexing the network's ``array``-backed CSR storage boxes a fresh Python
object on every read, so ``max_flow`` grabs the cached list view of the
topology (:meth:`~repro.flow.network.FlowNetwork.solver_views`), snapshots
the capacities into a plain list once (O(m), C-speed), runs the inner loops
on those, and writes the final residual capacities back to the network when
done — the array storage stays canonical while the hot path pays list-speed
access costs only.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.exceptions import FlowError
from repro.flow.network import EPSILON, FlowNetwork


class DinicSolver:
    """Stateful Dinic solver bound to one :class:`FlowNetwork`.

    The solver mutates the network's residual capacities; call
    :meth:`FlowNetwork.reset_flow` first to solve from zero flow.
    ``arcs_pushed`` counts every per-arc residual update (instrumentation
    surfaced by the :class:`~repro.flow.engine.FlowEngine`).

    The solver treats the network's residual state as a valid feasible flow
    to continue from (zero on a fresh network): the pre-existing flow value
    is read off the source's residual arcs and the usual augmenting loop
    tops it up to a maximum flow.  Since Dinic only ever augments along
    residual paths, no other change is needed — a continued run returns the
    same max-flow value and the same canonical min cut as one from zero
    flow, after pushing only the missing flow.
    """

    name = "dinic"

    #: Optional :class:`repro.runtime.Deadline`, attached by the engine when
    #: the query carries a budget.  Checked between BFS rounds — the phase
    #: boundary where the in-progress state is a snapshot the network has
    #: not seen yet, so an abort leaves the network's residual capacities
    #: exactly as they were at solve entry (write-back only happens on
    #: completion) and a later warm retune is bit-identical.
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
        self._levels: list[int] = []
        self._completed = False

    # ------------------------------------------------------------------
    def max_flow(self) -> float:
        """Run Dinic to completion and return the max-flow value."""
        heads, targets = self.network.solver_views()
        caps_arr = self.network.arc_capacities
        caps = caps_arr.tolist()

        # Credit the value of the flow already routed through the network;
        # the augmenting loop below then only tops it up.
        total = self.network.flow_value(self.source)
        while True:
            if self.deadline is not None:
                # Cooperative cancellation checkpoint (one per BFS round):
                # raising here discards the local caps snapshot before it is
                # ever written back, so the network stays untouched.
                self.deadline.check("dinic BFS round")
            if not self._build_levels(heads, targets, caps):
                break
            iters = [0] * self.network.num_nodes
            while True:
                pushed = self._blocking_path(heads, targets, caps, iters)
                if pushed <= EPSILON:
                    break
                total += pushed

        caps_arr[:] = array("d", caps)
        self._completed = True
        return total

    def min_cut_source_side(self) -> list[int]:
        """Source side of a minimum cut (valid after :meth:`max_flow`).

        The final BFS of a completed :meth:`max_flow` already labelled
        exactly the nodes residual-reachable from the source (same arcs,
        same ``EPSILON`` test, on the capacities written back), so its
        levels are read off instead of walking the residual graph again.
        """
        if self._completed:
            return [node for node, level in enumerate(self._levels) if level >= 0]
        reachable = self.network.residual_reachable(self.source)
        return [node for node, flag in enumerate(reachable) if flag]

    # ------------------------------------------------------------------
    def _build_levels(self, heads, targets, caps) -> bool:
        """BFS from the source over positive-residual arcs; True if sink reached."""
        levels = [-1] * self.network.num_nodes
        levels[self.source] = 0
        queue = deque([self.source])
        while queue:
            node = queue.popleft()
            next_level = levels[node] + 1
            for arc_index in heads[node]:
                if caps[arc_index] > EPSILON:
                    target = targets[arc_index]
                    if levels[target] < 0:
                        levels[target] = next_level
                        queue.append(target)
        self._levels = levels
        return levels[self.sink] >= 0

    def _blocking_path(self, heads, targets, caps, iters) -> float:
        """Push one augmenting path along the level graph (iterative DFS)."""
        levels = self._levels
        sink = self.sink

        path: list[int] = []  # arc indices along the current path
        node = self.source
        while True:
            if node == sink:
                # Found an augmenting path: push the bottleneck.
                bottleneck = caps[path[0]]
                for arc in path:
                    if caps[arc] < bottleneck:
                        bottleneck = caps[arc]
                for arc in path:
                    caps[arc] -= bottleneck
                    caps[arc ^ 1] += bottleneck
                self.arcs_pushed += len(path)
                return bottleneck
            advanced = False
            node_heads = heads[node]
            node_level_next = levels[node] + 1
            while iters[node] < len(node_heads):
                arc_index = node_heads[iters[node]]
                target = targets[arc_index]
                if caps[arc_index] > EPSILON and levels[target] == node_level_next:
                    path.append(arc_index)
                    node = target
                    advanced = True
                    break
                iters[node] += 1
            if advanced:
                continue
            # Dead end: retreat (or give up if we are back at the source).
            levels[node] = -1
            if not path:
                return 0.0
            last_arc = path.pop()
            node = targets[last_arc ^ 1]
            iters[node] += 1
        # unreachable
        raise AssertionError  # pragma: no cover


def dinic_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run Dinic on ``network`` and return the flow value."""
    return DinicSolver(network, source, sink).max_flow()
