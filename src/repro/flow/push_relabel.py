"""Push–relabel (preflow) maximum flow with FIFO selection and the gap heuristic.

This is the third, independent max-flow implementation in the package.  The
DDS solvers default to Dinic (:mod:`repro.flow.dinic`), but push–relabel has
a better worst-case bound (``O(V^3)`` with FIFO selection) and behaves
differently on the short, wide networks produced by the density reduction,
so it is exposed both for experimentation (``flow_solver="push-relabel"``)
and as yet another cross-check in the test suite (three solvers agreeing is
a strong correctness signal for all of them).

Like Dinic the solver runs its inner loops over the cached list view of the
network's CSR topology (:meth:`~repro.flow.network.FlowNetwork.solver_views`)
plus a capacity snapshot, writing the residual capacities back once at the
end of ``max_flow``.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.exceptions import FlowError
from repro.flow.network import EPSILON, FlowNetwork

#: Discharge sweeps between two deadline checkpoints: frequent enough that a
#: budget overrun is bounded by a few sweeps' work, cheap enough that the
#: no-deadline path pays one ``is None`` test per sweep batch.
DISCHARGE_CHECK_INTERVAL = 64


class PushRelabelSolver:
    """Stateful FIFO push–relabel solver bound to one :class:`FlowNetwork`.

    Like the other solvers it mutates the network's residual capacities; call
    :meth:`FlowNetwork.reset_flow` first to solve from zero flow.
    ``arcs_pushed`` counts individual push operations.

    The network's residual state is taken as a valid feasible flow to
    continue from (zero on a fresh network): its value is credited to the
    sink's excess up front, and the usual initialisation then saturates
    only the *remaining* residual capacity out of the source.  Because the
    source keeps height ``n`` and no residual source arcs survive the
    saturation, the all-zero labelling of the other nodes stays valid, so
    the preflow discharge loop is unchanged — it simply starts closer to
    done.
    """

    name = "push-relabel"

    #: Optional :class:`repro.runtime.Deadline`, attached by the engine.
    #: Checked every :data:`DISCHARGE_CHECK_INTERVAL` discharge sweeps; an
    #: abort discards the local caps/height snapshots before write-back, so
    #: the network keeps the valid feasible flow it held at solve entry
    #: (a mid-solve preflow is *not* a feasible flow — it must never be
    #: committed) and a later warm retune is bit-identical.
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
        n = network.num_nodes
        self._height = [0] * n
        self._excess = [0.0] * n
        self._current_arc = [0] * n
        # Number of nodes at each height, for the gap heuristic.
        self._height_count = [0] * (2 * n + 1)
        # Scratch list views of the network, bound during max_flow().
        self._heads: list[list[int]] = []
        self._targets: list[int] = []
        self._caps: list[float] = []

    # ------------------------------------------------------------------
    def max_flow(self) -> float:
        """Run push–relabel to completion and return the max-flow value."""
        network = self.network
        n = network.num_nodes
        heads, targets = network.solver_views()
        caps_arr = network.arc_capacities
        caps = caps_arr.tolist()
        self._heads, self._targets, self._caps = heads, targets, caps
        height = self._height
        excess = self._excess
        height_count = self._height_count

        # Credit the value of the flow already routed through the network to
        # the sink before saturating what is left of the source arcs; a
        # valid flow has zero excess at every interior node, so the sink is
        # the only node that needs seeding.
        excess[self.sink] = network.flow_value(self.source)

        # Initialise the preflow: saturate every arc out of the source.
        height[self.source] = n
        active: deque[int] = deque()
        for arc_index in heads[self.source]:
            capacity = caps[arc_index]
            if capacity > EPSILON:
                target = targets[arc_index]
                caps[arc_index] = 0.0
                caps[arc_index ^ 1] += capacity
                excess[target] += capacity
                self.arcs_pushed += 1
                if target not in (self.source, self.sink) and excess[target] == capacity:
                    active.append(target)
        for node in range(n):
            height_count[height[node]] += 1

        sweeps = 0
        while active:
            if self.deadline is not None:
                sweeps += 1
                if sweeps >= DISCHARGE_CHECK_INTERVAL:
                    sweeps = 0
                    self.deadline.check("push-relabel discharge sweep")
            node = active.popleft()
            self._discharge(node, active)

        caps_arr[:] = array("d", caps)
        return excess[self.sink]

    def min_cut_source_side(self) -> list[int]:
        """Source side of a minimum cut (valid after :meth:`max_flow`)."""
        reachable = self.network.residual_reachable(self.source)
        return [node for node, flag in enumerate(reachable) if flag]

    # ------------------------------------------------------------------
    def _discharge(self, node: int, active: deque[int]) -> None:
        """Push excess out of ``node`` until it is gone or the node is relabelled dry."""
        heads = self._heads
        targets = self._targets
        caps = self._caps
        height = self._height
        excess = self._excess
        current_arc = self._current_arc
        node_heads = heads[node]

        while excess[node] > EPSILON:
            if current_arc[node] >= len(node_heads):
                self._relabel(node)
                current_arc[node] = 0
                if height[node] > 2 * self.network.num_nodes:
                    break
                continue
            arc_index = node_heads[current_arc[node]]
            target = targets[arc_index]
            if caps[arc_index] > EPSILON and height[node] == height[target] + 1:
                amount = min(excess[node], caps[arc_index])
                caps[arc_index] -= amount
                caps[arc_index ^ 1] += amount
                excess[node] -= amount
                self.arcs_pushed += 1
                had_no_excess = excess[target] <= EPSILON
                excess[target] += amount
                if had_no_excess and target not in (self.source, self.sink):
                    active.append(target)
            else:
                current_arc[node] += 1

    def _relabel(self, node: int) -> None:
        """Raise ``node`` just above its lowest admissible neighbour (with gap heuristic)."""
        heads = self._heads
        targets = self._targets
        caps = self._caps
        height = self._height
        height_count = self._height_count
        num_nodes = self.network.num_nodes

        old_height = height[node]
        minimum = 2 * num_nodes
        for arc_index in heads[node]:
            if caps[arc_index] > EPSILON:
                minimum = min(minimum, height[targets[arc_index]])
        new_height = minimum + 1

        height_count[old_height] -= 1
        # Gap heuristic: if no node remains at old_height, every node above it
        # (below n) can never reach the sink again — lift them past n at once.
        if height_count[old_height] == 0 and old_height < num_nodes:
            for other in range(num_nodes):
                if old_height < height[other] < num_nodes and other != node:
                    height_count[height[other]] -= 1
                    height[other] = num_nodes + 1
                    height_count[height[other]] += 1
        height[node] = new_height
        if new_height < len(height_count):
            height_count[new_height] += 1


def push_relabel_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run push–relabel on ``network`` and return the flow value."""
    return PushRelabelSolver(network, source, sink).max_flow()
