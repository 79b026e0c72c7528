"""Edmonds–Karp maximum flow: the test suite's independent min-cut oracle.

This solver exists purely as an independent implementation against which
the production solver, ``dinic``, is cross-checked in the unit and property
tests.  It
is the textbook BFS-augmenting-path algorithm; no attempt is made to
optimise it, but it satisfies the same solver protocol (``max_flow()`` /
``min_cut_source_side()`` / ``arcs_pushed``), so the ``flow_oracle`` fixture
(``tests/conftest.py``) registers it under :data:`ORACLE_SOLVER` through
:func:`repro.flow.register_solver` and every flow-backed method runs on it
like on a production backend.

:class:`RestartDinicSolver` is the second reference: Dinic as it was before
its DFS learned to resume after a push and its BFS to stop at the sink —
every augmenting path searched again from the source, every level graph
labelled in full.  The production ``dinic`` must find the same paths in
the same order, so it must match this solver bit for bit: flow value,
residual capacities, ``arcs_pushed`` and cut.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.exceptions import FlowError
from repro.flow.network import EPSILON, FlowNetwork


class EdmondsKarpSolver:
    """Stateful Edmonds–Karp solver bound to one :class:`FlowNetwork`.

    Like every registered solver it continues from the feasible flow the
    network's residual state holds: the flow value already leaving the
    source is credited up front and each augmenting path only adds to it,
    so the returned value is the total max flow.
    """

    name = "edmonds-karp"

    def __init__(self, network: FlowNetwork, source: int, sink: int) -> None:
        if source == sink:
            raise FlowError("source and sink must differ")
        network._check_node(source)
        network._check_node(sink)
        self.network = network
        self.source = source
        self.sink = sink
        self.arcs_pushed = 0

    def max_flow(self) -> float:
        """Compute the maximum ``source``–``sink`` flow with Edmonds–Karp."""
        network = self.network
        heads, targets = network.solver_views()
        caps_arr = network.arc_capacities
        caps = caps_arr.tolist()
        source, sink = self.source, self.sink
        total = network.flow_value(source)

        while True:
            # BFS to find the shortest augmenting path; remember the arc used
            # to reach every node so the path can be reconstructed.
            parent_arc = [-1] * network.num_nodes
            parent_arc[source] = -2
            queue = deque([source])
            found = False
            while queue and not found:
                node = queue.popleft()
                for arc_index in heads[node]:
                    target = targets[arc_index]
                    if parent_arc[target] == -1 and caps[arc_index] > EPSILON:
                        parent_arc[target] = arc_index
                        if target == sink:
                            found = True
                            break
                        queue.append(target)
            if not found:
                caps_arr[:] = array("d", caps)
                return total

            # Compute the bottleneck along the path and push it.
            bottleneck = float("inf")
            node = sink
            while node != source:
                arc_index = parent_arc[node]
                bottleneck = min(bottleneck, caps[arc_index])
                node = targets[arc_index ^ 1]
            node = sink
            while node != source:
                arc_index = parent_arc[node]
                caps[arc_index] -= bottleneck
                caps[arc_index ^ 1] += bottleneck
                self.arcs_pushed += 1
                node = targets[arc_index ^ 1]
            total += bottleneck

    def min_cut_source_side(self) -> list[int]:
        """Source side of a minimum cut (valid after :meth:`max_flow`)."""
        reachable = self.network.residual_reachable(self.source)
        return [node for node, flag in enumerate(reachable) if flag]


class RestartDinicSolver:
    """Dinic with a DFS that restarts at the source after every push.

    The reference loop for ``repro.flow.dinic.DinicSolver``: it labels the
    whole residual graph in every BFS and walks each augmenting path from
    the source, so it pushes the same paths in the same order, only with
    more interpreted work per path.
    """

    name = "restart-dinic"

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

    def max_flow(self) -> float:
        """Run Dinic to completion and return the max-flow value."""
        heads, targets = self.network.solver_views()
        caps_arr = self.network.arc_capacities
        caps = caps_arr.tolist()
        total = self.network.flow_value(self.source)
        while True:
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
        """Source side of a minimum cut, read off the final BFS levels."""
        if self._completed:
            return [node for node, level in enumerate(self._levels) if level >= 0]
        reachable = self.network.residual_reachable(self.source)
        return [node for node, flag in enumerate(reachable) if flag]

    def _build_levels(self, heads, targets, caps) -> bool:
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
        levels = self._levels
        sink = self.sink
        path: list[int] = []
        node = self.source
        while True:
            if node == sink:
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
            levels[node] = -1
            if not path:
                return 0.0
            last_arc = path.pop()
            node = targets[last_arc ^ 1]
            iters[node] += 1


#: Registry name the ``flow_oracle`` fixture registers the oracle under.
ORACLE_SOLVER = EdmondsKarpSolver.name


def edmonds_karp_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run Edmonds–Karp on ``network`` and return the flow value."""
    return EdmondsKarpSolver(network, source, sink).max_flow()
