"""Edmonds–Karp maximum flow (reference implementation).

This solver exists purely as an independent implementation against which
Dinic and push–relabel are cross-checked in the unit and property tests.  It
is the textbook BFS-augmenting-path algorithm; no attempt is made to
optimise it, but it satisfies the same solver protocol (``max_flow()`` /
``min_cut_source_side()`` / ``arcs_pushed``) so it can be selected through
the registry (``flow_solver="edmonds-karp"``) like the serious solvers.
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


def edmonds_karp_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run Edmonds–Karp on ``network`` and return the flow value."""
    return EdmondsKarpSolver(network, source, sink).max_flow()
