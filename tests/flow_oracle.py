"""Edmonds–Karp maximum flow: the test suite's independent min-cut oracle.

This solver exists purely as an independent implementation against which
the production solver, ``dinic``, is cross-checked in the unit and property
tests.  It is the textbook BFS-augmenting-path algorithm; no attempt is
made to optimise it, but it satisfies the solver protocol of
:mod:`repro.flow.engine` (``max_flow()`` / ``min_cut_source_side()`` /
``arcs_pushed``), so the ``flow_oracle`` fixture (``tests/conftest.py``)
swaps it in as ``FlowEngine.solver_class`` and every flow-backed method
runs on it as on ``dinic``.  Tests parametrised over :data:`CHECKED_SOLVERS`
switch to it mid-test with :func:`use_solver`.

:func:`network_from_arcs` builds a network from a list of forward arcs,
:func:`forward_arcs` reads a network's forward arcs, with the flow each
carries, off its topology and capacity columns, :func:`copy_network`
copies a network's capacities and residual state over the same topology,
and :func:`flow_value` reads the value of the flow a network's residual
state encodes, the start credit both reference solvers take.

:class:`RestartDinicSolver` is the second reference: Dinic as it was before
its DFS learned to resume after a push and its BFS to stop at the sink —
every augmenting path searched again from the source, every level graph
labelled in full.  The production ``dinic`` must find the same paths in
the same order, so it must match this solver bit for bit: flow value,
residual capacities, ``arcs_pushed`` and cut.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import FlowError
from repro.flow.network import EPSILON, FlowNetwork, FlowTopology


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
        heads, targets = network.topology.solver_views()
        caps = network.arc_capacities.tolist()
        source, sink = self.source, self.sink
        total = flow_value(network, source)

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
                network.arc_capacities[:] = caps
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
        heads, targets = self.network.topology.solver_views()
        caps = self.network.arc_capacities.tolist()
        total = flow_value(self.network, self.source)
        while True:
            if not self._build_levels(heads, targets, caps):
                break
            iters = [0] * self.network.num_nodes
            while True:
                pushed = self._blocking_path(heads, targets, caps, iters)
                if pushed <= EPSILON:
                    break
                total += pushed
        self.network.arc_capacities[:] = caps
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


#: The oracle's name in test ids.
ORACLE_SOLVER = EdmondsKarpSolver.name

#: The solvers tests are parametrised over: the production one and the oracle.
CHECKED_SOLVERS = ("dinic", ORACLE_SOLVER)


def use_solver(request, name: str) -> None:
    """Run the test's min-cuts from here on with ``name``, one of :data:`CHECKED_SOLVERS`.

    ``dinic`` is what every engine runs; the oracle is swapped in through
    the ``flow_oracle`` fixture, for the rest of the test.
    """
    if name == ORACLE_SOLVER:
        request.getfixturevalue("flow_oracle")


def flow_value(network: FlowNetwork, source: int) -> float:
    """Net flow currently leaving ``source`` (the value of a valid flow).

    Computed from the residual state alone: forward arcs out of the source
    contribute the flow pushed onto their residual twins, forward arcs
    *into* the source subtract theirs.  Only meaningful when the residual
    state encodes a conservative flow (e.g. after a completed solve).
    ``dinic`` sums the same twins in the same order from its own lists.
    """
    network._check_node(source)
    topology = network.topology
    arcs = topology.order[topology.starts[source] : topology.starts[source + 1]]
    # ``arc | 1`` is the twin of a forward arc and a residual arc itself.
    flows = network.arc_capacities[arcs | 1].tolist()
    total = 0.0
    for arc_index, flow in zip(arcs.tolist(), flows):
        if arc_index & 1:
            total -= flow
        else:
            total += flow
    return total


def network_from_arcs(num_nodes: int, arcs) -> FlowNetwork:
    """A network of ``(tail, target, capacity)`` arcs, in order, each followed by its twin."""
    tails: list[int] = []
    targets: list[int] = []
    capacities: list[float] = []
    for tail, target, capacity in arcs:
        tails += (tail, target)
        targets += (target, tail)
        capacities += (capacity, 0.0)
    return FlowNetwork(FlowTopology(num_nodes, tails, targets), capacities)


def forward_arcs(network: FlowNetwork) -> list[tuple[int, int, float, float]]:
    """``(tail, target, capacity, flow)`` of every forward arc, in arc order.

    Arc ``i`` (even) is forward and ``i ^ 1`` its residual twin, so the flow
    on arc ``i`` is the twin's residual capacity: finite even on an
    infinite-capacity arc, where ``capacity - residual`` would be ``nan``.
    """
    topology = network.topology
    return list(
        zip(
            topology.tails[0::2].tolist(),
            topology.targets[0::2].tolist(),
            network.base_capacities[0::2].tolist(),
            network.arc_capacities[1::2].tolist(),
        )
    )


def copy_network(network: FlowNetwork) -> FlowNetwork:
    """A network over ``network``'s topology with copies of its capacities and residual state."""
    twin = FlowNetwork(network.topology, network.base_capacities)
    twin.arc_capacities[:] = network.arc_capacities
    return twin


def edmonds_karp_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run Edmonds–Karp on ``network`` and return the flow value."""
    return EdmondsKarpSolver(network, source, sink).max_flow()
