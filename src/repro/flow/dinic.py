"""Dinic's maximum-flow algorithm (the primary solver).

Dinic builds a BFS level graph from the source and repeatedly finds blocking
flows with an iterative DFS that remembers, per node, how far into its arc
list it has advanced ("current-arc" optimisation).  On the networks produced
by the DDS density reduction — thousands of unit-capacity arcs plus a handful
of ``O(g)`` capacity arcs — it is far faster than Edmonds–Karp and entirely
adequate for the graph sizes the exact algorithms target.

Most augmenting paths there are two or three arcs long, so the per-path
overhead is what counts: after a push the DFS resumes at the tail of the
first arc the push saturated instead of walking the path prefix again from
the source, and each BFS stops as soon as the sink has a level.  Neither
changes which paths are pushed or in what order; the test suite keeps the
restart-from-the-source loop as a bit-for-bit reference
(``tests/flow_oracle.py``).  A path of infinite capacity raises
:class:`~repro.exceptions.FlowError` (the flow is unbounded) before the
network is touched.

Indexing the network's numpy columns boxes a fresh Python object on every
read, so ``max_flow`` grabs the topology's cached list views
(:meth:`~repro.flow.network.FlowTopology.solver_views`), snapshots the
residual capacities into a plain list once (O(m), C-speed), runs the inner
loops on those, and writes the final residual capacities back into the
network's column when done — the network's columns hold the state between
solves while the hot path pays list-speed access costs only.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import FlowError
from repro.flow.network import EPSILON, INFINITY, FlowNetwork


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
    #: completion) and a later solve continues from a valid flow.
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
        network = self.network
        heads, targets = network.topology.solver_views()
        caps = network.arc_capacities.tolist()

        # Credit the value of the flow already routed through the network,
        # read off the source's residual twins (``arc | 1``: what a forward
        # arc out of the source carries, or what one into it takes back);
        # the augmenting loop below then only tops it up.
        total = 0.0
        for arc in heads[self.source]:
            if arc & 1:
                total -= caps[arc]
            else:
                total += caps[arc | 1]
        while True:
            if self.deadline is not None:
                # Cooperative cancellation checkpoint (one per BFS round):
                # raising here discards the local caps snapshot before it is
                # ever written back, so the network stays untouched.
                self.deadline.check("dinic BFS round")
            if not self._build_levels(heads, targets, caps):
                break
            total = self._blocking_flow(heads, targets, caps, total)

        network.arc_capacities[:] = caps
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
        """BFS from the source over positive-residual arcs; True if sink reached.

        The BFS stops as soon as the sink gets its level: every node it
        would label after that sits at or above the sink's level, so no
        level-graph path from it reaches the sink and the DFS could only
        dead-end there.  A BFS that never reaches the sink (the last one of
        a solve) still labels every residual-reachable node.
        """
        sink = self.sink
        levels = [-1] * self.network.num_nodes
        levels[self.source] = 0
        self._levels = levels
        queue = deque([self.source])
        while queue:
            node = queue.popleft()
            next_level = levels[node] + 1
            for arc_index in heads[node]:
                if caps[arc_index] > EPSILON:
                    target = targets[arc_index]
                    if levels[target] < 0:
                        levels[target] = next_level
                        if target == sink:
                            return True
                        queue.append(target)
        return False

    def _blocking_flow(self, heads, targets, caps, total: float) -> float:
        """Push augmenting paths along the level graph until it is blocked.

        An iterative DFS with per-node current-arc pointers (``iters``).
        After a push the DFS resumes at the tail of the first path arc the
        push left at or below ``EPSILON``, keeping the path prefix: a
        restart from the source would walk exactly that prefix again (its
        arcs are still admissible and the pointers still name them), so the
        paths, their order and the pushes are the same as with a restart.
        Each bottleneck is added to ``total`` in path order; the new total
        is returned.
        """
        levels = self._levels
        sink = self.sink
        iters = [0] * len(levels)
        path: list[int] = []  # arc indices along the current path
        node = self.source
        pushed_arcs = 0
        while True:
            if node == sink:
                # Found an augmenting path: push the bottleneck.
                bottleneck = caps[path[0]]
                for arc in path:
                    if caps[arc] < bottleneck:
                        bottleneck = caps[arc]
                if bottleneck == INFINITY:
                    raise FlowError(
                        "the flow is unbounded: an infinite-capacity path joins "
                        f"source {self.source} to sink {sink}"
                    )
                resume = -1
                for position, arc in enumerate(path):
                    residual = caps[arc] - bottleneck
                    caps[arc] = residual
                    caps[arc ^ 1] += bottleneck
                    if resume < 0 and residual <= EPSILON:
                        resume = position
                pushed_arcs += len(path)
                total += bottleneck
                node = targets[path[resume] ^ 1]
                del path[resume:]
                continue
            node_heads = heads[node]
            end = len(node_heads)
            next_level = levels[node] + 1
            position = iters[node]
            while position < end:
                arc_index = node_heads[position]
                if caps[arc_index] > EPSILON and levels[targets[arc_index]] == next_level:
                    break
                position += 1
            iters[node] = position
            if position < end:
                path.append(arc_index)
                node = targets[arc_index]
                continue
            # Dead end: retreat (or stop if we are back at the source).
            levels[node] = -1
            if not path:
                self.arcs_pushed += pushed_arcs
                return total
            last_arc = path.pop()
            node = targets[last_arc ^ 1]
            iters[node] += 1


def dinic_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Convenience wrapper: run Dinic on ``network`` and return the flow value."""
    return DinicSolver(network, source, sink).max_flow()
