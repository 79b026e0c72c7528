"""Goldberg's exact algorithm for the undirected densest subgraph.

For a guess ``g`` build the network: source ``s`` to every vertex with
capacity ``deg(v)``, every vertex to sink ``t`` with capacity ``2g``, and
both directions of every undirected edge with capacity 1.  The cut value for
a vertex subset ``H`` (vertices on the source side) equals
``2m - 2(e(H) - g|H|)``, so ``mincut < 2m`` iff some subgraph has edge
density greater than ``g``.  A binary search with gap below ``1/(n(n-1))``
(densities are of the form ``e/|H|``) pins the exact optimum.

Only the ``2g`` sink capacities depend on the guess, so one call builds
one :class:`~repro.flow.network.FlowTopology` and one network over it, and
each guess rewrites those capacities in place and resets the flow.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EmptyGraphError
from repro.flow.dinic import DinicSolver
from repro.flow.network import FlowNetwork, FlowTopology
from repro.graph.digraph import DiGraph
from repro.undirected.models import UndirectedResult, symmetrize, undirected_edge_count


def goldberg_exact(graph: DiGraph) -> UndirectedResult:
    """Exact undirected densest subgraph of the undirected view of ``graph``."""
    symmetric = symmetrize(graph)
    if symmetric.num_edges == 0:
        raise EmptyGraphError("goldberg_exact requires a graph with at least one edge")

    n = symmetric.num_nodes
    m = symmetric.num_edges // 2
    adjacency = symmetric.out_adj
    degrees = [len(neighbors) for neighbors in adjacency]
    source, sink = n, n + 1

    # Forward arcs: per vertex s -> v then v -> t, then both directions of
    # every edge; each is followed by its residual twin.
    forward = [arc for node in range(n) for arc in ((source, node), (node, sink))]
    forward += [(node, neighbor) for node in range(n) for neighbor in adjacency[node]]
    tails = [end for tail, head in forward for end in (tail, head)]
    targets = [end for tail, head in forward for end in (head, tail)]
    base = np.zeros(len(tails))
    base[0 : 4 * n : 4] = degrees
    base[4 * n :: 2] = 1.0
    network = FlowNetwork(FlowTopology(n + 2, tails, targets), base)
    sink_capacities = network.base_capacities[2 : 4 * n : 4]

    low, high = 0.0, float(max(degrees))
    tolerance = 1.0 / (n * (n - 1)) if n > 1 else 1e-9
    best_nodes = list(range(n))
    flow_calls = 0

    while high - low >= tolerance:
        guess = (low + high) / 2.0
        sink_capacities[:] = 2.0 * guess
        network.reset_flow()
        solver = DinicSolver(network, source, sink)
        cut_value = solver.max_flow()
        flow_calls += 1
        if cut_value < 2.0 * m - 1e-9 * max(1.0, 2.0 * m):
            source_side = [node for node in solver.min_cut_source_side() if node < n]
            if source_side:
                best_nodes = source_side
                low = guess
            else:
                high = guess
        else:
            high = guess

    labels = symmetric.labels_of(sorted(best_nodes))
    edges_inside = undirected_edge_count(symmetric, labels)
    return UndirectedResult(
        nodes=labels,
        density=edges_inside / len(labels),
        edge_count=edges_inside,
        method="goldberg-exact",
        is_exact=True,
        stats={"flow_calls": flow_calls},
    )
