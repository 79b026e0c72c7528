"""In-place maintenance of derived DDS state under an edge delta.

Three layers of cached state survive a graph update instead of being
rebuilt:

**Degree arrays** are patched by ±1 per touched endpoint (O(|delta|)).

**[x, y]-cores** exploit monotonicity.  Under a removal-only delta degrees
only drop, so the new maximal [x, y]-core is *contained* in the old one
(valid pairs of the new graph are valid in the old graph, and the maximal
core contains every valid pair) — re-peeling restricted to the old core's
members therefore yields exactly the new global core at O(|core|) cost.
Deltas with insertions can grow a core beyond the old members, so those
recompute from the whole graph (still O(n + m), counted separately).  The
cached *maximum-product* core gets a sharper argument: if its own local
re-peel leaves it unchanged, every other core only shrank, so no product
grew and the old maximum is still attained.
:func:`~repro.core.xycore.max_xy_core` returns, among the non-empty cores
of maximal product, the one with the smallest ``x``.  A maximal core of the
new graph with a smaller ``x`` would have been non-empty, and maximal, in
the old graph too, so a cold walk of the new graph returns the *same* core.
The keep is bit-identical, not merely valid.

**Decision networks** are patched by arc-level surgery
(:func:`patch_decision_network`) so their warm residual flows survive.
The construction of :func:`~repro.core.flow_network.build_decision_network`
makes every repair local:

* an ``i_v`` node's only outgoing arc is its penalty arc, so its flow
  carries the node's entire inflow — a deficit created at ``i_v`` by
  cancelling a deleted edge's flow is always repairable by withdrawing the
  same amount from that one arc;
* an ``o_u`` node's only incoming arc is its source arc, so surpluses
  accumulated at ``o_u`` walk back to the source along a single known path
  (:meth:`~repro.flow.network.FlowNetwork.return_excess`).

After surgery the residual state is again a valid feasible flow, so the
next warm-start retune/solve continues from it; by the canonical-cut
invariant (the source-reachable set of *any* max flow's residual graph is
the unique minimal min cut) a patched network yields bit-identical answers
to a freshly built one — stale zero-capacity arcs and arc order differences
cannot change the extracted pair.
"""

from __future__ import annotations

from typing import Any

from repro.core.flow_network import DecisionNetwork
from repro.core.network_cache import NetworkCache
from repro.core.xycore import XYCore, xy_core
from repro.graph.digraph import DiGraph

IndexPair = tuple[int, int]


# ----------------------------------------------------------------------
# degree arrays
# ----------------------------------------------------------------------
def patch_degree_arrays(
    out_degrees: list[int] | None,
    in_degrees: list[int] | None,
    num_nodes: int,
    added_pairs: list[IndexPair],
    removed_pairs: list[IndexPair],
) -> None:
    """Patch cached degree arrays in place for one applied delta.

    Each array is first extended with zeros to ``num_nodes`` (new nodes are
    only ever appended), then each effective edge adjusts its endpoints.
    A ``None`` array (not cached yet) is skipped — it will be computed
    lazily from the post-delta graph on first demand.
    """
    for degrees in (out_degrees, in_degrees):
        if degrees is not None and len(degrees) < num_nodes:
            degrees.extend([0] * (num_nodes - len(degrees)))
    for u, v in added_pairs:
        if out_degrees is not None:
            out_degrees[u] += 1
        if in_degrees is not None:
            in_degrees[v] += 1
    for u, v in removed_pairs:
        if out_degrees is not None:
            out_degrees[u] -= 1
        if in_degrees is not None:
            in_degrees[v] -= 1


# ----------------------------------------------------------------------
# [x, y]-cores
# ----------------------------------------------------------------------
def refresh_cores(
    graph: DiGraph,
    cores: dict[tuple[int, int], XYCore],
    max_core: XYCore | None,
    removal_only: bool,
) -> tuple[dict[tuple[int, int], XYCore], XYCore | None, int, int, bool]:
    """Refresh every cached core for the (already applied) delta.

    Returns ``(new_cores, new_max_core, repeeled, rebuilt, max_kept)``.
    ``new_max_core`` is ``None`` whenever the keep argument in the module
    docstring does not apply — the caller recomputes lazily on next demand.
    """
    repeeled = 0
    rebuilt = 0
    new_cores: dict[tuple[int, int], XYCore] = {}
    for (x, y), core in cores.items():
        if removal_only:
            if core.is_empty:
                # Cores only shrink under removals: empty stays empty.
                new_cores[(x, y)] = core
            else:
                new_cores[(x, y)] = xy_core(
                    graph, x, y, s_candidates=core.s_nodes, t_candidates=core.t_nodes
                )
                repeeled += 1
        else:
            new_cores[(x, y)] = xy_core(graph, x, y)
            rebuilt += 1

    new_max: XYCore | None = None
    max_kept = False
    if max_core is not None and removal_only and not max_core.is_empty:
        survivor = xy_core(
            graph,
            max_core.x,
            max_core.y,
            s_candidates=max_core.s_nodes,
            t_candidates=max_core.t_nodes,
        )
        if (
            survivor.s_nodes == max_core.s_nodes
            and survivor.t_nodes == max_core.t_nodes
        ):
            new_max = max_core
            max_kept = True
    return new_cores, new_max, repeeled, rebuilt, max_kept


# ----------------------------------------------------------------------
# decision networks
# ----------------------------------------------------------------------
def full_subproblem_token(graph: DiGraph, state_token: int | None = None) -> tuple:
    """The cache token :meth:`STSubproblem.from_graph(graph) <repro.core.subproblem.STSubproblem.from_graph>` would produce.

    Computed from the degree sequences alone — ``from_graph`` with default
    candidates keeps exactly the nodes with an outgoing (resp. incoming)
    edge, in index order, and every edge.  This lets the migration identify
    (and re-key) full-graph network-cache entries without materialising a
    sub-problem on either side of the delta.
    """
    s_kept = tuple(u for u, d in enumerate(graph.out_degrees()) if d > 0)
    t_kept = tuple(v for v, d in enumerate(graph.in_degrees()) if d > 0)
    token = graph.state_token if state_token is None else state_token
    return (token, s_kept, t_kept, graph.num_edges)


def patch_decision_network(
    decision: DecisionNetwork,
    graph: DiGraph,
    added_pairs: list[IndexPair],
    removed_pairs: list[IndexPair],
) -> bool:
    """Patch a full-graph decision network in place for an applied delta.

    Returns ``False`` — leaving the network untouched — when the delta
    cannot be represented in the network's fixed node layout: an inserted
    edge whose tail (head) was not an S (T) candidate when the network was
    built, including brand-new nodes.  Such networks must be dropped and
    rebuilt on demand.

    On success the network's edge arcs, source-arc capacities and
    ``total_capacity`` match a fresh build from the post-delta graph, and
    the residual state is a valid feasible flow (the previous solve's flow,
    minus exactly what the deleted capacity can no longer carry).  Deleted
    edges keep a zero-capacity stale arc — harmless for solves and cut
    extraction, and reusable if the edge is later re-inserted.
    """
    s_pos = {u: index for index, u in enumerate(decision.s_nodes)}
    t_pos = {v: index for index, v in enumerate(decision.t_nodes)}
    for u, v in added_pairs:
        if u not in s_pos or v not in t_pos:
            return False
    arcs = decision.edge_arc_map()
    for pair in removed_pairs:
        if pair not in arcs:
            return False

    network = decision.network
    t_offset = 2 + len(decision.s_nodes)
    # Inflow surplus accumulated at each o_u (keyed by S position) as edge
    # flow is cancelled; settled against the source-arc clamp below.
    excess: dict[int, float] = {}
    touched: set[int] = set()

    for u, v in removed_pairs:
        arc = arcs[(u, v)]
        flow = network.arc_flow(arc)
        network.set_capacity_preserving_flow(arc, 0.0)
        if flow > 0.0:
            # i_v's entire inflow leaves on its penalty arc, so the arc
            # carries at least ``flow`` — the deficit repair is local.
            network.withdraw_flow(decision.t_penalty_arcs[t_pos[v]], flow)
            position = s_pos[u]
            excess[position] = excess.get(position, 0.0) + flow
        touched.add(u)

    for u, v in added_pairs:
        arc = arcs.get((u, v))
        if arc is not None:
            # A stale arc from an earlier removal: revive it (it carries no
            # flow, so no repair is needed).
            network.set_capacity_preserving_flow(arc, 2.0)
        else:
            arcs[(u, v)] = network.add_edge(
                2 + s_pos[u], t_offset + t_pos[v], 2.0
            )
        touched.add(u)

    returns: list[tuple[int, float]] = []
    for u in sorted(touched, key=s_pos.__getitem__):
        position = s_pos[u]
        source_arc = decision.source_arc(position)
        new_cap = 2.0 * len(graph.out_adj[u])
        old_cap = network.arc_base_capacity(source_arc)
        have = excess.get(position, 0.0)
        source_flow = network.arc_flow(source_arc)
        # o_u's current outflow is its inflow minus the surplus parked on it;
        # anything beyond the new source capacity must be drained first so
        # the clamp below leaves no deficit.
        drain = (source_flow - have) - new_cap
        if drain > 0.0:
            have += _drain_outflow(decision, graph, u, position, drain, arcs, t_pos)
        overflow = network.set_capacity_preserving_flow(source_arc, new_cap)
        # The clamp removed ``overflow`` of o_u's inflow, consuming that much
        # of the parked surplus at the source itself; the rest walks back.
        leftover = have - overflow
        if leftover > 0.0:
            returns.append((2 + position, leftover))
        decision.total_capacity += new_cap - old_cap
    if returns:
        network.return_excess(returns, decision.source)
    return True


def _drain_outflow(
    decision: DecisionNetwork,
    graph: DiGraph,
    u: int,
    position: int,
    amount: float,
    arcs: dict[IndexPair, int],
    t_pos: dict[int, int],
) -> float:
    """Withdraw ``amount`` of flow from ``o_u``'s outgoing arcs; return the total.

    Penalty arc first (its withdrawal needs no further repair), then live
    edge arcs — each of those creates a deficit at the edge's ``i_v``,
    immediately repaired from that node's penalty arc.  The requested amount
    never exceeds ``o_u``'s outflow (the caller computes it as the outflow
    beyond the shrunken source capacity), so the walk always completes.
    """
    network = decision.network
    drained = 0.0
    penalty_arc = decision.s_penalty_arcs[position]
    take = min(amount, network.arc_flow(penalty_arc))
    if take > 0.0:
        network.withdraw_flow(penalty_arc, take)
        drained += take
        amount -= take
    if amount > 0.0:
        for v in graph.out_adj[u]:
            if amount <= 0.0:
                break
            arc = arcs.get((u, v))
            if arc is None:
                continue
            take = min(amount, network.arc_flow(arc))
            if take > 0.0:
                network.withdraw_flow(arc, take)
                network.withdraw_flow(decision.t_penalty_arcs[t_pos[v]], take)
                drained += take
                amount -= take
    return drained


def migrate_network_cache(
    cache: NetworkCache,
    old_token: tuple,
    new_token: tuple,
    graph: DiGraph,
    added_pairs: list[IndexPair],
    removed_pairs: list[IndexPair],
) -> tuple[list[tuple[float, DecisionNetwork]], int, int]:
    """Re-key a network cache across a graph delta, patching what it can.

    Entries keyed by the pre-delta full-graph token are patched in place and
    re-filed under the post-delta token; every other entry — networks carved
    from core-restricted sub-problems, whose candidate sets have no cheap
    post-delta counterpart — is dropped.  Returns the surviving
    ``(ratio, network)`` pairs (the certification tier re-verifies against
    them) plus the patched/dropped counts.
    """
    patched: list[tuple[float, DecisionNetwork]] = []
    dropped = 0
    for token, ratio, network in cache.take_all():
        if token == old_token and patch_decision_network(
            network, graph, added_pairs, removed_pairs
        ):
            cache.put_token(new_token, ratio, network)
            patched.append((ratio, network))
        else:
            dropped += 1
    return patched, len(patched), dropped


def seed_cache_from(
    source_entries: list[tuple[Any, float, DecisionNetwork]],
    source_token: tuple,
    target: NetworkCache,
    target_token: tuple,
    graph: DiGraph,
    added_pairs: list[IndexPair],
    removed_pairs: list[IndexPair],
) -> int:
    """Clone-and-patch matching entries of one cache into another.

    The non-destructive sibling of :func:`migrate_network_cache`: each entry
    keyed by ``source_token`` is *cloned*, the clone patched for the delta
    and deposited into ``target`` under ``target_token`` — the originals
    stay untouched.  This is how a ``top_k`` round seeds its working cache
    from the session's warm networks.  Returns the number seeded.
    """
    seeded = 0
    for token, ratio, network in source_entries:
        if token != source_token:
            continue
        clone = network.clone()
        if patch_decision_network(clone, graph, added_pairs, removed_pairs):
            target.put_token(target_token, ratio, clone)
            seeded += 1
    return seeded
