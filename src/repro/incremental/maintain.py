"""Maintenance of cached [x, y]-cores under an edge delta.

Cached cores survive a graph update instead of being rebuilt, by
monotonicity.  Under a removal-only delta degrees only drop, so the new
maximal [x, y]-core is *contained* in the old one (valid pairs of the new
graph are valid in the old graph, and the maximal core contains every
valid pair) — re-peeling restricted to the old core's members therefore
yields exactly the new global core at O(|core|) cost.
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

Decision networks are not maintained: each lives only inside the
fixed-ratio search that builds it.
"""

from __future__ import annotations

from repro.core.xycore import XYCore, xy_core
from repro.graph.digraph import DiGraph


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
