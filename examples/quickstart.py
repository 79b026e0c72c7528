"""Quickstart: find the densest directed subgraph of a small graph.

Run with::

    python examples/quickstart.py

The script builds a toy "who-retweets-whom" graph, opens one
:class:`repro.DDSSession` over it, and queries the exact CoreExact algorithm
and the two approximation algorithms through the session — so the per-graph
state (degree arrays, cores) is shared across the three queries.  It prints the (S, T) pair — ``S`` are the accounts doing the
retweeting, ``T`` the accounts being retweeted — together with the
Kannan–Vinay density, then shows a top-2 query whose first round is served
straight from the session's result cache.
"""

from __future__ import annotations

from repro import DDSSession, DiGraph


def build_retweet_graph() -> DiGraph:
    """A tiny social graph: three fans heavily amplify two influencers."""
    edges = [
        # A dense "amplification" block: fans -> influencers.
        ("fan_1", "influencer_a"),
        ("fan_1", "influencer_b"),
        ("fan_2", "influencer_a"),
        ("fan_2", "influencer_b"),
        ("fan_3", "influencer_a"),
        ("fan_3", "influencer_b"),
        # Background chatter.
        ("alice", "bob"),
        ("bob", "carol"),
        ("carol", "alice"),
        ("dave", "influencer_a"),
        ("influencer_a", "alice"),
        ("erin", "dave"),
    ]
    return DiGraph.from_edges(edges)


def main() -> None:
    graph = build_retweet_graph()
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges\n")

    session = DDSSession(graph)
    for method in ("core-exact", "core-approx", "peel-approx"):
        result = session.densest_subgraph(method)
        print(f"[{method}]")
        print(f"  density rho(S, T) = {result.density:.4f}")
        print(f"  S (sources) = {sorted(map(str, result.s_nodes))}")
        print(f"  T (targets) = {sorted(map(str, result.t_nodes))}")
        print(f"  exact answer: {result.is_exact}\n")

    # The greedy top-k query reuses the cached core-exact answer for its
    # first round instead of recomputing it.
    top2 = session.top_k(2, method="core-exact")
    print(f"top-2 edge-disjoint pairs: densities = {[round(r.density, 4) for r in top2]}")
    stats = session.cache_stats()
    print(
        f"session served {stats['queries']} queries with "
        f"{stats['result_cache_hits']} result-cache hits and "
        f"{stats['flow_calls']} min-cuts"
    )


if __name__ == "__main__":
    main()
