"""``repro`` — Densest Subgraph Discovery on Large Directed Graphs.

A from-scratch Python reproduction of the algorithm family of
*"Efficient Algorithms for Densest Subgraph Discovery on Large Directed
Graphs"* (SIGMOD 2020): the Kannan–Vinay directed density, [x, y]-cores,
flow-based exact solvers with divide-and-conquer over |S|/|T| ratios, and
core-based 2-approximations.

Quickstart
----------
>>> from repro import DDSSession, DiGraph
>>> g = DiGraph.from_edges([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "a")])
>>> session = DDSSession(g)
>>> result = session.densest_subgraph("core-exact")
>>> sorted(result.s_nodes), sorted(result.t_nodes)
(['a', 'b'], ['x', 'y'])
"""

from repro.core import (
    ApproxConfig,
    DDSResult,
    ExactConfig,
    MethodSpec,
    brute_force_dds,
    core_approx,
    core_based_bounds,
    core_exact,
    dc_exact,
    directed_density,
    flow_exact,
    inc_approx,
    max_xy_core,
    peel_approx,
    register_method,
    verify_result,
    xy_core,
    xy_core_skyline,
)
from repro.graph import DiGraph, read_edge_list, write_edge_list
from repro.incremental import DeltaCertificate, EdgeDelta, UpdateReport
from repro.session import DDSSession

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "DiGraph",
    "read_edge_list",
    "write_edge_list",
    "DDSResult",
    "DDSSession",
    "ExactConfig",
    "ApproxConfig",
    "MethodSpec",
    "register_method",
    "directed_density",
    "brute_force_dds",
    "flow_exact",
    "dc_exact",
    "core_exact",
    "core_approx",
    "inc_approx",
    "peel_approx",
    "xy_core",
    "max_xy_core",
    "xy_core_skyline",
    "core_based_bounds",
    "verify_result",
    "EdgeDelta",
    "UpdateReport",
    "DeltaCertificate",
]
