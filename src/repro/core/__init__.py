"""Directed densest-subgraph discovery (the paper's primary contribution).

Public surface:

* :class:`repro.session.DDSSession` — the one way into a method (construct
  once per graph, query many times against shared caches);
* typed configs — :class:`ExactConfig`, :class:`ApproxConfig`
  (:mod:`repro.core.config`);
* the method registry — :class:`MethodSpec`, :func:`register_method`,
  :func:`available_methods` (:mod:`repro.core.method_registry`);
* exact algorithms — :func:`flow_exact` (baseline), :func:`dc_exact`
  (divide-and-conquer over ratios), :func:`core_exact` (divide-and-conquer
  plus [x, y]-core pruning — the paper's headline algorithm);
* approximation algorithms — :func:`core_approx` (2-approximation from the
  maximum-product [x, y]-core), :func:`inc_approx` (same answer via the full
  skyline), :func:`peel_approx` (ratio-sweep peeling baseline);
* [x, y]-core machinery — :func:`xy_core`, :func:`max_xy_core`,
  :func:`xy_core_skyline`, :func:`core_based_bounds`;
* density utilities — :func:`directed_density`, :class:`DDSResult`,
  :func:`brute_force_dds`.
"""

from repro.core.approx_core import core_approx, inc_approx
from repro.core.approx_peel import peel_approx, peel_fixed_ratio
from repro.core.bounds import CoreBounds, containing_core, containing_core_orders, core_based_bounds
from repro.core.bruteforce import brute_force_dds
from repro.core.config import ApproxConfig, ExactConfig
from repro.core.density import (
    directed_density,
    directed_density_from_indices,
    edge_count_between,
    exactness_tolerance,
    global_density_upper_bound,
    interval_relaxation_factor,
    surrogate_density,
)
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.core.exact_flow import flow_exact
from repro.core.method_registry import (
    MethodSpec,
    available_methods,
    get_method_spec,
    method_specs,
    register_method,
    unregister_method,
)
from repro.core.results import DDSResult, FixedRatioOutcome
from repro.core.verify import VerificationReport, is_locally_maximal, verify_result
from repro.core.xycore import XYCore, max_xy_core, xy_core, xy_core_skyline

__all__ = [
    "available_methods",
    "ExactConfig",
    "ApproxConfig",
    "MethodSpec",
    "get_method_spec",
    "method_specs",
    "register_method",
    "unregister_method",
    "DDSResult",
    "FixedRatioOutcome",
    "directed_density",
    "directed_density_from_indices",
    "edge_count_between",
    "surrogate_density",
    "interval_relaxation_factor",
    "global_density_upper_bound",
    "exactness_tolerance",
    "brute_force_dds",
    "flow_exact",
    "dc_exact",
    "core_exact",
    "core_approx",
    "inc_approx",
    "peel_approx",
    "peel_fixed_ratio",
    "XYCore",
    "xy_core",
    "max_xy_core",
    "xy_core_skyline",
    "CoreBounds",
    "core_based_bounds",
    "containing_core",
    "containing_core_orders",
    "verify_result",
    "is_locally_maximal",
    "VerificationReport",
]
