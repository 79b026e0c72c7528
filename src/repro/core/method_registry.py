"""First-class registry of DDS methods (the analogue of the flow-solver registry).

Historically the public dispatch lived in a private ``_METHODS`` dict inside
:mod:`repro.core.api`, with an untyped ``**kwargs`` funnel and hard-coded
knowledge of which methods run min-cuts.  This module promotes it to a
declarative plugin registry mirroring :mod:`repro.flow.registry`: each
algorithm registers a :class:`MethodSpec` carrying

* its **runner** — a uniform callable ``(graph, config, context) -> DDSResult``,
* its accepted **config type** (:class:`~repro.core.config.ExactConfig` or
  :class:`~repro.core.config.ApproxConfig`), and
* **capability flags**: exactness, and whether it is flow-backed (runs
  min-cuts, hence honours ``FlowConfig.solver`` and receives the session's
  shared :class:`~repro.flow.engine.FlowEngine` and
  :class:`~repro.core.network_cache.NetworkCache` — the hooks
  :class:`~repro.session.DDSSession` uses to reuse state, including
  *residual flows*, across queries; see :class:`MethodSpec`).

Third-party algorithms plug in without touching the session or the CLI::

    from repro.core.method_registry import MethodSpec, register_method

    register_method(MethodSpec(
        name="my-heuristic",
        runner=lambda graph, config, context: my_heuristic(graph, config),
        config_type=ApproxConfig,
        is_exact=False,
        flow_backed=False,
        description="my custom densest-subgraph heuristic",
    ))
    DDSSession(graph).densest_subgraph("my-heuristic")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.approx_core import core_approx, inc_approx
from repro.core.approx_peel import peel_approx
from repro.core.bruteforce import brute_force_dds
from repro.core.config import ApproxConfig, ExactConfig, MethodConfig
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.core.exact_flow import flow_exact
from repro.core.network_cache import NetworkCache
from repro.core.results import DDSResult
from repro.exceptions import AlgorithmError
from repro.flow.engine import FlowEngine
from repro.graph.digraph import DiGraph


@dataclass
class RunContext:
    """Shared per-session runtime state handed to every runner.

    The session fills in ``network_cache`` only for flow-backed methods.
    """

    engine: FlowEngine | None = None
    network_cache: NetworkCache | None = None


#: Runner protocol: ``(graph, config, context) -> DDSResult``.
MethodRunner = Callable[[DiGraph, MethodConfig, RunContext], DDSResult]


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one registered DDS method.

    Attributes
    ----------
    name:
        Registry key (the public method name, e.g. ``"core-exact"``).
    runner:
        Uniform entry point ``(graph, config, context) -> DDSResult``.
    config_type:
        The config dataclass this method accepts; queries are validated
        against it before the runner is invoked.
    is_exact:
        Whether the method guarantees optimality.
    flow_backed:
        Whether the method runs min-cuts, and therefore honours
        ``FlowConfig.solver`` and consumes ``context.engine`` /
        ``context.network_cache`` to share state across queries.  The
        session only hands its shared
        :class:`~repro.core.network_cache.NetworkCache` — whose entries
        carry *residual flow state* between retunes — to flow-backed
        methods; the others ignore (and report) an explicitly requested
        solver.
    description:
        One-line human-readable summary (shown by ``dds-repro`` help texts).
    accepted_fields:
        The config fields this method actually consults (``None`` = all of
        them).  The session rejects queries that set an unused field to a
        non-default value — a knob that silently does nothing is worse than
        an error.  ``flow`` is special-cased by the session: on a
        non-flow-backed method it is *ignored with a warning* (legacy
        ``flow_solver_ignored`` behaviour) rather than rejected.
    """

    name: str
    runner: MethodRunner = field(repr=False)
    config_type: type
    is_exact: bool
    flow_backed: bool
    description: str = ""
    accepted_fields: frozenset[str] | None = None


_REGISTRY: dict[str, MethodSpec] = {}


def register_method(spec: MethodSpec) -> None:
    """Register (or replace) a method under ``spec.name``."""
    if not spec.name:
        raise AlgorithmError("method name must be non-empty")
    if not callable(spec.runner):
        raise AlgorithmError(f"runner for {spec.name!r} must be callable")
    if not (isinstance(spec.config_type, type) and issubclass(spec.config_type, MethodConfig)):
        raise AlgorithmError(
            f"config_type for {spec.name!r} must be a MethodConfig subclass, "
            f"got {spec.config_type!r}"
        )
    if spec.config_type.__hash__ is None:
        # Sessions key their result cache by (method, config); a non-frozen
        # dataclass (eq=True sets __hash__ = None) would crash at query time.
        raise AlgorithmError(
            f"config_type for {spec.name!r} must be hashable — "
            "declare it as a frozen dataclass"
        )
    _REGISTRY[spec.name] = spec


def unregister_method(name: str) -> None:
    """Remove a registered method (built-ins included — use with care)."""
    if name not in _REGISTRY:
        raise AlgorithmError(f"unknown method {name!r}")
    del _REGISTRY[name]


def available_methods() -> list[str]:
    """Registered method names, sorted (``"auto"`` is handled by the session)."""
    return sorted(_REGISTRY)


def method_specs() -> list[MethodSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in available_methods()]


def get_method_spec(name: str) -> MethodSpec:
    """Look up a spec by registry name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise AlgorithmError(
            f"unknown method {name!r}; available: {', '.join(available_methods())} or 'auto'"
        )
    return spec


# ----------------------------------------------------------------------
# Built-in method registrations.
# ----------------------------------------------------------------------
def _run_flow_exact(graph: DiGraph, config: ExactConfig, context: RunContext) -> DDSResult:
    # flow-exact visits every (subproblem, ratio) key exactly once, so its
    # networks are never reusable; a private cache keeps its O(n^2) single-use
    # entries from evicting the session's reusable dc/core/fixed-ratio
    # networks.  The shared engine still aggregates instrumentation.
    return flow_exact(
        graph,
        config,
        engine=context.engine,
        network_cache=NetworkCache(config.flow.network_cache_size),
    )


def _run_dc_exact(graph: DiGraph, config: ExactConfig, context: RunContext) -> DDSResult:
    return dc_exact(graph, config, engine=context.engine, network_cache=context.network_cache)


def _run_core_exact(graph: DiGraph, config: ExactConfig, context: RunContext) -> DDSResult:
    return core_exact(
        graph, config, engine=context.engine, network_cache=context.network_cache
    )


register_method(MethodSpec(
    name="flow-exact",
    runner=_run_flow_exact,
    config_type=ExactConfig,
    is_exact=True,
    flow_backed=True,
    description="baseline exact: one fixed-ratio search per candidate ratio",
    accepted_fields=frozenset({"tolerance", "node_limit", "flow"}),
))
register_method(MethodSpec(
    name="dc-exact",
    runner=_run_dc_exact,
    config_type=ExactConfig,
    is_exact=True,
    flow_backed=True,
    description="exact divide-and-conquer over the |S|/|T| ratio interval",
    accepted_fields=frozenset({"tolerance", "leaf_ratio_count", "seed_with_core", "flow"}),
))
register_method(MethodSpec(
    name="core-exact",
    runner=_run_core_exact,
    config_type=ExactConfig,
    is_exact=True,
    flow_backed=True,
    description="divide-and-conquer with [x, y]-core pruning (paper headline)",
    accepted_fields=frozenset({"tolerance", "leaf_ratio_count", "flow"}),
))
register_method(MethodSpec(
    name="core-approx",
    runner=lambda graph, config, context: core_approx(graph, config),
    config_type=ApproxConfig,
    is_exact=False,
    flow_backed=False,
    description="2-approximation from the maximum-product [x, y]-core",
    accepted_fields=frozenset(),
))
register_method(MethodSpec(
    name="inc-approx",
    runner=lambda graph, config, context: inc_approx(graph, config),
    config_type=ApproxConfig,
    is_exact=False,
    flow_backed=False,
    description="2-approximation via the full skyline decomposition",
    accepted_fields=frozenset(),
))
register_method(MethodSpec(
    name="peel-approx",
    runner=lambda graph, config, context: peel_approx(graph, config),
    config_type=ApproxConfig,
    is_exact=False,
    flow_backed=False,
    description="ratio-sweep two-sided peeling baseline",
    accepted_fields=frozenset({"epsilon", "ratios"}),
))
register_method(MethodSpec(
    name="brute-force",
    runner=lambda graph, config, context: brute_force_dds(graph, config),
    config_type=ExactConfig,
    is_exact=True,
    flow_backed=False,
    description="exhaustive ground-truth oracle for tiny graphs",
    accepted_fields=frozenset({"node_limit"}),
))
