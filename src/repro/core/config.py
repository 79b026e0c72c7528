"""Typed, validated configuration objects for the DDS algorithms.

The session-oriented public API (:class:`repro.session.DDSSession`) and the
method registry (:mod:`repro.core.method_registry`) replace the historical
``**kwargs`` funnel with three small frozen dataclasses:

* :class:`FlowConfig` — max-flow backend selection and decision-network cache
  sizing, shared by every flow-backed exact method;
* :class:`ExactConfig` — the knobs of the exact solvers (``flow-exact``,
  ``dc-exact``, ``core-exact``, ``brute-force``);
* :class:`ApproxConfig` — the knobs of the approximation family
  (``peel-approx``, ``core-approx``, ``inc-approx``).

All three validate eagerly in ``__post_init__`` and raise
:class:`~repro.exceptions.ConfigError` on bad values, so an invalid query is
rejected *before* any per-graph work starts.  They are frozen (hashable) on
purpose: a session uses ``(method, config)`` as its result-cache key.

Legacy keyword arguments (``tolerance=``, ``epsilon=``, ``flow_solver=`` ...)
are still accepted by every entry point through :meth:`MethodConfig.resolve`,
which overlays non-``None`` keyword overrides onto a base config and
re-validates the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.exceptions import ConfigError
from repro.flow.registry import DEFAULT_SOLVER, validate_solver_choice

#: Intervals containing at most this many distinct candidate ratios are
#: leaves of the divide-and-conquer recursion (canonical definition; the
#: solver modules re-export it for backwards compatibility).
LEAF_RATIO_COUNT = 2

#: Default capacity of the per-session / per-run decision-network LRU cache.
DEFAULT_NETWORK_CACHE_SIZE = 64


class MethodConfig:
    """Mixin providing override resolution shared by all config dataclasses."""

    @classmethod
    def resolve(cls, config: Any = None, **overrides: Any) -> "MethodConfig":
        """Overlay non-``None`` keyword ``overrides`` onto ``config``.

        ``config`` may be ``None`` (start from the defaults) or an instance of
        ``cls``; anything else — including a config meant for a different
        method family — raises :class:`ConfigError`.  Unknown override names
        raise :class:`ConfigError` listing the accepted fields, which is how
        typos in legacy keyword calls surface.
        """
        if config is None:
            config = cls()
        elif not isinstance(config, cls):
            raise ConfigError(
                f"expected {cls.__name__} (or None), got {type(config).__name__}: {config!r}"
            )
        clean = {name: value for name, value in overrides.items() if value is not None}
        if not clean:
            return config
        allowed = {f.name for f in fields(cls)}
        for alias in ("flow_solver", "deadline_ms"):
            # Per-field overrides of the nested FlowConfig: fold them into a
            # replaced ``flow`` (flow_solver= first, so deadline_ms= composes).
            # Skipped when the name is a direct field of this class (e.g.
            # deadline_ms on FlowConfig itself) — plain replace() handles it.
            if alias in allowed:
                continue
            value = clean.pop(alias, None)
            if value is None:
                continue
            if "flow" not in allowed:
                raise ConfigError(
                    f"{cls.__name__} does not accept {alias}= "
                    f"(accepted: {', '.join(sorted(allowed))})"
                )
            base_flow = clean.get("flow", getattr(config, "flow", None))
            if isinstance(base_flow, str):
                base_flow = FlowConfig(solver=base_flow)
            if alias == "flow_solver":
                clean["flow"] = replace(base_flow, solver=value)
            else:
                clean["flow"] = replace(base_flow, deadline_ms=value)
        if "max_nodes" in clean:
            # Legacy alias of the brute-force safety limit.
            if "node_limit" not in allowed:
                raise ConfigError(
                    f"{cls.__name__} does not accept max_nodes= "
                    f"(accepted: {', '.join(sorted(allowed))})"
                )
            if "node_limit" in clean:
                raise ConfigError("max_nodes is a legacy alias of node_limit; pass only one")
            clean["node_limit"] = clean.pop("max_nodes")
        unknown = sorted(set(clean) - allowed)
        if unknown:
            raise ConfigError(
                f"{cls.__name__} does not accept: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(allowed))})"
            )
        return replace(config, **clean)


@dataclass(frozen=True)
class FlowConfig(MethodConfig):
    """Max-flow backend configuration shared by the flow-backed exact methods.

    Attributes
    ----------
    solver:
        Registry name of the max-flow solver (see :mod:`repro.flow.registry`),
        or ``"auto"`` — the engine then picks the vectorised
        ``numpy-push-relabel`` backend for decision networks at or above the
        arc threshold and ``dinic`` below it (and everywhere when numpy is
        not installed), recording each choice as ``backend_selections``.
    network_cache_size:
        Capacity of the decision-network LRU cache shared across fixed-ratio
        searches (0 disables caching entirely).  A cached network keeps the
        residual flow of its last solve, and the next search on the same
        ``(sub-problem, ratio)`` continues from it.
    batch_size:
        Under the ``"auto"`` policy, up to this many fixed-ratio searches
        over the same sub-problem are run in lockstep as one block-diagonal
        batched solve whenever their *aggregate* arc count clears the auto
        threshold that each network misses alone (see
        :class:`repro.flow.batch.BatchedFlowNetwork` and
        ``batched_solves`` in the stats glossary).  ``1`` disables batching;
        explicit solver names are never batched.
    deadline_ms:
        Per-query time budget in milliseconds, or ``None`` (no deadline).
        When set, a monotonic :class:`repro.runtime.Deadline` is armed at
        query entry and checked cooperatively at solver phase boundaries;
        expiry raises :class:`~repro.exceptions.DeadlineExceeded` carrying
        an anytime partial result (see :mod:`repro.runtime`).  Queries that
        finish inside the budget are bit-identical to undeadlined runs.
    """

    solver: str = DEFAULT_SOLVER
    network_cache_size: int = DEFAULT_NETWORK_CACHE_SIZE
    batch_size: int = 32
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        # Resolve the name eagerly so an unknown solver fails at config time
        # ("auto" is accepted as a policy and resolved per network).
        validate_solver_choice(self.solver)
        if not isinstance(self.network_cache_size, int) or self.network_cache_size < 0:
            raise ConfigError(
                f"network_cache_size must be a non-negative int, got {self.network_cache_size!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be an int >= 1, got {self.batch_size!r}"
            )
        if self.deadline_ms is not None:
            if isinstance(self.deadline_ms, bool) or not isinstance(
                self.deadline_ms, (int, float)
            ):
                raise ConfigError(
                    f"deadline_ms must be a positive number or None, got {self.deadline_ms!r}"
                )
            if not 0 < self.deadline_ms < float("inf"):
                raise ConfigError(
                    f"deadline_ms must be a positive finite number or None, got {self.deadline_ms!r}"
                )
            # Normalise to float so configs hash/compare consistently across
            # int and float spellings of the same budget (result-cache keys).
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))


@dataclass(frozen=True)
class ExactConfig(MethodConfig):
    """Configuration of the exact solvers.

    Attributes
    ----------
    tolerance:
        Binary-search stopping gap; ``None`` selects the provably-exact
        :func:`~repro.core.density.exactness_tolerance` of the input graph.
    leaf_ratio_count:
        Divide-and-conquer leaf threshold (``dc-exact`` / ``core-exact``).
    seed_with_core:
        Seed the incumbent from the CoreApprox core instead of a cheap peel
        (``dc-exact`` only; ``core-exact`` always seeds with the core).
    node_limit:
        Override of the safety node limit of ``flow-exact`` / ``brute-force``.
    flow:
        The :class:`FlowConfig` selecting the min-cut backend.
    """

    tolerance: float | None = None
    leaf_ratio_count: int = LEAF_RATIO_COUNT
    seed_with_core: bool = False
    node_limit: int | None = None
    flow: FlowConfig = field(default_factory=FlowConfig)

    def __post_init__(self) -> None:
        if self.tolerance is not None and not self.tolerance > 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance!r}")
        if not isinstance(self.leaf_ratio_count, int) or self.leaf_ratio_count < 1:
            raise ConfigError(f"leaf_ratio_count must be an int >= 1, got {self.leaf_ratio_count!r}")
        if self.node_limit is not None and (
            not isinstance(self.node_limit, int) or self.node_limit < 1
        ):
            raise ConfigError(f"node_limit must be an int >= 1, got {self.node_limit!r}")
        if isinstance(self.flow, str):
            # Convenience: ExactConfig(flow="push-relabel").
            object.__setattr__(self, "flow", FlowConfig(solver=self.flow))
        elif not isinstance(self.flow, FlowConfig):
            raise ConfigError(f"flow must be a FlowConfig or solver name, got {self.flow!r}")


@dataclass(frozen=True)
class ApproxConfig(MethodConfig):
    """Configuration of the approximation algorithms.

    Attributes
    ----------
    epsilon:
        Geometric ratio-grid step of ``peel-approx`` (guarantee
        ``2*sqrt(1+epsilon)``); ignored by the core-based approximations.
    ratios:
        Optional explicit ratio grid overriding the geometric one
        (``peel-approx`` only; stored as a tuple so the config stays hashable).
    """

    epsilon: float = 0.5
    ratios: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon!r}")
        if self.ratios is not None:
            ratios = tuple(float(r) for r in self.ratios)
            if not ratios:
                raise ConfigError("ratios must be non-empty when given")
            if any(not r > 0 for r in ratios):
                raise ConfigError(f"every ratio must be > 0, got {self.ratios!r}")
            object.__setattr__(self, "ratios", ratios)
