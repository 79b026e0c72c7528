"""Typed, validated configuration objects for the DDS algorithms.

The session-oriented public API (:class:`repro.session.DDSSession`) and the
method registry (:mod:`repro.core.method_registry`) replace the historical
``**kwargs`` funnel with three small frozen dataclasses:

* :class:`FlowConfig` — the per-query budget, shared by every flow-backed
  exact method (every min-cut runs Dinic's algorithm, so nothing selects
  a solver);
* :class:`ExactConfig` — the knobs of the exact solvers (``flow-exact``,
  ``dc-exact``, ``core-exact``, ``brute-force``);
* :class:`ApproxConfig` — the knobs of the approximation family
  (``peel-approx``, ``core-approx``, ``inc-approx``).

All three validate eagerly in ``__post_init__`` and raise
:class:`~repro.exceptions.ConfigError` on bad values, so an invalid query is
rejected *before* any per-graph work starts.  They are frozen (hashable) on
purpose: a session uses ``(method, config)`` as its result-cache key.

Per-field keyword overrides (``tolerance=``, ``epsilon=``, and the
``deadline_ms=`` alias of the nested :class:`FlowConfig`) are accepted by
:meth:`DDSSession.densest_subgraph
<repro.session.DDSSession.densest_subgraph>`, :meth:`DDSSession.top_k
<repro.session.DDSSession.top_k>` and batch query specs through
:meth:`MethodConfig.resolve`, which overlays non-``None`` keyword overrides
onto a base config and re-validates the result.  The algorithm drivers take
only a typed config.

:func:`strip_solver_name` is the one place a solver name is still read: it
accepts the two names of the one solver, :data:`SOLVER_NAMES`, where
callers written when a name chose the solver pass them, and selects nothing
with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.exceptions import ConfigError, FlowError

#: Intervals containing at most this many distinct candidate ratios are
#: leaves of the divide-and-conquer recursion.
LEAF_RATIO_COUNT = 2

#: The names of the one min-cut solver, Dinic's, that callers may still pass
#: where a name once chose the solver.  Neither selects anything.
SOLVER_NAMES = ("auto", "dinic")


class MethodConfig:
    """Mixin providing override resolution shared by all config dataclasses."""

    @classmethod
    def resolve(cls, config: Any = None, **overrides: Any) -> "MethodConfig":
        """Overlay non-``None`` keyword ``overrides`` onto ``config``.

        ``config`` may be ``None`` (start from the defaults) or an instance of
        ``cls``; anything else — including a config meant for a different
        method family — raises :class:`ConfigError`.  Unknown override names
        raise :class:`ConfigError` listing the accepted fields, which is how
        typos in keyword overrides surface.
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
        if "deadline_ms" in clean and "deadline_ms" not in allowed:
            # The per-field override of the nested FlowConfig: fold it into
            # a replaced ``flow``.
            if "flow" not in allowed:
                raise ConfigError(
                    f"{cls.__name__} does not accept deadline_ms= "
                    f"(accepted: {', '.join(sorted(allowed))})"
                )
            deadline_ms = clean.pop("deadline_ms")
            base_flow = clean.get("flow", config.flow)
            if isinstance(base_flow, FlowConfig):
                # Anything else is refused by the config's own validation.
                clean["flow"] = replace(base_flow, deadline_ms=deadline_ms)
        unknown = sorted(set(clean) - allowed)
        if unknown:
            raise ConfigError(
                f"{cls.__name__} does not accept: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(allowed))})"
            )
        return replace(config, **clean)


@dataclass(frozen=True)
class FlowConfig(MethodConfig):
    """Min-cut configuration shared by the flow-backed exact methods.

    Attributes
    ----------
    deadline_ms:
        Per-query time budget in milliseconds, or ``None`` (no deadline).
        When set, a monotonic :class:`repro.runtime.Deadline` is armed at
        query entry and checked cooperatively at solver phase boundaries;
        expiry raises :class:`~repro.exceptions.DeadlineExceeded` carrying
        an anytime partial result (see :mod:`repro.runtime`).  Queries that
        finish inside the budget are bit-identical to undeadlined runs.
    """

    deadline_ms: float | None = None

    def __post_init__(self) -> None:
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


def strip_solver_name(flow: FlowConfig | str | None) -> FlowConfig | None:
    """``flow``, with either of the one solver's names read as ``None``.

    Every min-cut runs Dinic's algorithm.  Callers written when a name chose
    the solver still pass one to the ``flow=`` argument of
    :class:`~repro.session.DDSSession`,
    :class:`~repro.service.executor.BatchExecutor` and
    :class:`~repro.net.daemon.ShardDaemon`, and as the ``flow_solver=``
    override of densest and top-k queries and batch entries.  The names in
    :data:`SOLVER_NAMES` select nothing there: they mean what no flow config
    means.  Any other value that is not a :class:`FlowConfig` raises
    :class:`~repro.exceptions.FlowError`, as an unknown solver always has.
    """
    if flow is None or isinstance(flow, FlowConfig):
        return flow
    if isinstance(flow, str) and flow in SOLVER_NAMES:
        return None
    raise FlowError(f"unknown flow solver {flow!r}; every min-cut runs dinic ('auto' names it too)")


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
        The :class:`FlowConfig` of the method's min-cuts.
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
        if not isinstance(self.flow, FlowConfig):
            raise ConfigError(f"flow must be a FlowConfig, got {self.flow!r}")


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
