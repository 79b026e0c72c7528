"""Typed, validated configuration objects for the DDS algorithms.

The session-oriented public API (:class:`repro.session.DDSSession`) and the
method registry (:mod:`repro.core.method_registry`) replace the historical
``**kwargs`` funnel with two small frozen dataclasses:

* :class:`ExactConfig` — the settings of the exact solvers (``flow-exact``,
  ``dc-exact``, ``core-exact``, ``brute-force``): the search tolerance, the
  ``dc-exact`` incumbent seed, and the per-query budget;
* :class:`ApproxConfig` — the settings of the approximation family
  (``peel-approx``, ``core-approx``, ``inc-approx``): ``peel-approx``'s
  grid step.

Both validate eagerly in ``__post_init__`` and raise
:class:`~repro.exceptions.ConfigError` on bad values, so an invalid query is
rejected *before* any per-graph work starts.  They are frozen (hashable) on
purpose: a session uses ``(method, config)`` as its result-cache key.

Per-field keyword overrides (``tolerance=``, ``epsilon=``,
``deadline_ms=``) are accepted by :meth:`DDSSession.densest_subgraph
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

from dataclasses import dataclass, fields, replace
from typing import Any

from repro.exceptions import ConfigError, FlowError

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
        unknown = sorted(set(clean) - allowed)
        if unknown:
            raise ConfigError(
                f"{cls.__name__} does not accept: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(allowed))})"
            )
        return replace(config, **clean)


def strip_solver_name(flow: str | None) -> None:
    """Check that ``flow`` is ``None`` or one of the one solver's names.

    Every min-cut runs Dinic's algorithm.  Callers written when a name chose
    the solver still pass one to the ``flow=`` argument of
    :class:`~repro.session.DDSSession`,
    :class:`~repro.service.executor.BatchExecutor` and
    :class:`~repro.net.daemon.ShardDaemon`, and as the ``flow_solver=``
    override of densest and top-k queries and batch entries.  The names in
    :data:`SOLVER_NAMES` select nothing there; any other value raises
    :class:`~repro.exceptions.FlowError`, as an unknown solver always has.
    """
    if flow is not None and not (isinstance(flow, str) and flow in SOLVER_NAMES):
        raise FlowError(
            f"unknown flow solver {flow!r}; every min-cut runs dinic ('auto' names it too)"
        )


@dataclass(frozen=True)
class ExactConfig(MethodConfig):
    """Configuration of the exact solvers.

    Attributes
    ----------
    tolerance:
        Binary-search stopping gap; ``None`` selects the provably-exact
        :func:`~repro.core.density.exactness_tolerance` of the input graph.
    seed_with_core:
        Seed the incumbent from the CoreApprox core instead of a cheap peel
        (``dc-exact`` only; ``core-exact`` always seeds with the core).
    deadline_ms:
        Per-query time budget in milliseconds, or ``None`` (no deadline).
        When set, a monotonic :class:`repro.runtime.Deadline` is armed at
        query entry and checked cooperatively at solver phase boundaries;
        expiry raises :class:`~repro.exceptions.DeadlineExceeded` carrying
        an anytime partial result (see :mod:`repro.runtime`).  Queries that
        finish inside the budget are bit-identical to undeadlined runs, so
        a session keys its result cache without the budget.
    """

    tolerance: float | None = None
    seed_with_core: bool = False
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.tolerance is not None and not self.tolerance > 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance!r}")
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
class ApproxConfig(MethodConfig):
    """Configuration of the approximation algorithms.

    Attributes
    ----------
    epsilon:
        Geometric ratio-grid step of ``peel-approx`` (guarantee
        ``2*sqrt(1+epsilon)``); ignored by the core-based approximations.
    """

    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon!r}")
