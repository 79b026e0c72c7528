"""Deadlines, budgets, and anytime partial results.

This module is the timekeeping layer of the serving stack.  A
:class:`Deadline` is a point on the **monotonic** clock: wall-clock jumps
(NTP steps, suspend/resume, leap smearing) can neither extend nor skip a
budget, which is the property the distributed tier's remaining-budget
enforcement and the client's circuit-breaker cooldown both rely on.  The
clock is injectable, so tests drive expiry deterministically instead of
sleeping.

Budget propagation
------------------
``ExactConfig.deadline_ms`` arms a :class:`Deadline` at query entry
(:class:`repro.session.DDSSession`), which travels down the whole solve
stack on the query's :class:`~repro.flow.engine.FlowEngine`:

* :meth:`FlowEngine.min_cut <repro.flow.engine.FlowEngine.min_cut>` checks
  it before each solve (admission) and hands it to the solver;
* the solver checks it at its phase boundaries — dinic between BFS
  rounds — and aborts *without* committing its in-progress snapshot, so
  the network keeps the valid residual flow it had at solve entry.

Nothing else checks it: the Dinkelbach and D&C drivers meet an expiry only
through the next min-cut they ask for.

Expiry raises :class:`~repro.exceptions.DeadlineExceeded`; the search
drivers catch it on the way up and attach an :class:`AnytimeResult` — the
ROADMAP's "anytime DDS" observation made concrete: every binary-search
step already yields a feasible subgraph and a certified bound, so a
deadline-expired query returns *that* instead of nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import ConfigError, DeadlineExceeded

__all__ = ["AnytimeResult", "Deadline", "DeadlineExceeded"]


class Deadline:
    """A time budget pinned to the monotonic clock.

    Parameters
    ----------
    budget_ms:
        The allowance in milliseconds, measured from construction.  Must be
        a positive finite number.
    clock:
        Second-resolution monotonic clock (defaults to ``time.monotonic``).
        Injectable so tests advance time deterministically; every reading
        this object ever takes goes through it — ``time.time()`` is never
        consulted, by design.
    """

    __slots__ = ("budget_ms", "_clock", "_started_at", "_expires_at")

    def __init__(
        self, budget_ms: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if isinstance(budget_ms, bool):
            raise ConfigError(f"deadline budget must be a number, got {budget_ms!r}")
        try:
            budget = float(budget_ms)
        except (TypeError, ValueError):
            raise ConfigError(f"deadline budget must be a number, got {budget_ms!r}") from None
        if not budget > 0 or budget != budget or budget == float("inf"):
            raise ConfigError(f"deadline budget must be a positive finite number of ms, got {budget_ms!r}")
        self.budget_ms = budget
        self._clock = clock
        self._started_at = clock()
        self._expires_at = self._started_at + budget / 1000.0

    def elapsed_ms(self) -> float:
        """Milliseconds consumed since the budget was armed."""
        return (self._clock() - self._started_at) * 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left before expiry, clamped at 0."""
        return max((self._expires_at - self._clock()) * 1000.0, 0.0)

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self._clock() >= self._expires_at

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out.

        The cooperative cancellation checkpoint: callers place this at
        phase boundaries where their state is consistent.  ``context``
        names the checkpoint for the exception message.
        """
        if self.expired:
            where = f" at {context}" if context else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_ms:g} ms exceeded{where} "
                f"({self.elapsed_ms():.1f} ms elapsed)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_ms={self.budget_ms:g}, remaining_ms={self.remaining_ms():.1f})"


@dataclass
class AnytimeResult:
    """The certified partial answer a deadline-expired search carries.

    ``s_nodes`` / ``t_nodes`` are the best feasible pair found before the
    budget ran out (node *labels*, like a :class:`~repro.core.results.
    DDSResult`; empty when no pair was extracted yet).  ``density`` is that
    pair's true density — a certified **lower** bound on the optimum — and
    ``upper_bound`` a certified **upper** bound assembled from the bracket
    state at cancellation (pending interval bounds, the global degree
    bound, completed searches' tolerances).  The invariant every chaos test
    pins: ``density <= rho_opt <= upper_bound``.
    """

    s_nodes: list[Any] = field(default_factory=list)
    t_nodes: list[Any] = field(default_factory=list)
    density: float = 0.0
    upper_bound: float = float("inf")
    #: Which driver assembled this partial (``"dc-exact"``, ``"flow-exact"``, ...).
    method: str = ""
    #: Milliseconds the search ran before expiry (informational).
    elapsed_ms: float = 0.0

    @property
    def gap(self) -> float:
        """Certified optimality gap ``upper_bound - density`` (may be ``inf``)."""
        return self.upper_bound - self.density

    @property
    def found_pair(self) -> bool:
        """Whether any feasible pair was extracted before expiry."""
        return bool(self.s_nodes) and bool(self.t_nodes)

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready form used by the service tier's deadline payloads."""
        upper = self.upper_bound
        return {
            "deadline_exceeded": True,
            "method": self.method,
            "density": self.density,
            "upper_bound": upper if upper != float("inf") else None,
            "gap": self.gap if upper != float("inf") else None,
            "s_size": len(self.s_nodes),
            "t_size": len(self.t_nodes),
            "is_exact": False,
        }
