"""The :class:`FlowEngine` — solver selection plus run-wide instrumentation.

Every exact DDS run owns (or borrows) one engine.  The engine resolves the
solver name through the registry once, at construction (``"auto"`` binds
the default solver, ``dinic``), then every min-cut in the run goes through
:meth:`FlowEngine.min_cut`, which accumulates the counters the experiments
(and the regression tests) care about.

Stats-key glossary
------------------
This module is the **canonical definition** of the flow-engine counters.
They appear, as deltas or lifetime totals, in ``DDSResult.stats``,
:meth:`DDSSession.cache_stats() <repro.session.DDSSession.cache_stats>`,
and the benchmark tables.

``flow_calls``
    Number of max-flow/min-cut computations executed.
``networks_built``
    Number of search decision networks built: one per fixed-ratio search
    that runs a min-cut, so it equals the number of fixed-ratio searches.
    The narrowed networks a search builds for its guesses after a cut that
    extracted a smaller pair (see :mod:`repro.core.fixed_ratio`) are not
    counted.
``arcs_pushed``
    Total per-arc residual updates across all solver runs — a
    machine-independent proxy for flow work, not a measure of wall time.
    Solver pushes only: the start flow a decision network is routed in
    bulk before each solve
    (:meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow`)
    is not counted.
``deadline_hits``
    Min-cut computations cancelled (or refused before starting) by an
    expired :class:`repro.runtime.Deadline` armed on the engine.  Always 0
    when no deadline is configured — the no-deadline fast path is a single
    ``is None`` test per phase.

Every solver continues from the flow the network holds: zero, or the start
flow a fixed-ratio search routes before each solve.

A :class:`~repro.session.DDSSession` keeps one engine per solver for its
whole lifetime, so the counters are *cumulative across queries*; algorithms
that need per-run numbers take a :meth:`snapshot` at entry and report
:meth:`stats_since` that snapshot in ``DDSResult.stats``.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import DeadlineExceeded
from repro.flow.network import FlowNetwork
from repro.flow.registry import AUTO_SOLVER, DEFAULT_SOLVER, get_solver_class

#: Counter attribute names, in the order used by :meth:`FlowEngine.snapshot`
#: (the one declaration every stats view iterates).
COUNTERS = (
    "flow_calls",
    "networks_built",
    "arcs_pushed",
    "deadline_hits",
)


def zero_snapshot() -> tuple[int, ...]:
    """The snapshot of a freshly constructed engine (all counters zero)."""
    return (0,) * len(COUNTERS)


class FlowEngine:
    """Pluggable min-cut executor with per-run instrumentation."""

    __slots__ = ("solver_name", "solver_class", "deadline") + COUNTERS

    def __init__(self, flow_solver: str = DEFAULT_SOLVER) -> None:
        self.solver_name = flow_solver
        self.solver_class = get_solver_class(
            DEFAULT_SOLVER if flow_solver == AUTO_SOLVER else flow_solver
        )
        #: The active :class:`repro.runtime.Deadline`, or ``None``.  Armed by
        #: the session layer for the duration of one query; every min-cut
        #: checks it before starting and hands it to the solver for
        #: phase-boundary cancellation checkpoints.
        self.deadline = None
        for name in COUNTERS:
            setattr(self, name, 0)

    def note_network_built(self) -> None:
        """Record that a decision network was constructed from scratch."""
        self.networks_built += 1

    def min_cut(self, network: FlowNetwork, source: int, sink: int) -> tuple[float, Any]:
        """Run one max-flow/min-cut and return ``(cut_value, solver)``.

        The network's residual state must be a valid feasible flow (zero on
        a fresh network, or e.g. the start flow
        :meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow`
        routes); the solver continues from it and returns the total value.
        The returned solver instance exposes ``min_cut_source_side()`` for
        cut extraction; the engine's counters are already updated.
        """
        if self.deadline is not None and self.deadline.expired:
            # Refuse before touching the network: its residual state stays
            # exactly as the caller left it.
            self.deadline_hits += 1
            self.deadline.check("engine.min_cut admission")
        solver = self.solver_class(network, source, sink)
        if self.deadline is not None:
            solver.deadline = self.deadline
        try:
            value = solver.max_flow()
        except DeadlineExceeded:
            # The solver aborted at a phase boundary without committing its
            # in-progress snapshot; the partial work is still accounted for.
            self.deadline_hits += 1
            self.flow_calls += 1
            self.arcs_pushed += getattr(solver, "arcs_pushed", 0)
            raise
        self.flow_calls += 1
        self.arcs_pushed += getattr(solver, "arcs_pushed", 0)
        return value, solver

    def min_cut_batch(
        self, members: list[tuple[FlowNetwork, int, int]]
    ) -> list[tuple[float, Any]]:
        """:meth:`min_cut` once per ``(network, source, sink)``, in order.

        Nothing in ``src/`` calls this.  It stays only because perfbench's
        tracer (``perfbench/ddsbench/layers.py``) patches it by name and
        fails on a missing one; it goes once that tracer accepts a missing
        name (ROADMAP direction 2).
        """
        return [self.min_cut(network, source, sink) for network, source, sink in members]

    def snapshot(self) -> tuple[int, ...]:
        """Opaque counter snapshot for later :meth:`stats_since` deltas."""
        return tuple(getattr(self, name) for name in COUNTERS)

    def stats_since(self, snapshot: tuple[int, ...]) -> dict[str, Any]:
        """Per-run instrumentation delta since ``snapshot`` (plus the solver name)."""
        stats: dict[str, Any] = {"flow_solver": self.solver_name}
        for name, start in zip(COUNTERS, snapshot):
            stats[name] = getattr(self, name) - start
        return stats

    def stats(self) -> dict[str, Any]:
        """Lifetime instrumentation snapshot (cumulative across queries)."""
        return self.stats_since(zero_snapshot())
