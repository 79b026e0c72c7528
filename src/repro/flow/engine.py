"""The :class:`FlowEngine` — solver selection plus run-wide instrumentation.

Every exact DDS run owns (or borrows) one engine.  The engine resolves the
solver name through the registry once, then every min-cut in the run goes
through :meth:`FlowEngine.min_cut`, which accumulates the counters the
experiments (and the regression tests) care about.

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
``backend_selections``
    Min-cut computations for which the ``"auto"`` policy chose the backend
    per network (vectorised ``numpy-push-relabel`` at or above the arc
    threshold, ``dinic`` below — see
    :func:`repro.flow.registry.resolve_auto_solver`) or per *batch* (the
    aggregate rule of :func:`repro.flow.registry.resolve_auto_solver_batch`;
    every member of a batched solve counts once).  Always 0 for engines
    configured with a concrete solver name; the per-backend breakdown is
    exposed as :attr:`FlowEngine.auto_backend_choices` (surfaced by
    :meth:`DDSSession.cache_stats() <repro.session.DDSSession.cache_stats>`
    as ``auto_backends``).
``batched_solves``
    Block-diagonal batched solves executed through :meth:`FlowEngine.min_cut_batch`
    (one per *stacked* solver run, however many members it carried; the
    members themselves count under ``flow_calls``).  Always 0 for engines
    configured with a concrete solver name — only the ``"auto"`` policy
    batches.
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

from repro.exceptions import DeadlineExceeded, FlowError
from repro.flow.network import FlowNetwork
from repro.flow.registry import (
    AUTO_SOLVER,
    DEFAULT_SOLVER,
    VECTOR_SOLVER,
    batch_eligible,
    get_solver_class,
    resolve_auto_solver,
    resolve_auto_solver_batch,
)

#: Counter attribute names, in the order used by :meth:`FlowEngine.snapshot`
#: (the one declaration every stats view iterates).
COUNTERS = (
    "flow_calls",
    "networks_built",
    "arcs_pushed",
    "backend_selections",
    "batched_solves",
    "deadline_hits",
)


def zero_snapshot() -> tuple[int, ...]:
    """The snapshot of a freshly constructed engine (all counters zero)."""
    return (0,) * len(COUNTERS)


class FlowEngine:
    """Pluggable min-cut executor with per-run instrumentation."""

    __slots__ = (
        "solver_name",
        "solver_class",
        "auto_backend_choices",
        "deadline",
    ) + COUNTERS

    def __init__(self, flow_solver: str = DEFAULT_SOLVER) -> None:
        self.solver_name = flow_solver
        # ``"auto"`` is a per-network selection policy, not a class: the
        # concrete backend is resolved inside min_cut() from the network's
        # arc count (and counted as ``backend_selections``).
        self.solver_class = None if flow_solver == AUTO_SOLVER else get_solver_class(flow_solver)
        #: Lifetime ``{backend name: times chosen}`` of the auto policy
        #: (empty for engines configured with a concrete solver).
        self.auto_backend_choices: dict[str, int] = {}
        #: The active :class:`repro.runtime.Deadline`, or ``None``.  Armed by
        #: the session layer for the duration of one query; every min-cut
        #: checks it before starting and hands it to the solver for
        #: phase-boundary cancellation checkpoints.
        self.deadline = None
        for name in COUNTERS:
            setattr(self, name, 0)

    def _resolve_class(self, network: FlowNetwork):
        """The concrete solver class for ``network`` (auto policy applied)."""
        if self.solver_class is not None:
            return self.solver_class
        name, solver_class = resolve_auto_solver(network.num_arcs)
        self.backend_selections += 1
        self.auto_backend_choices[name] = self.auto_backend_choices.get(name, 0) + 1
        return solver_class

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
        solver = self._resolve_class(network)(network, source, sink)
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

    def supports_batching(self, arc_counts: list[int]) -> bool:
        """Whether these networks should be solved as one block-diagonal batch.

        True only for ``"auto"`` engines (an explicit solver choice is
        honoured verbatim, never widened into a batch) whose family passes
        the registry's aggregate gate: every member below the arc threshold,
        the aggregate at or above it, and the vectorised backend available.
        """
        return self.solver_class is None and batch_eligible(arc_counts)

    def min_cut_batch(
        self,
        batch: Any,
        active: list[int],
    ) -> list[tuple[float, list[int], int]]:
        """One block-diagonal solve of ``batch``'s active members.

        ``batch`` is a :class:`~repro.flow.batch.BatchedFlowNetwork`;
        ``active`` lists the member indices to solve this round (the rest
        stay masked).  Returns, per active member, ``(flow_value,
        member-local cut source side, arcs pushed inside that block)``.

        Counting policy: each active member counts as one ``flow_calls`` /
        ``backend_selections`` (the batched path must be counter-compatible
        with the sequential path it replaces), the
        stacked run itself counts once under ``batched_solves``, and the
        backend chosen by the aggregate policy is charged once per member in
        :attr:`auto_backend_choices`.  The policy is resolved on the *whole
        family's* aggregate (the engagement decision), not the active
        subset, so a batch stays on the vectorised backend as its members
        converge and drop out.
        """
        if self.solver_class is not None:
            raise FlowError(
                "batched solves are only available under the 'auto' policy; "
                f"engine is configured with {self.solver_name!r}"
            )
        if not active:
            return []
        name, solver_class = resolve_auto_solver_batch(batch.member_arc_counts)
        if name != VECTOR_SOLVER:
            raise FlowError(
                "batched solve requires the vectorised backend for the aggregate "
                "arc count; gate with supports_batching() first"
            )
        if self.deadline is not None and self.deadline.expired:
            self.deadline_hits += 1
            self.deadline.check("engine.min_cut_batch admission")
        import numpy

        batch.gather(active)
        solver = solver_class(batch.network, batch.source, batch.sink)
        solver.arc_owner = batch.arc_owner
        solver.owner_pushes = numpy.zeros(batch.num_members, dtype=numpy.int64)
        if self.deadline is not None:
            solver.deadline = self.deadline
        try:
            solver.max_flow()
        except DeadlineExceeded:
            # Cancellation skips the scatter: the *member* networks keep the
            # residual flows they held at gather time (the stacked scratch
            # buffers are rebuilt by the next gather).
            self.deadline_hits += 1
            raise
        batch.scatter(active)

        members = len(active)
        self.flow_calls += members
        self.backend_selections += members
        self.auto_backend_choices[name] = (
            self.auto_backend_choices.get(name, 0) + members
        )
        self.arcs_pushed += solver.arcs_pushed
        self.batched_solves += 1

        source_side = solver.min_cut_source_side()
        return [
            (
                batch.block_flow_value(index),
                batch.block_cut(source_side, index),
                int(solver.owner_pushes[index]),
            )
            for index in active
        ]

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
