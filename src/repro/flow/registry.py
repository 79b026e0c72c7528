"""Named registry of max-flow solver implementations.

The exact DDS algorithms accept a ``flow_solver=`` name (and the CLI a
``--flow-solver`` flag) instead of hard-coding a solver class; this module
is the single source of truth mapping those names to classes.

A solver class must satisfy the protocol shared by the built-ins:

* ``Solver(network, source, sink)`` binds to one
  :class:`~repro.flow.network.FlowNetwork`;
* ``max_flow() -> float`` runs to completion, continuing from the feasible
  flow the network's residual capacities hold (zero on a fresh network)
  and returning the *total* max-flow value;
* ``min_cut_source_side() -> list[int]`` returns the source side of a
  minimum cut (valid after ``max_flow``);
* an ``arcs_pushed`` integer attribute counting per-arc residual updates
  (used by the :class:`~repro.flow.engine.FlowEngine` instrumentation).

Third-party backends (e.g. a Rust-accelerated solver) plug in via
:func:`register_solver` without touching any algorithm code::

    from repro.flow.registry import register_solver
    register_solver("my-solver", MySolverClass)
    dc_exact(graph, flow_solver="my-solver")

The built-in vectorised backend (:mod:`repro.flow.numpy_backend`) is
registered the same way, but **import-guarded**: when numpy is not
importable the registry simply does not list ``numpy-push-relabel`` and
everything else keeps working on the pure-python solvers.

Besides concrete solver names, configs and the CLI accept the *policy* name
:data:`AUTO_SOLVER` (``"auto"``): the engine then picks a backend per
network — the vectorised backend for networks with at least
:data:`AUTO_ARC_THRESHOLD` stored arcs (where bulk array ops amortise their
per-call overhead), ``dinic`` below that, and ``dinic`` everywhere when
numpy is missing.  When a whole *family* of closely related networks is
solved together, the policy judges the family's **aggregate** arc count
instead (:func:`resolve_auto_solver_batch`): many sub-threshold networks
stacked block-diagonally fill the vector width that none of them fills
alone (:func:`batch_eligible`, :class:`~repro.flow.batch.BatchedFlowNetwork`).
``"auto"`` is deliberately not a registry entry: it names a selection rule,
not a solver class (see :func:`resolve_auto_solver` and the
``backend_selections`` counter in :mod:`repro.flow.engine`).
"""

from __future__ import annotations

from typing import Type

from repro.exceptions import FlowError
from repro.flow.dinic import DinicSolver
from repro.flow.edmonds_karp import EdmondsKarpSolver
from repro.flow.push_relabel import PushRelabelSolver

try:  # the vectorised backend only exists where numpy does
    from repro.flow.numpy_backend import NumpyPushRelabelSolver
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    NumpyPushRelabelSolver = None  # type: ignore[assignment]

#: The default solver used when no name is given.
DEFAULT_SOLVER = "dinic"

#: Registry name of the vectorised numpy backend (absent without numpy).
VECTOR_SOLVER = "numpy-push-relabel"

#: Policy name accepted by configs/CLI: per-network backend selection.
AUTO_SOLVER = "auto"

#: Networks with at least this many stored arcs are routed to the vectorised
#: backend by the ``"auto"`` policy; smaller ones run ``dinic``, whose
#: per-arc Python loop beats numpy's per-call overhead at that scale.  The
#: value was calibrated with ``tools/bench_trajectory.py`` (see
#: ``BENCH_flow.json``).
AUTO_ARC_THRESHOLD = 4096

_SOLVERS: dict[str, Type] = {
    "dinic": DinicSolver,
    "push-relabel": PushRelabelSolver,
    "edmonds-karp": EdmondsKarpSolver,
}
if NumpyPushRelabelSolver is not None:
    _SOLVERS[VECTOR_SOLVER] = NumpyPushRelabelSolver


def available_flow_solvers() -> list[str]:
    """Registered solver names, sorted."""
    return sorted(_SOLVERS)


def has_vector_backend() -> bool:
    """Whether the numpy-vectorised backend is registered (numpy importable)."""
    return VECTOR_SOLVER in _SOLVERS


def flow_solver_choices() -> list[str]:
    """Every name a ``flow_solver=`` knob accepts: registered solvers + ``"auto"``."""
    return sorted([*_SOLVERS, AUTO_SOLVER])


def validate_solver_choice(name: str) -> None:
    """Validate a ``flow_solver=`` value eagerly (``"auto"`` included).

    Raises :class:`~repro.exceptions.FlowError` for unknown names, like
    :func:`get_solver_class`, but additionally accepts the ``"auto"``
    policy — which resolves to a concrete class per network, not here.
    """
    if name != AUTO_SOLVER:
        get_solver_class(name)


def resolve_auto_solver(num_arcs: int) -> tuple[str, Type]:
    """The ``"auto"`` policy: pick ``(name, class)`` for a network of ``num_arcs``.

    Vectorised backend at or above :data:`AUTO_ARC_THRESHOLD` stored arcs
    when it is registered; ``dinic`` otherwise (small networks, or numpy
    missing).
    """
    if num_arcs >= AUTO_ARC_THRESHOLD and VECTOR_SOLVER in _SOLVERS:
        return VECTOR_SOLVER, _SOLVERS[VECTOR_SOLVER]
    return DEFAULT_SOLVER, _SOLVERS[DEFAULT_SOLVER]


def resolve_auto_solver_batch(arc_counts: list[int]) -> tuple[str, Type]:
    """The ``"auto"`` policy over a *batch*: resolve on aggregate arcs.

    This is the crossover fix for block-diagonal batched solves: a family
    of networks that are each below :data:`AUTO_ARC_THRESHOLD` — and would
    therefore each resolve to ``dinic`` on their own — fills the vectorised
    backend's vector width once they are stacked, so the policy must judge
    the *sum* of their stored arcs, not each member.  A batch whose
    aggregate still sits under the threshold (or an empty batch) resolves
    exactly like a single network of that size.
    """
    return resolve_auto_solver(sum(arc_counts))


def batch_eligible(arc_counts: list[int]) -> bool:
    """Whether a family of networks should be solved block-diagonally.

    True when stacking pays: at least two members, every member *below*
    :data:`AUTO_ARC_THRESHOLD` (an at-or-above-threshold member already
    fills the vector width alone and resolves to the vectorised backend
    per network), the aggregate at or above the threshold, and the
    vectorised backend registered.  This gate only ever widens the
    ``"auto"`` policy — explicit solver selections are never batched.
    """
    return (
        len(arc_counts) >= 2
        and VECTOR_SOLVER in _SOLVERS
        and all(count < AUTO_ARC_THRESHOLD for count in arc_counts)
        and sum(arc_counts) >= AUTO_ARC_THRESHOLD
    )


def get_solver_class(name: str = DEFAULT_SOLVER) -> Type:
    """Look up a solver class by registry name."""
    solver = _SOLVERS.get(name)
    if solver is None:
        raise FlowError(
            f"unknown flow solver {name!r}; available: {', '.join(available_flow_solvers())}"
        )
    return solver


def register_solver(name: str, solver_class: Type) -> None:
    """Register (or replace) a solver class under ``name``.

    The class is validated lightly: it must be constructible with
    ``(network, source, sink)`` and expose ``max_flow`` and
    ``min_cut_source_side`` callables.
    """
    if not name:
        raise FlowError("solver name must be non-empty")
    for required in ("max_flow", "min_cut_source_side"):
        if not callable(getattr(solver_class, required, None)):
            raise FlowError(f"solver class {solver_class!r} lacks a callable {required}()")
    _SOLVERS[name] = solver_class


def unregister_solver(name: str) -> None:
    """Remove a registered solver (built-ins included — use with care)."""
    if name not in _SOLVERS:
        raise FlowError(f"unknown flow solver {name!r}")
    del _SOLVERS[name]
