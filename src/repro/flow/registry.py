"""Named registry of max-flow solver implementations.

Flow configs (``FlowConfig.solver``), the session's ``flow_solver=``
override and the CLI's ``--flow-solver`` flag name a max-flow solver instead
of hard-coding a class; this module is the single source of truth mapping
those names to classes.

A solver class must satisfy the protocol shared by the built-ins:

* ``Solver(network, source, sink)`` binds to one
  :class:`~repro.flow.network.FlowNetwork`;
* ``max_flow() -> float`` runs to completion, continuing from the feasible
  flow the network's residual capacities hold (zero on a fresh network)
  and returning the *total* max-flow value (the built-ins raise
  :class:`~repro.exceptions.FlowError` instead, with the network untouched,
  when an infinite-capacity path makes the flow unbounded);
* ``min_cut_source_side() -> list[int]`` returns the source side of a
  minimum cut (valid after ``max_flow``);
* an ``arcs_pushed`` integer attribute counting per-arc residual updates
  (used by the :class:`~repro.flow.engine.FlowEngine` instrumentation).

Third-party backends (e.g. a Rust-accelerated solver) plug in via
:func:`register_solver` without touching any algorithm code::

    from repro.flow.registry import register_solver
    register_solver("my-solver", MySolverClass)
    DDSSession(graph).densest_subgraph("dc-exact", flow_solver="my-solver")

The built-in registry holds ``dinic`` and the vectorised
``numpy-push-relabel`` backend (:mod:`repro.flow.numpy_backend`).  The
latter is **import-guarded**: when numpy is not importable the registry
simply does not list it and everything runs on ``dinic``.

Besides concrete solver names, configs and the CLI accept the *policy* name
:data:`AUTO_SOLVER` (``"auto"``): the engine then picks a backend per
network — the vectorised backend for networks with at least
:data:`AUTO_ARC_THRESHOLD` stored arcs (where bulk array ops amortise their
per-call overhead), ``dinic`` below that, and ``dinic`` everywhere when
numpy is missing.  The threshold is the measured crossover.  Every decision
network of perfbench's ``exact`` workload (seed 501) and of dc-exact and
core-exact on the registry's medium tier was captured and solved once per
backend on a fresh copy (CPU time, 2-CPU VM).  Each cell names the backend
with the lower summed time over the row's networks, by how much, and in
parentheses how many networks the row holds.  "Before" is ``dinic``
restarting every path search at the source on networks at zero flow;
"after" is the resuming ``dinic`` on networks carrying the start flow of
:meth:`~repro.core.flow_network.DecisionNetwork.route_start_flow`::

    stored arcs       before: exact      before: medium     after: exact   after: medium
    2,048-4,095       dinic 2.0x (168)   dinic 1.5x (80)    dinic 3.2x     dinic 2.3x
    4,096-8,191       dinic 1.3x (109)   dinic 1.2x (111)   dinic 2.3x     dinic 1.9x
    8,192-16,383      numpy 1.2x (12)    numpy 1.3x (26)    dinic 1.9x     dinic 1.1x
    16,384-32,767     none               numpy 1.5x (130)   none           dinic 1.05x

Below 8,192 arcs ``dinic`` leads either way.  Above it the two are within
~12% of each other on the medium tier, and numpy still leads on
citation-large's larger networks: dc-exact there takes 3.0 s of CPU on
numpy against 4.4 s on ``dinic`` (best of 3).

When a whole *family* of closely related networks is solved together, the
policy judges the family's **aggregate** arc count instead
(:func:`resolve_auto_solver_batch`): many sub-threshold networks stacked
block-diagonally fill the vector width that none of them fills alone
(:func:`batch_eligible`, :class:`~repro.flow.batch.BatchedFlowNetwork`).
``"auto"`` is deliberately not a registry entry: it names a selection rule,
not a solver class (see :func:`resolve_auto_solver` and the
``backend_selections`` counter in :mod:`repro.flow.engine`).
"""

from __future__ import annotations

from typing import Type

from repro.exceptions import FlowError
from repro.flow.dinic import DinicSolver

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
#: per-arc Python loop beats numpy's per-call overhead at that scale.  It
#: is the crossover of the per-size table in the module docstring: ``dinic``
#: leads below 8,192 arcs, numpy on citation-large's largest networks.  The
#: E6 smoke's vectorised-backend gate checks that er-medium dc-exact, whose
#: largest networks sit far above the threshold, runs faster on the numpy
#: backend.
AUTO_ARC_THRESHOLD = 8192

_SOLVERS: dict[str, Type] = {DEFAULT_SOLVER: DinicSolver}
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
    ``min_cut_source_side`` callables.  The policy name
    :data:`AUTO_SOLVER` is reserved: a class registered under it could
    never run.
    """
    if not name:
        raise FlowError("solver name must be non-empty")
    if name == AUTO_SOLVER:
        raise FlowError(f"solver name {AUTO_SOLVER!r} is reserved for the selection policy")
    for required in ("max_flow", "min_cut_source_side"):
        if not callable(getattr(solver_class, required, None)):
            raise FlowError(f"solver class {solver_class!r} lacks a callable {required}()")
    _SOLVERS[name] = solver_class


def unregister_solver(name: str) -> None:
    """Remove a registered solver (built-ins included — use with care)."""
    if name not in _SOLVERS:
        raise FlowError(f"unknown flow solver {name!r}")
    del _SOLVERS[name]
