"""Named registry of max-flow solver implementations.

Flow configs (``FlowConfig.solver``), the session's ``flow_solver=``
override and the CLI's ``--flow-solver`` flag name a max-flow solver instead
of hard-coding a class; this module is the single source of truth mapping
those names to classes.

A solver class must satisfy the protocol ``dinic`` implements:

* ``Solver(network, source, sink)`` binds to one
  :class:`~repro.flow.network.FlowNetwork`;
* ``max_flow() -> float`` runs to completion, continuing from the feasible
  flow the network's residual capacities hold (zero on a fresh network)
  and returning the *total* max-flow value (``dinic`` raises
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

The built-in registry holds ``dinic`` alone.  Besides concrete solver
names, configs and the CLI accept :data:`AUTO_SOLVER` (``"auto"``), which
stored entries, the wire and older callers pass; it names no registry entry.
:func:`resolve_solver_choice` turns it into the default solver, ``dinic``,
wherever a name enters a config or a cache key, so one solver has one name.
"""

from __future__ import annotations

from typing import Type

from repro.exceptions import FlowError
from repro.flow.dinic import DinicSolver

#: The default solver used when no name is given.
DEFAULT_SOLVER = "dinic"

#: Name accepted by configs/CLI beside the registered solvers: the default solver.
AUTO_SOLVER = "auto"

_SOLVERS: dict[str, Type] = {DEFAULT_SOLVER: DinicSolver}


def available_flow_solvers() -> list[str]:
    """Registered solver names, sorted."""
    return sorted(_SOLVERS)


def flow_solver_choices() -> list[str]:
    """Every name a ``flow_solver=`` knob accepts: registered solvers + ``"auto"``."""
    return sorted([*_SOLVERS, AUTO_SOLVER])


def resolve_solver_choice(name: str) -> str:
    """The registry name a ``flow_solver=`` value runs: ``"auto"`` is ``dinic``.

    Raises :class:`~repro.exceptions.FlowError` for unknown names, like
    :func:`get_solver_class`, but additionally accepts ``"auto"``, which
    names no registry entry.
    """
    if name == AUTO_SOLVER:
        return DEFAULT_SOLVER
    get_solver_class(name)
    return name


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
    ``min_cut_source_side`` callables.  The name :data:`AUTO_SOLVER` is
    reserved: a class registered under it could never run.
    """
    if not name:
        raise FlowError("solver name must be non-empty")
    if name == AUTO_SOLVER:
        raise FlowError(f"solver name {AUTO_SOLVER!r} is reserved for the default solver")
    for required in ("max_flow", "min_cut_source_side"):
        if not callable(getattr(solver_class, required, None)):
            raise FlowError(f"solver class {solver_class!r} lacks a callable {required}()")
    _SOLVERS[name] = solver_class


def unregister_solver(name: str) -> None:
    """Remove a registered solver (built-ins included — use with care)."""
    if name not in _SOLVERS:
        raise FlowError(f"unknown flow solver {name!r}")
    del _SOLVERS[name]
