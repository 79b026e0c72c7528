"""Max-flow / min-cut substrate — the ``FlowEngine`` subsystem.

The DDS exact algorithms reduce the density decision problem to a minimum
``s``–``t`` cut.  This subpackage provides the flow machinery from scratch:

* :class:`FlowNetwork` — a CSR-backed residual network (``array('d')``
  capacities, ``array('q')`` targets and per-node arc slices) with float
  capacities, in-place capacity retuning (:meth:`FlowNetwork.set_capacity` +
  :meth:`FlowNetwork.reset_flow`) so a built network can be re-solved for
  many parameter guesses without rebuilding,
* :class:`DinicSolver` / :func:`dinic_max_flow` — the primary solver
  (Dinic's blocking-flow algorithm, ``O(V^2 E)`` worst case, much faster on
  the unit-capacity-heavy networks produced by the density reduction),
* :class:`PushRelabelSolver` / :func:`push_relabel_max_flow` — FIFO
  push–relabel with the gap heuristic, an alternative solver with a better
  worst-case bound,
* :class:`EdmondsKarpSolver` / :func:`edmonds_karp_max_flow` — a simple
  reference solver used to cross-check the other two in the test suite,
* ``NumpyPushRelabelSolver`` (:mod:`repro.flow.numpy_backend`) — the
  vectorised bulk-synchronous push–relabel backend running on zero-copy
  numpy views of the CSR buffers (``None`` here, and unlisted in the
  registry, when numpy is not installed),
* :mod:`repro.flow.registry` — the name → solver-class registry behind the
  ``flow_solver=`` parameter of the exact APIs and the ``--flow-solver``
  CLI flag,
* :class:`FlowEngine` — per-run solver selection + instrumentation
  (``flow_calls``, ``networks_built``, ``arcs_pushed``).

Adding a solver
---------------
Implement the solver protocol — ``Solver(network, source, sink)``,
``max_flow() -> float``, ``min_cut_source_side() -> list[int]``, and an
``arcs_pushed`` counter attribute; ``max_flow`` continues from the flow the
network already holds and returns the *total* value — then register it
under a name::

    from repro.flow import register_solver

    class MySolver:
        def __init__(self, network, source, sink): ...
        def max_flow(self) -> float: ...
        def min_cut_source_side(self) -> list[int]: ...
        arcs_pushed = 0

    register_solver("my-solver", MySolver)

Every exact API (``flow_exact``, ``dc_exact``, ``core_exact``) and the CLI
then accept the new name: ``dc_exact(graph, flow_solver="my-solver")`` or
``dds-repro find --dataset foodweb-tiny --flow-solver my-solver``.  The
cross-solver property suite (``tests/test_flow_property.py``) is the
cheapest way to validate a new backend against the built-ins.
"""

from repro.flow.dinic import DinicSolver, dinic_max_flow
from repro.flow.edmonds_karp import EdmondsKarpSolver, edmonds_karp_max_flow
from repro.flow.engine import FlowEngine
from repro.flow.network import INFINITY, FlowNetwork
from repro.flow.push_relabel import PushRelabelSolver, push_relabel_max_flow
from repro.flow.registry import (
    AUTO_SOLVER,
    DEFAULT_SOLVER,
    VECTOR_SOLVER,
    NumpyPushRelabelSolver,
    available_flow_solvers,
    flow_solver_choices,
    get_solver_class,
    has_vector_backend,
    register_solver,
    resolve_auto_solver,
    unregister_solver,
)

__all__ = [
    "FlowNetwork",
    "INFINITY",
    "FlowEngine",
    "DinicSolver",
    "dinic_max_flow",
    "EdmondsKarpSolver",
    "edmonds_karp_max_flow",
    "PushRelabelSolver",
    "push_relabel_max_flow",
    "NumpyPushRelabelSolver",
    "AUTO_SOLVER",
    "DEFAULT_SOLVER",
    "VECTOR_SOLVER",
    "available_flow_solvers",
    "flow_solver_choices",
    "get_solver_class",
    "has_vector_backend",
    "register_solver",
    "resolve_auto_solver",
    "unregister_solver",
]
