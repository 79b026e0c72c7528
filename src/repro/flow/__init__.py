"""Max-flow / min-cut substrate — the ``FlowEngine`` subsystem.

The DDS exact algorithms reduce the density decision problem to a minimum
``s``–``t`` cut.  This subpackage provides the flow machinery from scratch:

* :class:`FlowNetwork` — a CSR-backed residual network (``array('d')``
  capacities, ``array('q')`` targets and per-node arc slices) with float
  capacities, in-place capacity retuning (writes through the zero-copy
  views of :meth:`FlowNetwork.numpy_csr` + :meth:`FlowNetwork.reset_flow`)
  so a built network can be re-solved for many parameter guesses without
  rebuilding; networks that differ only in capacities share one read-only
  :class:`~repro.flow.network.FlowTopology` (:meth:`FlowNetwork.over`),
* :class:`DinicSolver` / :func:`dinic_max_flow` — the one min-cut solver
  (Dinic's blocking-flow algorithm, ``O(V^2 E)`` worst case, much faster on
  the unit-capacity-heavy networks produced by the density reduction),
* :class:`FlowEngine` — the one min-cut path every exact method runs, plus
  instrumentation (``flow_calls``, ``networks_built``, ``arcs_pushed``).

The engine states the solver protocol Dinic implements; the test suite's
Edmonds–Karp oracle (``tests/flow_oracle.py``) implements it too, and its
``flow_oracle`` fixture swaps it in as :attr:`FlowEngine.solver_class` so
every flow-backed method can be cross-checked against it.
"""

from repro.flow.dinic import DinicSolver, dinic_max_flow
from repro.flow.engine import FlowEngine
from repro.flow.network import INFINITY, FlowNetwork

__all__ = [
    "FlowNetwork",
    "INFINITY",
    "FlowEngine",
    "DinicSolver",
    "dinic_max_flow",
]
