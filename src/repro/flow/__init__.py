"""Max-flow / min-cut substrate — the ``FlowEngine`` subsystem.

The DDS exact algorithms reduce the density decision problem to a minimum
``s``–``t`` cut.  This subpackage provides the flow machinery from scratch:

* :class:`FlowNetwork` — a residual network: its own numpy ``float64``
  base and residual capacity columns over a read-only
  :class:`FlowTopology` (``int64`` arc tails and
  targets, paired with their residual twins, and a CSR index), built as
  ``FlowNetwork(topology, base_capacities)``.  Networks that differ only in
  capacities share one topology, and a built network is retuned in place
  (write its base capacities, then :meth:`FlowNetwork.reset_flow`) and
  re-solved for many parameter guesses without rebuilding,
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
from repro.flow.network import INFINITY, FlowNetwork, FlowTopology

__all__ = [
    "FlowNetwork",
    "FlowTopology",
    "INFINITY",
    "FlowEngine",
    "DinicSolver",
    "dinic_max_flow",
]
