"""Incremental DDS under graph updates: refresh cores, certify stale answers.

The subsystem behind
:meth:`DDSSession.apply_updates <repro.session.DDSSession.apply_updates>`:

* :mod:`repro.incremental.delta` — normalized :class:`EdgeDelta` batches
  and the per-update :class:`UpdateReport`;
* :mod:`repro.incremental.maintain` — [x, y]-core decompositions brought
  along by a bounded local re-peel;
* :mod:`repro.incremental.certify` — density-bound and approximation
  certificates deciding which cached results are provably still optimal.

Decision networks need no maintenance: each lives only inside the
fixed-ratio search that builds it.
"""

from repro.incremental.certify import DeltaCertificate, certify_result
from repro.incremental.delta import EdgeDelta, UpdateReport
from repro.incremental.maintain import refresh_cores

__all__ = [
    "DeltaCertificate",
    "EdgeDelta",
    "UpdateReport",
    "certify_result",
    "refresh_cores",
]
