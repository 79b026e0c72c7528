"""Recorded performance baselines shared by the test suite and the CI gates.

``SEED_FLOW_CALLS`` holds the exact min-cut counts of the Dinkelbach
fixed-ratio search (every guess probes the certified lower bound; default
session, default tolerances) for the small fixture datasets.  The seed
implementation, which bisected every bracket to tolerance, needed 92 / 87 /
272 / 123; a slide back towards bisection therefore fails the gates.  Both
the pytest regression tests
(``tests/test_core_retune.py``) and the E6 smoke gate
(``benchmarks/bench_e6_flowcalls.py --smoke``) compare against this single
copy, so a legitimate algorithm change that shifts the counts is re-recorded
in exactly one place.
"""

from __future__ import annotations

#: ``(dataset, method) -> flow_calls`` recorded from the Dinkelbach search.
SEED_FLOW_CALLS: dict[tuple[str, str], int] = {
    ("foodweb-tiny", "dc-exact"): 20,
    ("foodweb-tiny", "core-exact"): 11,
    ("social-tiny", "dc-exact"): 61,
    ("social-tiny", "core-exact"): 16,
}
