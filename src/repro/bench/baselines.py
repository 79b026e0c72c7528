"""Recorded performance baselines shared by the test suite and the CI gates.

``SEED_FLOW_CALLS`` holds the exact min-cut counts of the divide-and-conquer
drivers (default session, default tolerances) for the small fixture
datasets.  Every search is a Dinkelbach iteration that probes its certified
lower bound, and every interior probe starts at the best surrogate among
the pairs the run has already extracted.  Unseeded probes, which started
at ``lower = 0``, needed 20 / 11 / 61 / 16, and the seed implementation,
which bisected every bracket to tolerance, 92 / 87 / 272 / 123; a slide
back to either therefore fails the gates.  Both the pytest regression tests
(``tests/test_core_retune.py``) and the E6 smoke gate
(``benchmarks/bench_e6_flowcalls.py --smoke``) compare against this single
copy, so a legitimate algorithm change that shifts the counts is re-recorded
in exactly one place.
"""

from __future__ import annotations

#: ``(dataset, method) -> flow_calls`` recorded with seeded interior probes.
SEED_FLOW_CALLS: dict[tuple[str, str], int] = {
    ("foodweb-tiny", "dc-exact"): 8,
    ("foodweb-tiny", "core-exact"): 6,
    ("social-tiny", "dc-exact"): 26,
    ("social-tiny", "core-exact"): 13,
}
