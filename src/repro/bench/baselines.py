"""Recorded performance baselines shared by the test suite and the CI gates.

``SEED_FLOW_CALLS`` holds the exact min-cut counts of the divide-and-conquer
drivers (default session, default tolerances) for the small fixture
datasets.  Every search is a Dinkelbach iteration that probes its certified
lower bound, and every interior probe starts at the best surrogate among
the pairs the run has pooled: the initial incumbent, the graph's in- and
out-degree hub pairs, and the pairs earlier searches extracted.  Without
the hub pairs the probes needed 8 / 6 / 26 / 13, unseeded probes, which
started at ``lower = 0``, 20 / 11 / 61 / 16, and the seed implementation,
which bisected every bracket to tolerance, 92 / 87 / 272 / 123; a slide
back to any of them therefore fails the gates on social-tiny.  Both the
pytest regression tests (``tests/test_core_retune.py``) and the E6 smoke
gate (``benchmarks/bench_e6_flowcalls.py --smoke``) compare against this
single copy, so a legitimate algorithm change that shifts the counts is
re-recorded in exactly one place.
"""

from __future__ import annotations

#: ``(dataset, method) -> flow_calls`` recorded with hub-pair-seeded interior probes.
SEED_FLOW_CALLS: dict[tuple[str, str], int] = {
    ("foodweb-tiny", "dc-exact"): 8,
    ("foodweb-tiny", "core-exact"): 6,
    ("social-tiny", "dc-exact"): 10,
    ("social-tiny", "core-exact"): 9,
}
