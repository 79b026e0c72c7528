"""``Fraction`` candidate-ratio enumeration: the test suite's reference.

These are the candidate-ratio helpers as :mod:`repro.core.ratio` wrote them
before it moved to integer pairs: every pair ``(i, j)`` with
``1 <= i, j <= n`` is tested against the interval with the same float
expressions, and the distinct ratios are collected as reduced
:class:`~fractions.Fraction` values and sorted.  The production Farey walk
must yield exactly these ratios, as reduced ``(numerator, denominator)``
pairs in the same order, and its limited pair count must agree with
:func:`count_candidate_ratios_in_interval` wherever the divide-and-conquer
driver reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: The membership slack of the reference, spelled as it was.
SLACK = 1e-12


def all_candidate_ratios(n: int) -> list[Fraction]:
    """All distinct ratios ``i/j`` with ``1 <= i, j <= n``, ascending."""
    return sorted({Fraction(i, j) for i in range(1, n + 1) for j in range(1, n + 1)})


def count_candidate_ratios_in_interval(low: float, high: float, n: int) -> int:
    """Number of pairs ``(i, j)`` with ``low <= i/j <= high`` and ``1 <= i, j <= n``."""
    total = 0
    for j in range(1, n + 1):
        i_low = math.ceil(low * j - SLACK)
        i_high = math.floor(high * j + SLACK)
        i_low = max(i_low, 1)
        i_high = min(i_high, n)
        if i_high >= i_low:
            total += i_high - i_low + 1
    return total


def candidate_ratios_in_interval(low: float, high: float, n: int) -> list[Fraction]:
    """Distinct candidate ratios ``i/j`` inside ``[low, high]``, ascending."""
    ratios: set[Fraction] = set()
    for j in range(1, n + 1):
        i_low = max(math.ceil(low * j - SLACK), 1)
        i_high = min(math.floor(high * j + SLACK), n)
        for i in range(i_low, i_high + 1):
            ratios.add(Fraction(i, j))
    return sorted(ratios)


def as_pairs(ratios: list[Fraction]) -> list[tuple[int, int]]:
    """``ratios`` as reduced ``(numerator, denominator)`` pairs."""
    return [(ratio.numerator, ratio.denominator) for ratio in ratios]
