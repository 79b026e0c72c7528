"""Candidate-ratio machinery for the exact DDS algorithms.

The DDS optimum ``(S*, T*)`` has ``|S*|/|T*| = p/q`` for some integers
``1 <= p, q <= n``.  The baseline exact algorithm examines every distinct
candidate ratio; the divide-and-conquer algorithm recursively subdivides the
ratio interval ``[1/n, n]`` and needs to count (and, near the leaves,
enumerate) the candidate ratios falling inside an interval.

A ratio is a reduced integer pair ``(p, q)``.  The reduced fractions whose
numerator and denominator are both at most ``n`` are the Farey sequence of
order ``n`` on ``(0, 1]`` together with the reciprocals of its terms, and they
are walked in ascending order the way the Farey sequence is (Hardy & Wright,
*An Introduction to the Theory of Numbers*, ch. III): two consecutive terms
``a/b < c/d`` satisfy ``bc - ad = 1``, and the term after ``c/d`` is
``(kc - a)/(kd - b)`` for the largest ``k`` that keeps both parts at most
``n``.  A search at ``(p, q)`` runs at ``p / q``: Python rounds the quotient of
two integers correctly, so the probe has the bits of the exact ratio's
nearest float, as a ``fractions.Fraction`` converted to float would.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.utils.validation import require, require_positive, require_positive_int

#: Absolute slack of the membership test: the pair ``(i, j)`` lies in
#: ``[low, high]`` when ``ceil(low*j - RATIO_SLACK) <= i <= floor(high*j +
#: RATIO_SLACK)``.  It keeps a ratio that float rounding of an endpoint (a
#: product, a square root, an ``exp``) left a hair outside the interval.  In
#: ratio units it is ``RATIO_SLACK / j``, at most ``RATIO_SLACK`` relative to
#: ``i/j`` because ``i >= 1``.
RATIO_SLACK = 1e-12

#: Relative widening of ``[low, high]`` inside which the walk looks for
#: members.  With ``u = 2**-53`` the unit roundoff, a member of the lower test
#: (``(low*j - RATIO_SLACK)(1 - u) <= i`` after the two roundings, and
#: ``RATIO_SLACK <= RATIO_SLACK * i``) has ``i/j >= low (1 - RATIO_SLACK - 3u)``;
#: one of the upper test has ``i/j <= high (1 + RATIO_SLACK + 4u)``.  Twice the
#: slack covers both with room for the rounding of ``low * (1 - margin)``,
#: ``high * (1 + margin)`` and ``p / q`` themselves.
WALK_MARGIN = 2 * RATIO_SLACK


def _validate_interval(low: float, high: float, n: int) -> None:
    require_positive(high, "high")
    require(low > 0, "low must be positive")
    require(low <= high, "low must not exceed high")
    require_positive_int(n, "n")


def _farey_bracket(x: float, n: int) -> tuple[int, int, int, int]:
    """Neighbours ``a/b < x <= c/d`` among the fractions with both parts at most ``n``.

    A Stern–Brocot descent towards the exact value of ``x`` (integers only,
    from ``x.as_integer_ratio()``) that takes each run of steps in one
    direction as a single jump, so it costs one step per partial quotient:
    ``O(log n)`` before the mediant of the bracket outgrows ``n``, at which
    point no fraction of the sequence lies strictly between its ends.
    ``c/d`` is ``1/0`` when ``x > n``.
    """
    num, den = x.as_integer_ratio()
    a, b, c, d = 0, 1, 1, 0
    while True:
        # Raise a/b: the largest k with (a + k*c) / (b + k*d) < x.
        gap = c * den - num * d
        k = (num * b - a * den - 1) // gap if gap else n
        k = min(k, (n - a) // c)
        if d:
            k = min(k, (n - b) // d)
        a, b = a + k * c, b + k * d
        if a + c > n or b + d > n:
            return a, b, c, d
        # Lower c/d: the largest k with x <= (c + k*a) / (d + k*b).
        k = (c * den - num * d) // (num * b - a * den)
        k = min(k, (n - d) // b)
        if a:
            k = min(k, (n - c) // a)
        c, d = c + k * a, d + k * b
        if a + c > n or b + d > n:
            return a, b, c, d


def all_candidate_ratios(n: int) -> list[tuple[int, int]]:
    """All distinct ratios ``p/q`` with ``1 <= p, q <= n``, ascending, as reduced pairs.

    The count is ``O(n^2)`` (asymptotically ``(6/pi^2) n^2`` after reduction),
    which is why the baseline exact algorithm does not scale and the paper's
    divide-and-conquer strategy matters.
    """
    require_positive_int(n, "n")
    ratios = []
    a, b, c, d = 0, 1, 1, n
    while d:
        ratios.append((c, d))
        k = min((n + b) // d, (n + a) // c)
        a, b, c, d = c, d, k * c - a, k * d - b
    return ratios


def iter_candidate_ratios(low: float, high: float, n: int) -> Iterator[tuple[int, int]]:
    """Distinct candidate ratios inside ``[low, high]``, ascending, as reduced pairs.

    A reduced ``(p, q)`` with ``1 <= p, q <= n`` is yielded when
    ``max(ceil(low*q - RATIO_SLACK), 1) <= p <= min(floor(high*q +
    RATIO_SLACK), n)``.  In exact arithmetic that test is the loosest of the
    tests of ``(p, q)``'s multiples ``(kp, kq)``, whose slack is ``RATIO_SLACK /
    (kq)`` in ratio units, and for ``n <= 8192`` half an ulp of ``kp`` is too
    small for rounding to reverse that, so the ratios are exactly those of the
    pairs ``(i, j)`` that pass it.  The walk starts at the Farey neighbours of
    the widened left end and stops past the widened right end
    (:data:`WALK_MARGIN`); it is lazy, so a caller that stops early pays only
    for the ratios it read.
    """
    _validate_interval(low, high, n)
    right = high * (1.0 + WALK_MARGIN)
    a, b, c, d = _farey_bracket(low * (1.0 - WALK_MARGIN), n)
    while d and c / d <= right:
        if low * d - RATIO_SLACK <= c <= high * d + RATIO_SLACK:
            yield c, d
        k = min((n + b) // d, (n + a) // c)
        a, b, c, d = c, d, k * c - a, k * d - b


def count_candidate_pairs(low: float, high: float, n: int, limit: int) -> int:
    """Number of pairs ``(i, j)`` with ``low <= i/j <= high`` and ``1 <= i, j <= n``.

    A pair is counted when it passes the test :func:`iter_candidate_ratios`
    applies to reduced pairs.  Counting pairs (rather than distinct reduced
    fractions) is an upper bound on the number of distinct ratios, which is
    all the divide-and-conquer recursion needs to decide whether an interval
    is a leaf.  The count stops as soon as it passes ``limit``: the result is
    exact when it is at most ``limit`` and only known to exceed ``limit``
    otherwise.  Denominators are visited from the largest that can hold a
    pair down, where each contributes the most pairs.
    """
    _validate_interval(low, high, n)
    # Above (n + 1) / low every i of the test exceeds n; below (1 - margin) /
    # high every i is below 1 (high*j + RATIO_SLACK rounds below 1).
    top = int(min((n + 1) / low, n - 1)) + 1
    bottom = max(int(min((1.0 - WALK_MARGIN) / high, n + 1)), 1)
    ceil, floor = math.ceil, math.floor
    total = 0
    for j in range(top, bottom - 1, -1):
        i_low = ceil(low * j - RATIO_SLACK)
        i_high = floor(high * j + RATIO_SLACK)
        if i_low < 1:
            i_low = 1
        if i_high > n:
            i_high = n
        if i_high >= i_low:
            total += i_high - i_low + 1
            if total > limit:
                return total
    return total


def geometric_ratio_grid(n: int, epsilon: float) -> list[float]:
    """Geometric grid covering ``[1/n, n]`` with multiplicative step ``1 + epsilon``.

    Every possible optimal ratio ``a* in [1/n, n]`` is within a multiplicative
    factor ``(1 + epsilon)`` of some grid point, which is exactly what the
    peeling approximation needs for its ``2 * sqrt(1 + epsilon)`` guarantee.
    The grid always contains 1.0 and both endpoints.
    """
    require_positive_int(n, "n")
    require_positive(epsilon, "epsilon")
    low = 1.0 / n
    high = float(n)
    grid = [1.0]
    value = 1.0
    while value > low:
        value /= 1.0 + epsilon
        grid.append(max(value, low))
    value = 1.0
    while value < high:
        value *= 1.0 + epsilon
        grid.append(min(value, high))
    return sorted(set(grid))
