"""Unit and property tests for candidate-ratio machinery.

The Farey walk and the limited pair count are checked against the
``Fraction`` enumeration they replaced, kept in ``tests/ratio_oracle.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import ratio_oracle as oracle
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import ratio
from repro.core.ratio import (
    all_candidate_ratios,
    count_candidate_pairs,
    geometric_ratio_grid,
    iter_candidate_ratios,
)
from repro.exceptions import AlgorithmError


def _reduced(i: int, j: int) -> tuple[int, int]:
    divisor = math.gcd(i, j)
    return i // divisor, j // divisor


def _strictly_ascending(pairs: list[tuple[int, int]]) -> bool:
    return all(a * d < c * b for (a, b), (c, d) in zip(pairs, pairs[1:]))


class TestAllCandidateRatios:
    def test_small_case(self):
        ratios = all_candidate_ratios(2)
        assert ratios == [(1, 2), (1, 1), (2, 1)]

    def test_count_matches_distinct_pairs(self):
        n = 6
        expected = {_reduced(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        assert set(all_candidate_ratios(n)) == expected

    def test_sorted(self):
        ratios = all_candidate_ratios(7)
        assert _strictly_ascending(ratios)

    def test_rejects_non_positive(self):
        with pytest.raises(AlgorithmError):
            all_candidate_ratios(0)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_the_fraction_oracle(self, n):
        assert all_candidate_ratios(n) == oracle.as_pairs(oracle.all_candidate_ratios(n))


class TestIntervalCounting:
    def test_full_interval_counts_all_pairs(self):
        n = 5
        assert count_candidate_pairs(1.0 / n, float(n), n, n * n) == n * n

    def test_point_interval(self):
        # The single ratio 1 is realised by the pairs (1,1)..(4,4).
        assert count_candidate_pairs(1.0, 1.0, 4, 16) == 4

    def test_count_stops_past_the_limit(self):
        n = 50
        assert count_candidate_pairs(1.0 / n, float(n), n, n * n) == n * n
        assert 10 < count_candidate_pairs(1.0 / n, float(n), n, 10) < n * n

    def test_enumeration_matches_count_upper_bound(self):
        n = 8
        low, high = 0.4, 1.7
        distinct = list(iter_candidate_ratios(low, high, n))
        pair_count = count_candidate_pairs(low, high, n, n * n)
        assert len(distinct) <= pair_count
        for p, q in distinct:
            assert low - 1e-9 <= p / q <= high + 1e-9

    def test_enumeration_complete(self):
        n = 6
        low, high = 0.5, 2.0
        expected = {
            _reduced(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if low <= i / j <= high
        }
        assert set(iter_candidate_ratios(low, high, n)) == expected

    def test_invalid_interval_rejected(self):
        with pytest.raises(AlgorithmError):
            count_candidate_pairs(2.0, 1.0, 5, 25)
        with pytest.raises(AlgorithmError):
            list(iter_candidate_ratios(0.0, 1.0, 5))

    def test_empty_interval_walks_nothing(self):
        assert list(iter_candidate_ratios(0.41, 0.42, 4)) == []
        assert count_candidate_pairs(0.41, 0.42, 4, 16) == 0
        assert list(iter_candidate_ratios(9.5, 12.0, 9)) == []

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.05, max_value=12.0),
        st.floats(min_value=0.05, max_value=12.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_enumeration_matches_bruteforce(self, n, a, b):
        low, high = min(a, b), max(a, b)
        expected = {
            _reduced(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if low - 1e-12 <= i / j <= high + 1e-12
        }
        assert set(iter_candidate_ratios(low, high, n)) == expected


#: Pairs an interval drawn by :func:`_intervals` may hold, so the ``Fraction``
#: oracle stays cheap at ``n = 8192``.
_PAIR_BUDGET = 5_000


@st.composite
def _near(draw, x: float, n: int) -> float:
    """``x`` itself, or a float at, beside or within 1e-12 of the ratio of height ``<= n`` nearest it."""
    kind = draw(st.sampled_from(["as-drawn", "ratio", "nextafter", "jitter"]))
    if kind == "as-drawn":
        return x
    nearest = Fraction(x).limit_denominator(n)
    value = nearest.numerator / nearest.denominator
    if kind == "nextafter":
        value = math.nextafter(value, draw(st.sampled_from([math.inf, -math.inf])))
    elif kind == "jitter":
        value += draw(st.floats(min_value=-1e-12, max_value=1e-12))
    return max(value, 1e-300)


def _in_range(low: float, high: float) -> st.SearchStrategy[float]:
    """Uniform or log-uniform floats in ``[low, high]``."""
    return st.one_of(
        st.floats(low, high),
        st.floats(math.log(low), math.log(high)).map(lambda x: min(max(math.exp(x), low), high)),
    )


@st.composite
def _intervals(draw) -> tuple[float, float, int]:
    """``(low, high, n)`` with ``n <= 8192`` and endpoints on, beside or near ratios.

    The interval holds about ``_PAIR_BUDGET`` pairs at most: at ratio ``r``
    the pairs lie about ``min(n, n/r)**2 / 2`` per unit of ratio.
    """
    anchor = draw(st.sampled_from(["whole", "bottom", "inside", "unit", "top"]))
    if anchor == "whole":
        n = draw(st.integers(1, 128))
        low, high = draw(_near(1.0 / n, n)), draw(_near(float(n), n))
    elif anchor == "unit":
        # high on or near 1/q, where high * q meets the count's lowest denominator.
        n = draw(st.integers(1, 8192))
        high = draw(_near(1.0 / draw(st.integers(1, n)), n))
        width = draw(st.floats(0.0, 1.0)) * 2.0 * _PAIR_BUDGET / n**2
        low = draw(_near(max(high - width, high / 2), n))
    elif anchor == "top":
        n = draw(st.integers(1, 8192))
        floor = min(max(1.0 / n, n * n / (2.0 * _PAIR_BUDGET)), float(n))
        low, high = draw(_near(draw(_in_range(floor, float(n))), n)), draw(_near(float(n), n))
    else:
        n = draw(st.integers(1, 8192))
        start = 1.0 / n if anchor == "bottom" else draw(_in_range(1.0 / n, float(n)))
        low = draw(_near(start, n))
        per_unit = min(n, n / low) ** 2 / 2.0
        width = draw(st.floats(0.0, 1.0)) * min(_PAIR_BUDGET / per_unit, float(n))
        high = draw(_near(low + width, n))
    return min(low, high), max(low, high), n


class TestFareyWalkAgainstOracle:
    @seed(2201)
    @settings(max_examples=300, deadline=None)
    @given(_intervals())
    def test_walk_yields_the_oracle_ratios_in_order(self, interval):
        low, high, n = interval
        walked = list(iter_candidate_ratios(low, high, n))
        expected = oracle.candidate_ratios_in_interval(low, high, n)
        assert walked == oracle.as_pairs(expected)
        for (p, q), exact in zip(walked, expected):
            assert p / q == float(exact)

    @seed(2202)
    @settings(max_examples=300, deadline=None)
    @given(_intervals())
    def test_limited_count_agrees_where_the_driver_reads_it(self, interval):
        low, high, n = interval
        exact = oracle.count_candidate_ratios_in_interval(low, high, n)
        for limit in {0, 1, 2, 8, 4 * n, max(exact - 1, 0), exact, exact + 1}:
            counted = count_candidate_pairs(low, high, n, limit)
            assert (counted == 0) == (exact == 0), limit
            assert (counted <= limit) == (exact <= limit), limit
            if exact <= limit:
                assert counted == exact, limit

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_whole_range_walks_every_ratio(self, n):
        walked = list(iter_candidate_ratios(1.0 / n, float(n), n))
        assert walked == all_candidate_ratios(n)


class TestFareyBracket:
    """The walk's start: ``a/b < x <= c/d``, neighbours among fractions of height ``<= n``."""

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
    def test_brackets_every_ratio_and_its_float_neighbours(self, n):
        for p, q in all_candidate_ratios(n):
            for point in (p / q, math.nextafter(p / q, 0.0), math.nextafter(p / q, math.inf)):
                a, b, c, d = ratio._farey_bracket(point, n)
                exact = Fraction(point)
                assert Fraction(a, b) < exact, (point, n)
                assert exact <= Fraction(c, d) if d else exact > n, (point, n)
                assert b * c - a * d == 1
                assert a + c > n or b + d > n

    def test_beyond_n_brackets_with_infinity(self):
        assert ratio._farey_bracket(7.5, 7) == (7, 1, 1, 0)
        assert ratio._farey_bracket(1e300, 3) == (3, 1, 1, 0)


class TestGeometricGrid:
    def test_grid_covers_endpoints_and_one(self):
        grid = geometric_ratio_grid(10, epsilon=0.5)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(10.0)
        assert 1.0 in grid

    def test_grid_step_bounded(self):
        epsilon = 0.3
        grid = geometric_ratio_grid(50, epsilon=epsilon)
        for previous, current in zip(grid, grid[1:]):
            assert current / previous <= 1.0 + epsilon + 1e-9

    def test_every_ratio_close_to_grid_point(self):
        n, epsilon = 20, 0.4
        grid = geometric_ratio_grid(n, epsilon)
        for p, q in all_candidate_ratios(n):
            value = p / q
            assert any(
                value / (1 + epsilon) <= point <= value * (1 + epsilon) for point in grid
            )

    def test_rejects_bad_epsilon(self):
        with pytest.raises(AlgorithmError):
            geometric_ratio_grid(10, epsilon=0.0)
