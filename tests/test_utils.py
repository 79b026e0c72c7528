"""Tests for the shared utility helpers."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import AlgorithmError
from repro.utils.rng import make_rng
from repro.utils.timer import time_call
from repro.utils.validation import (
    require,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability,
)


class TestTimer:
    def test_time_call(self):
        value, seconds = time_call(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0.0


class TestRng:
    def test_seed_reproducibility(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_existing_rng_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_rng(self):
        assert isinstance(make_rng(None), random.Random)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(AlgorithmError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        assert require_positive(2.5, "x") == 2.5
        with pytest.raises(AlgorithmError):
            require_positive(0, "x")
        with pytest.raises(AlgorithmError):
            require_positive("nope", "x")
        for not_finite in (float("inf"), float("nan"), float("-inf")):
            with pytest.raises(AlgorithmError, match="must be finite and > 0"):
                require_positive(not_finite, "x")

    def test_require_positive_int(self):
        assert require_positive_int(3, "x") == 3
        with pytest.raises(AlgorithmError):
            require_positive_int(0, "x")
        with pytest.raises(AlgorithmError):
            require_positive_int(2.5, "x")
        with pytest.raises(AlgorithmError):
            require_positive_int(True, "x")

    def test_require_non_negative_int(self):
        assert require_non_negative_int(0, "x") == 0
        with pytest.raises(AlgorithmError):
            require_non_negative_int(-1, "x")

    def test_require_probability(self):
        assert require_probability(0.5, "p") == 0.5
        assert require_probability(0, "p") == 0.0
        with pytest.raises(AlgorithmError):
            require_probability(1.5, "p")
