"""Unit tests for the timekeeping layer: Deadline and AnytimeResult.

Everything here drives an *injected* clock — no sleeps.  The monotonic
pin matters: retry/backoff and budget enforcement must be immune to
wall-clock jumps (NTP steps, suspend/resume), so ``Deadline`` and the
client's circuit breaker read time only through their injectable
monotonic clocks, never ``time.time()``.
"""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigError, DeadlineExceeded
from repro.runtime import AnytimeResult, Deadline


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_validation(self):
        for bad in (0, -1, float("inf"), float("nan"), "soon", None):
            with pytest.raises(ConfigError):
                Deadline(bad)

    def test_bool_budget_is_rejected(self):
        # bool is an int subclass; True must not mean "1 ms".
        with pytest.raises(ConfigError):
            Deadline(True)

    def test_elapsed_and_remaining_track_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(250.0, clock=clock)
        assert deadline.elapsed_ms() == 0.0
        assert deadline.remaining_ms() == 250.0
        assert not deadline.expired
        clock.advance(0.1)
        assert deadline.elapsed_ms() == pytest.approx(100.0)
        assert deadline.remaining_ms() == pytest.approx(150.0)
        clock.advance(0.2)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0  # clamped, never negative

    def test_check_raises_only_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline(50.0, clock=clock)
        deadline.check("early")  # no-op
        clock.advance(0.05)
        with pytest.raises(DeadlineExceeded, match="at dinic BFS round"):
            deadline.check("dinic BFS round")

    def test_wall_clock_jumps_cannot_extend_or_skip_a_budget(self):
        """The monotonic pin (satellite: no ``time.time()`` arithmetic).

        A Deadline's view of time is exactly its injected clock.  Simulate
        a wall-clock step by *not* moving the injected clock: the budget
        must be unaffected, proving expiry depends on nothing but the
        monotonic source.  Conversely a monotonic advance expires it even
        if the wall clock were stepped backwards.
        """
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        # However the wall clock jumps, an unmoved monotonic clock means
        # an untouched budget.
        assert deadline.remaining_ms() == pytest.approx(100.0)
        clock.advance(0.2)
        assert deadline.expired

    def test_deadline_exceeded_carries_partial(self):
        partial = AnytimeResult(density=1.5)
        error = DeadlineExceeded("boom", partial=partial)
        assert error.partial is partial
        assert DeadlineExceeded("bare").partial is None


class TestAnytimeResult:
    def test_defaults_are_the_vacuous_bounds(self):
        partial = AnytimeResult()
        assert partial.density == 0.0
        assert partial.upper_bound == math.inf
        assert partial.gap == math.inf
        assert not partial.found_pair

    def test_gap_and_found_pair(self):
        partial = AnytimeResult(
            s_nodes=["a", "b"], t_nodes=["c"], density=2.0, upper_bound=3.5
        )
        assert partial.gap == pytest.approx(1.5)
        assert partial.found_pair

    def test_to_payload_shape(self):
        payload = AnytimeResult(
            s_nodes=["a"], t_nodes=["b"], density=1.0, upper_bound=2.0, method="dc-exact"
        ).to_payload()
        assert payload == {
            "deadline_exceeded": True,
            "method": "dc-exact",
            "density": 1.0,
            "upper_bound": 2.0,
            "gap": 1.0,
            "s_size": 1,
            "t_size": 1,
            "is_exact": False,
        }

    def test_to_payload_with_infinite_upper_uses_none(self):
        payload = AnytimeResult().to_payload()
        assert payload["upper_bound"] is None
        assert payload["gap"] is None
