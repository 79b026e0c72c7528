"""Wall-clock timing helper used by the benchmark harness and the batch queries."""

from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")


def time_call(func: Callable[[], T]) -> tuple[T, float]:
    """Call ``func`` once and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start
