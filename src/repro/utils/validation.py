"""Argument-validation helpers shared across the library.

Every public algorithm validates its parameters eagerly and raises
:class:`repro.exceptions.AlgorithmError` with an actionable message, so that
misuse fails at the call site rather than deep inside a peeling loop or a
max-flow computation.
"""

from __future__ import annotations

import math
from typing import Any

from repro.exceptions import AlgorithmError


def require(condition: bool, message: str) -> None:
    """Raise :class:`AlgorithmError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise AlgorithmError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise AlgorithmError(f"{name} must be a number, got {type(value).__name__}")
    if not 0 < value < math.inf:
        raise AlgorithmError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def require_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgorithmError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise AlgorithmError(f"{name} must be >= 1, got {value}")
    return value


def require_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer greater than or equal to zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgorithmError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise AlgorithmError(f"{name} must be >= 0, got {value}")
    return value


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise AlgorithmError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise AlgorithmError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)
