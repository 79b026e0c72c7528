"""Small shared utilities: timing, validation and deterministic RNG helpers."""

from repro.utils.rng import make_rng
from repro.utils.validation import (
    require,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability,
)

__all__ = [
    "make_rng",
    "require",
    "require_positive",
    "require_positive_int",
    "require_non_negative_int",
    "require_probability",
]
