"""Argument-validation helpers shared across the library."""

from __future__ import annotations

import math
from typing import Union

Number = Union[int, float]


def require_positive(value: Number, name: str) -> float:
    """Return ``value`` as a float after checking that it is > 0."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_positive_int(value: int, name: str) -> int:
    """Return ``value`` as an int after checking that it is a positive integer."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_finite(value: Number, name: str) -> float:
    """Return ``value`` as a float after checking that it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_finite_non_negative(value: Number, name: str) -> float:
    """Return ``value`` as a float after checking that it is finite and >= 0."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def require_in_range(value: Number, name: str, low: Number, high: Number,
                     inclusive: bool = True) -> float:
    """Return ``value`` after checking ``low <= value <= high`` (or strict)."""
    value = float(value)
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")
    return value
