"""Angle arithmetic helpers.

Bearings in this project are expressed in degrees.  Linear arrays report
angles in [-90, 90] (broadside convention), circular arrays in [0, 360).
These helpers centralise wrapping, differencing, and circular statistics so
that the rest of the code never has to worry about the 0/360 seam.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

ArrayLike = Union[float, Sequence[float], np.ndarray]


def degrees_to_radians(angle_deg: ArrayLike) -> np.ndarray:
    """Convert degrees to radians (vectorised)."""
    return np.deg2rad(angle_deg)


def radians_to_degrees(angle_rad: ArrayLike) -> np.ndarray:
    """Convert radians to degrees (vectorised)."""
    return np.rad2deg(angle_rad)


def wrap_to_pi(angle_rad: ArrayLike) -> np.ndarray:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    wrapped = np.mod(np.asarray(angle_rad, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # np.mod maps -pi to -pi; fold it to +pi so the interval is half-open.
    return np.where(np.isclose(wrapped, -np.pi), np.pi, wrapped)


def normalize_angle_deg(angle_deg: ArrayLike) -> np.ndarray:
    """Wrap an angle in degrees to [0, 360)."""
    wrapped = np.mod(np.asarray(angle_deg, dtype=float), 360.0)
    # np.mod of a tiny negative number rounds to exactly 360.0; keep the
    # interval half-open.
    return np.where(wrapped >= 360.0, 0.0, wrapped)


def normalize_angle_rad(angle_rad: ArrayLike) -> np.ndarray:
    """Wrap an angle in radians to [0, 2*pi)."""
    return np.mod(np.asarray(angle_rad, dtype=float), 2.0 * np.pi)


def angular_difference(angle_a_deg: ArrayLike, angle_b_deg: ArrayLike) -> np.ndarray:
    """Smallest absolute difference between two bearings, in degrees.

    The result is always in [0, 180], regardless of how the inputs are
    wrapped.  This is the error metric used throughout the evaluation: the
    bearing error between a pseudospectrum peak and ground truth.
    """
    diff = np.abs(normalize_angle_deg(angle_a_deg) - normalize_angle_deg(angle_b_deg))
    return np.minimum(diff, 360.0 - diff)


def signed_angular_difference(angle_a_deg: ArrayLike, angle_b_deg: ArrayLike) -> np.ndarray:
    """Signed smallest difference ``a - b`` between two bearings, in (-180, 180]."""
    diff = np.asarray(angle_a_deg, dtype=float) - np.asarray(angle_b_deg, dtype=float)
    wrapped = np.mod(diff + 180.0, 360.0) - 180.0
    return np.where(np.isclose(wrapped, -180.0), 180.0, wrapped)


def circular_mean(angles_deg: Iterable[float]) -> float:
    """Circular mean of a collection of bearings, in [0, 360).

    Raises
    ------
    ValueError
        If the collection is empty or the angles are perfectly balanced so
        that no mean direction exists.
    """
    angles = np.asarray(list(angles_deg), dtype=float)
    if angles.size == 0:
        raise ValueError("cannot compute the circular mean of an empty collection")
    radians = np.deg2rad(angles)
    sin_sum = float(np.sum(np.sin(radians)))
    cos_sum = float(np.sum(np.cos(radians)))
    if math.isclose(sin_sum, 0.0, abs_tol=1e-12) and math.isclose(cos_sum, 0.0, abs_tol=1e-12):
        raise ValueError("circular mean is undefined for perfectly balanced angles")
    return float(normalize_angle_deg(math.degrees(math.atan2(sin_sum, cos_sum))))


def circular_std(angles_deg: Iterable[float]) -> float:
    """Circular standard deviation (degrees) of a collection of bearings."""
    angles = np.asarray(list(angles_deg), dtype=float)
    if angles.size == 0:
        raise ValueError("cannot compute the circular std of an empty collection")
    radians = np.deg2rad(angles)
    resultant = abs(np.mean(np.exp(1j * radians)))
    resultant = min(max(resultant, 1e-15), 1.0)
    return float(math.degrees(math.sqrt(-2.0 * math.log(resultant))))


def confidence_interval_halfwidth(angles_deg: Sequence[float],
                                  confidence: float = 0.99) -> float:
    """Half-width (degrees) of a normal-approximation confidence interval.

    Used by the Figure 5 reproduction: the paper plots the mean bearing of ten
    per-packet estimates with a 99 % confidence interval.  The estimates are
    tightly clustered so a normal approximation on the signed differences from
    the circular mean is appropriate.
    """
    from scipy import stats

    angles = np.asarray(list(angles_deg), dtype=float)
    if angles.size < 2:
        return 0.0
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    mean = circular_mean(angles)
    deviations = signed_angular_difference(angles, mean)
    std_err = float(np.std(deviations, ddof=1)) / math.sqrt(angles.size)
    t_value = float(stats.t.ppf(0.5 + confidence / 2.0, df=angles.size - 1))
    return t_value * std_err


def circular_to_linear_bearing(angle_deg: ArrayLike) -> np.ndarray:
    """Map a [0, 360) bearing onto the linear-array convention (-180, 180]."""
    wrapped = np.mod(np.asarray(angle_deg, dtype=float) + 180.0, 360.0) - 180.0
    return np.where(np.isclose(wrapped, -180.0), 180.0, wrapped)
