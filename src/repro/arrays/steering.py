"""Standalone steering-vector helpers.

Most code uses :meth:`repro.arrays.geometry.AntennaArray.steering_vector`;
these free functions exist for callers that work with raw element positions
(for example the channel simulator, which evaluates the array response for
paths impinging from arbitrary directions).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import require_positive


def steering_vector(element_positions: np.ndarray, angle_deg: float,
                    wavelength_m: float) -> np.ndarray:
    """Plane-wave array response for elements at ``element_positions``.

    Parameters
    ----------
    element_positions:
        (N, 2) element coordinates in metres.
    angle_deg:
        Direction of arrival, degrees, mathematical convention (0 = +x,
        counter-clockwise positive).
    wavelength_m:
        Carrier wavelength in metres.
    """
    positions = validated_positions(element_positions, wavelength_m)
    return plane_wave_response(positions, angle_deg, -1j * 2.0 * np.pi / wavelength_m)


def validated_positions(element_positions: np.ndarray,
                        wavelength_m: float) -> np.ndarray:
    """Check a wavelength and (N, 2) element positions; return the positions
    as a float array."""
    require_positive(wavelength_m, "wavelength_m")
    positions = np.asarray(element_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"element positions must be (N, 2), got {positions.shape}")
    return positions


def plane_wave_response(positions: np.ndarray, angle_deg: float,
                        phase_per_metre: complex) -> np.ndarray:
    """:func:`steering_vector` on already validated positions.

    ``phase_per_metre`` is ``-1j * 2.0 * np.pi / wavelength_m``, the factor
    the length-2 projection is scaled by before the exponential.
    """
    theta = np.deg2rad(float(angle_deg))
    direction = np.array([np.cos(theta), np.sin(theta)])
    projection = positions @ direction
    return np.exp(phase_per_metre * projection)


def steering_matrix(element_positions: np.ndarray, angles_deg: Sequence[float],
                    wavelength_m: float) -> np.ndarray:
    """Stack of steering vectors for several arrival angles, shape (N, A)."""
    positions = validated_positions(element_positions, wavelength_m)
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    theta = np.deg2rad(angles)
    directions = np.stack([np.cos(theta), np.sin(theta)], axis=0)
    projection = positions @ directions
    return np.exp(-1j * 2.0 * np.pi / wavelength_m * projection)
