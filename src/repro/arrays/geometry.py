"""Antenna array geometries.

The prototype uses eight antennas arranged either on a line (half-wavelength,
6.13 cm spacing) or on an octagon with 4.7 cm sides (the paper's "circular"
arrangement).  A linear array can only resolve bearings in [-90, 90] because
clients on either side of the array axis are indistinguishable; the circular
arrangement resolves the full [0, 360) range (footnote 1 of the paper).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_CARRIER_FREQUENCY_HZ, OCTAGON_SIDE_LENGTH_M, wavelength
from repro.utils.validation import require_positive, require_positive_int


class AntennaArray:
    """Base class for a planar antenna array.

    Element positions are expressed in metres in the array's local frame; the
    array can be placed in the floor plan at an arbitrary position and
    orientation by the access-point model.
    """

    def __init__(self, element_positions: np.ndarray,
                 carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 name: str = "array"):
        positions = np.asarray(element_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"element positions must be an (N, 2) array, got shape {positions.shape}")
        if positions.shape[0] < 2:
            raise ValueError("an antenna array needs at least two elements")
        if not np.all(np.isfinite(positions)):
            raise ValueError("element positions must be finite")
        self._positions = positions
        self._carrier_frequency_hz = require_positive(carrier_frequency_hz, "carrier_frequency_hz")
        self.name = name
        # Manifold cache: the geometry is immutable, so angle grids and
        # steering matrices depend only on (resolution, wavelength) and are
        # computed once per array instead of once per processed packet.
        # Cached arrays are returned read-only and must not be mutated.
        self._ambiguous: Optional[bool] = None
        self._grid_cache: dict = {}
        self._steering_cache: dict = {}

    @property
    def num_elements(self) -> int:
        """Number of antenna elements."""
        return int(self._positions.shape[0])

    @property
    def element_positions(self) -> np.ndarray:
        """Copy of the (N, 2) element positions in metres (local frame)."""
        return self._positions.copy()

    @property
    def carrier_frequency_hz(self) -> float:
        """Carrier frequency the array operates at."""
        return self._carrier_frequency_hz

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return wavelength(self._carrier_frequency_hz)

    @property
    def aperture(self) -> float:
        """Largest inter-element distance (metres)."""
        diffs = self._positions[:, None, :] - self._positions[None, :, :]
        return float(np.max(np.linalg.norm(diffs, axis=-1)))

    @property
    def ambiguous(self) -> bool:
        """True when the array cannot distinguish the two sides of a line.

        Linear arrays are ambiguous (bearing range [-90, 90]); planar arrays
        with elements spanning two dimensions are not.
        """
        if self._ambiguous is None:
            centred = self._positions - self._positions.mean(axis=0)
            # Rank 1 geometry (all elements collinear) implies front/back ambiguity.
            self._ambiguous = bool(np.linalg.matrix_rank(centred, tol=1e-9) < 2)
        return self._ambiguous

    def angle_grid(self, resolution_deg: float = 1.0) -> np.ndarray:
        """Default evaluation grid for pseudospectra, in degrees (memoized).

        Linear arrays scan [-90, 90]; unambiguous arrays scan [0, 360).  The
        returned array is cached per resolution and marked read-only; callers
        that need a mutable grid must copy it.
        """
        require_positive(resolution_deg, "resolution_deg")
        key = float(resolution_deg)
        grid = self._grid_cache.get(key)
        if grid is None:
            grid = self._compute_angle_grid(key)
            grid.flags.writeable = False
            self._grid_cache[key] = grid
        return grid

    def _compute_angle_grid(self, resolution_deg: float) -> np.ndarray:
        if self.ambiguous:
            return np.arange(-90.0, 90.0 + resolution_deg / 2.0, resolution_deg)
        return np.arange(0.0, 360.0, resolution_deg)

    def steering_vector(self, angle_deg: float) -> np.ndarray:
        """Array response (length-N complex vector) for a plane wave from ``angle_deg``.

        The phase at element k is ``exp(-j * 2*pi/lambda * (x_k cos(theta) + y_k sin(theta)))``,
        i.e. elements further along the arrival direction see the wave earlier.
        """
        theta = math.radians(float(angle_deg))
        direction = np.array([math.cos(theta), math.sin(theta)])
        projection = self._positions @ direction
        phase = -2.0 * np.pi / self.wavelength * projection
        return np.exp(1j * phase)

    def steering_matrix(self, angles_deg: Optional[Sequence[float]] = None,
                        resolution_deg: float = 1.0) -> np.ndarray:
        """Stack of steering vectors, shape (N, len(angles)) (memoized).

        With ``angles_deg=None`` the matrix is evaluated on the array's
        natural :meth:`angle_grid` at ``resolution_deg`` and memoized per
        (resolution, wavelength), so the (N, A) manifold is computed once per
        array rather than once per processed packet.  Passing a grid object
        previously returned by :meth:`angle_grid` hits the same cache.
        Cached matrices are read-only; copy before mutating.
        """
        if angles_deg is None:
            key = (float(resolution_deg), self.wavelength)
        else:
            resolution = next(
                (cached_resolution
                 for cached_resolution, grid in self._grid_cache.items()
                 if angles_deg is grid),
                None)
            if resolution is None:
                angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
                return self._compute_steering_matrix(angles)
            key = (resolution, self.wavelength)
        matrix = self._steering_cache.get(key)
        if matrix is None:
            matrix = self._compute_steering_matrix(self.angle_grid(key[0]))
            matrix.flags.writeable = False
            self._steering_cache[key] = matrix
        return matrix

    def _compute_steering_matrix(self, angles: np.ndarray) -> np.ndarray:
        theta = np.deg2rad(angles)
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=0)  # (2, A)
        projection = self._positions @ directions  # (N, A)
        return np.exp(-1j * 2.0 * np.pi / self.wavelength * projection)

    def rotated(self, rotation_deg: float) -> "AntennaArray":
        """Return a copy of the array rotated by ``rotation_deg`` about its centroid."""
        theta = math.radians(rotation_deg)
        rotation = np.array([[math.cos(theta), -math.sin(theta)],
                             [math.sin(theta), math.cos(theta)]])
        centre = self._positions.mean(axis=0)
        rotated = (self._positions - centre) @ rotation.T + centre
        return ArbitraryArray(rotated, self._carrier_frequency_hz,
                              name=f"{self.name}-rot{rotation_deg:g}")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(elements={self.num_elements}, "
                f"aperture={self.aperture * 100:.1f} cm)")


class ArbitraryArray(AntennaArray):
    """An array with explicitly supplied element positions."""


class UniformLinearArray(AntennaArray):
    """A uniform linear array (ULA) along the local x axis.

    The prototype's linear arrangement spaces eight antennas at half a
    wavelength (6.13 cm at 2.447 GHz).
    """

    def __init__(self, num_elements: int = 8,
                 spacing_m: Optional[float] = None,
                 carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 name: str = "ula"):
        num_elements = require_positive_int(num_elements, "num_elements")
        if num_elements < 2:
            raise ValueError("a linear array needs at least two elements")
        if spacing_m is None:
            spacing_m = wavelength(carrier_frequency_hz) / 2.0
        spacing_m = require_positive(spacing_m, "spacing_m")
        x = np.arange(num_elements, dtype=float) * spacing_m
        x -= x.mean()
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        super().__init__(positions, carrier_frequency_hz, name=name)
        self._spacing_m = spacing_m

    @property
    def spacing(self) -> float:
        """Inter-element spacing in metres."""
        return self._spacing_m

    def _compute_angle_grid(self, resolution_deg: float) -> np.ndarray:
        """Linear arrays scan [-90, 90] (front/back ambiguous, see footnote 1)."""
        return np.arange(-90.0, 90.0 + resolution_deg / 2.0, resolution_deg)

    def steering_vector(self, angle_deg: float) -> np.ndarray:
        """ULA steering vector using the broadside convention.

        For a ULA the conventional parameterisation measures the bearing from
        broadside (the normal to the array axis), so that a signal from
        broadside (0 degrees) reaches all elements simultaneously and the
        inter-element phase shift is ``2*pi*d/lambda * sin(theta)`` — exactly
        the geometry of Figure 1(c) in the paper.
        """
        theta = math.radians(float(angle_deg))
        k = np.arange(self.num_elements, dtype=float)
        phase = -2.0 * np.pi * self._spacing_m / self.wavelength * k * math.sin(theta)
        return np.exp(1j * phase)

    def _compute_steering_matrix(self, angles: np.ndarray) -> np.ndarray:
        theta = np.deg2rad(angles)
        k = np.arange(self.num_elements, dtype=float)[:, None]
        phase = -2.0 * np.pi * self._spacing_m / self.wavelength * k * np.sin(theta)[None, :]
        return np.exp(1j * phase)


class UniformCircularArray(AntennaArray):
    """A uniform circular array (UCA) with elements evenly spaced on a circle."""

    def __init__(self, num_elements: int = 8,
                 radius_m: Optional[float] = None,
                 carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 name: str = "uca"):
        num_elements = require_positive_int(num_elements, "num_elements")
        if num_elements < 3:
            raise ValueError("a circular array needs at least three elements")
        if radius_m is None:
            radius_m = wavelength(carrier_frequency_hz) / 2.0
        radius_m = require_positive(radius_m, "radius_m")
        angles = 2.0 * np.pi * np.arange(num_elements) / num_elements
        positions = radius_m * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        super().__init__(positions, carrier_frequency_hz, name=name)
        self._radius_m = radius_m

    @property
    def radius(self) -> float:
        """Circle radius in metres."""
        return self._radius_m


class OctagonalArray(UniformCircularArray):
    """The prototype's circular arrangement: an octagon with 4.7 cm sides.

    An octagon with side ``s`` has circumradius ``s / (2 sin(pi/8))``; the
    antennas sit at the corners, which is exactly a uniform circular array
    with eight elements.
    """

    def __init__(self, side_length_m: float = OCTAGON_SIDE_LENGTH_M,
                 carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 name: str = "octagon"):
        side_length_m = require_positive(side_length_m, "side_length_m")
        radius = side_length_m / (2.0 * math.sin(math.pi / 8.0))
        super().__init__(num_elements=8, radius_m=radius,
                         carrier_frequency_hz=carrier_frequency_hz, name=name)
        self._side_length_m = side_length_m

    @property
    def side_length(self) -> float:
        """Octagon side length in metres."""
        return self._side_length_m
