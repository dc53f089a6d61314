"""2-D points and vectors.

The testbed floor plan (Figure 4 of the paper) is planar; 3-D localisation is
listed as future work, so the geometry layer is deliberately two-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True)
class Point:
    """A point in the 2-D floor plan, coordinates in metres."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point") -> float:
        """Bearing from this point towards ``other`` in degrees, [0, 360).

        Zero degrees points along +x and bearings increase counter-clockwise,
        matching the Figure 4 floor-plan convention.
        """
        dx = other.x - self.x
        dy = other.y - self.y
        if math.isclose(dx, 0.0, abs_tol=1e-15) and math.isclose(dy, 0.0, abs_tol=1e-15):
            raise ValueError("bearing is undefined for coincident points")
        return math.degrees(math.atan2(dy, dx)) % 360.0

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __add__(self, other: "Vector") -> "Point":
        if not isinstance(other, Vector):
            return NotImplemented
        return Point(self.x + other.dx, self.y + other.dy)

    def __sub__(self, other: "Point") -> "Vector":
        if not isinstance(other, Point):
            return NotImplemented
        return Vector(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Vector:
    """A displacement in the 2-D plane, components in metres."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"vector components must be finite, got ({self.dx}, {self.dy})")

    @property
    def length(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.dx, self.dy)

    def normalized(self) -> "Vector":
        """Return a unit-length vector in the same direction.

        Raises
        ------
        ValueError
            If the vector has (near) zero length.
        """
        length = self.length
        if length < 1e-15:
            raise ValueError("cannot normalise a zero-length vector")
        return Vector(self.dx / length, self.dy / length)

    def dot(self, other: "Vector") -> float:
        """Dot product with ``other``."""
        return self.dx * other.dx + self.dy * other.dy

    def cross(self, other: "Vector") -> float:
        """Z-component of the cross product with ``other``."""
        return self.dx * other.dy - self.dy * other.dx

    def perpendicular(self) -> "Vector":
        """Return the vector rotated by +90 degrees."""
        return Vector(-self.dy, self.dx)

    def scaled(self, factor: float) -> "Vector":
        """Return the vector scaled by ``factor``."""
        return Vector(self.dx * factor, self.dy * factor)

    def angle_deg(self) -> float:
        """Direction of the vector in degrees, [0, 360)."""
        if self.length < 1e-15:
            raise ValueError("direction is undefined for a zero-length vector")
        return math.degrees(math.atan2(self.dy, self.dx)) % 360.0

    @staticmethod
    def from_angle_deg(angle_deg: float, length: float = 1.0) -> "Vector":
        """Create a vector pointing at ``angle_deg`` with the given ``length``."""
        radians = math.radians(angle_deg)
        return Vector(length * math.cos(radians), length * math.sin(radians))

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return Vector(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return Vector(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Vector":
        return Vector(-self.dx, -self.dy)
