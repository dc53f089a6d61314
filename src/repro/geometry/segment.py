"""Line segments: intersection tests and mirror reflections.

Segments model walls and obstacle faces in the testbed.  The ray tracer uses
segment intersection for line-of-sight/blockage checks and point mirroring for
the image method used to construct single-bounce reflection paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point, Vector

_EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    """A finite line segment between two points in the floor plan."""

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if self.start.distance_to(self.end) < _EPS:
            raise ValueError("segment endpoints must be distinct")

    @property
    def length(self) -> float:
        """Length of the segment in metres."""
        return self.start.distance_to(self.end)

    @property
    def direction(self) -> Vector:
        """Unit vector pointing from ``start`` to ``end``."""
        return (self.end - self.start).normalized()

    @property
    def normal(self) -> Vector:
        """Unit vector perpendicular to the segment."""
        return self.direction.perpendicular()

    @property
    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return Point((self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0)

    def intersection(self, other: "Segment") -> Optional[Point]:
        """Return the intersection point with ``other`` or ``None``.

        Touching at endpoints counts as an intersection.  Collinear overlapping
        segments return ``None`` (treated as grazing, not crossing), which is
        the behaviour the blockage test wants: a ray sliding exactly along a
        wall face is not considered blocked by it.
        """
        p = self.start
        r = self.end - self.start
        q = other.start
        s = other.end - other.start
        denom = r.cross(s)
        q_minus_p = q - p
        if abs(denom) < _EPS:
            return None
        t = q_minus_p.cross(s) / denom
        u = q_minus_p.cross(r) / denom
        if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
            return Point(p.x + t * r.dx, p.y + t * r.dy)
        return None

    def intersects(self, other: "Segment") -> bool:
        """True when this segment crosses (or touches) ``other``."""
        return self.intersection(other) is not None

    def contains_point(self, point: Point, tolerance: float = 1e-9) -> bool:
        """True when ``point`` lies on the segment within ``tolerance`` metres."""
        to_point = point - self.start
        direction = self.end - self.start
        cross = abs(direction.cross(to_point))
        if cross / max(self.length, _EPS) > tolerance:
            return False
        dot = direction.dot(to_point)
        return -tolerance <= dot <= direction.dot(direction) + tolerance

    def mirror_point(self, point: Point) -> Point:
        """Mirror ``point`` across the infinite line containing this segment.

        This is the core of the image method: the reflection of a transmitter
        in a wall is its mirror image, and the reflected path is the straight
        line from the image to the receiver.
        """
        direction = self.direction
        to_point = point - self.start
        along = direction.scaled(to_point.dot(direction))
        foot = self.start + along
        return Point(2.0 * foot.x - point.x, 2.0 * foot.y - point.y)

    def distance_to_point(self, point: Point) -> float:
        """Shortest distance from ``point`` to the segment."""
        direction = self.end - self.start
        to_point = point - self.start
        t = to_point.dot(direction) / direction.dot(direction)
        t = min(max(t, 0.0), 1.0)
        closest = Point(self.start.x + t * direction.dx, self.start.y + t * direction.dy)
        return closest.distance_to(point)

    def angle_deg(self) -> float:
        """Orientation of the segment in degrees, [0, 360)."""
        return self.direction.angle_deg()

    def reflection_point(self, source: Point, target: Point) -> Optional[Point]:
        """Specular reflection point on this segment for a source/target pair.

        Returns the point on the segment where a ray from ``source`` bounces to
        reach ``target``, or ``None`` when the specular point falls outside the
        segment (no single-bounce reflection off this face exists).
        """
        image = self.mirror_point(source)
        if image.distance_to(target) < _EPS:
            return None
        try:
            path = Segment(image, target)
        except ValueError:
            return None
        intersection = self.intersection(path)
        if intersection is None:
            return None
        return intersection
