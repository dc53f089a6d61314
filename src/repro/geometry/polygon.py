"""Simple polygons: containment, area, edges.

Polygons model room outlines, the building footprint used by the virtual
fence, and obstacle cross-sections (the cement pillar of Figure 4).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.segment import Segment


class Polygon:
    """A simple (non-self-intersecting) polygon defined by its vertices."""

    def __init__(self, vertices: Sequence[Point]):
        vertices = list(vertices)
        if len(vertices) < 3:
            raise ValueError(f"a polygon needs at least 3 vertices, got {len(vertices)}")
        deduped: List[Point] = []
        for vertex in vertices:
            if deduped and vertex.distance_to(deduped[-1]) < 1e-12:
                continue
            deduped.append(vertex)
        if len(deduped) > 1 and deduped[0].distance_to(deduped[-1]) < 1e-12:
            deduped.pop()
        if len(deduped) < 3:
            raise ValueError("polygon vertices are degenerate")
        self._vertices: Tuple[Point, ...] = tuple(deduped)
        # Built once: the fence tests every packet's location against them.
        self._edges: Tuple[Segment, ...] = tuple(
            Segment(deduped[i], deduped[(i + 1) % len(deduped)])
            for i in range(len(deduped)))

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The polygon's vertices in order."""
        return self._vertices

    @property
    def edges(self) -> List[Segment]:
        """The polygon's edges as segments, in vertex order."""
        return list(self._edges)

    @property
    def area(self) -> float:
        """Unsigned area of the polygon (shoelace formula)."""
        return abs(self._signed_area())

    def _signed_area(self) -> float:
        total = 0.0
        verts = self._vertices
        for i, vertex in enumerate(verts):
            nxt = verts[(i + 1) % len(verts)]
            total += vertex.x * nxt.y - nxt.x * vertex.y
        return total / 2.0

    @property
    def centroid(self) -> Point:
        """Centroid (centre of mass) of the polygon."""
        signed = self._signed_area()
        if abs(signed) < 1e-15:
            xs = [v.x for v in self._vertices]
            ys = [v.y for v in self._vertices]
            return Point(sum(xs) / len(xs), sum(ys) / len(ys))
        cx = 0.0
        cy = 0.0
        verts = self._vertices
        for i, vertex in enumerate(verts):
            nxt = verts[(i + 1) % len(verts)]
            cross = vertex.x * nxt.y - nxt.x * vertex.y
            cx += (vertex.x + nxt.x) * cross
            cy += (vertex.y + nxt.y) * cross
        return Point(cx / (6.0 * signed), cy / (6.0 * signed))

    def contains(self, point: Point, include_boundary: bool = True) -> bool:
        """Point-in-polygon test using the ray-casting algorithm."""
        if self.on_boundary(point):
            return include_boundary
        inside = False
        verts = self._vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            vi, vj = verts[i], verts[j]
            intersects = ((vi.y > point.y) != (vj.y > point.y)) and (
                point.x < (vj.x - vi.x) * (point.y - vi.y) / (vj.y - vi.y) + vi.x
            )
            if intersects:
                inside = not inside
            j = i
        return inside

    def on_boundary(self, point: Point, tolerance: float = 1e-9) -> bool:
        """True when ``point`` lies on the polygon's boundary."""
        return any(edge.contains_point(point, tolerance) for edge in self._edges)

    def intersects_segment(self, segment: Segment) -> bool:
        """True when ``segment`` crosses any edge of the polygon."""
        return any(edge.intersects(segment) for edge in self._edges)

    def expanded(self, margin: float) -> "Polygon":
        """Return the polygon scaled outward from its centroid by ``margin`` metres.

        This is an approximation of a buffer operation adequate for the
        convex building outlines used by the virtual fence; it moves each
        vertex radially away from the centroid.
        """
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin!r}")
        centre = self.centroid
        new_vertices = []
        for vertex in self._vertices:
            direction = vertex - centre
            length = direction.length
            if length < 1e-12:
                new_vertices.append(vertex)
                continue
            scale = (length + margin) / length
            new_vertices.append(Point(centre.x + direction.dx * scale,
                                      centre.y + direction.dy * scale))
        return Polygon(new_vertices)

    @staticmethod
    def rectangle(x_min: float, y_min: float, x_max: float, y_max: float) -> "Polygon":
        """Create an axis-aligned rectangular polygon."""
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("rectangle must have positive width and height")
        return Polygon([
            Point(x_min, y_min),
            Point(x_max, y_min),
            Point(x_max, y_max),
            Point(x_min, y_max),
        ])

    @staticmethod
    def regular(centre: Point, radius: float, num_sides: int,
                rotation_deg: float = 0.0) -> "Polygon":
        """Create a regular polygon with ``num_sides`` vertices on a circle."""
        if num_sides < 3:
            raise ValueError(f"a regular polygon needs at least 3 sides, got {num_sides}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        vertices = []
        for k in range(num_sides):
            angle = math.radians(rotation_deg) + 2.0 * math.pi * k / num_sides
            vertices.append(Point(centre.x + radius * math.cos(angle),
                                  centre.y + radius * math.sin(angle)))
        return Polygon(vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self.area:.2f} m^2)"
