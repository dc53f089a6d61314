"""Rooms, walls, and obstacles — the building blocks of the testbed floor plan.

The Figure 4 environment is an office with several rooms, a large cement
pillar that blocks some clients, and an exterior boundary used by the virtual
fence.  ``Room`` aggregates walls (reflective surfaces with penetration loss)
and obstacles (blocking volumes with their own attenuation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class Wall:
    """A reflective wall face.

    Parameters
    ----------
    segment:
        Geometry of the wall face.
    reflection_loss_db:
        Power loss applied to a signal that reflects off this wall, relative
        to a perfect mirror.  Typical interior drywall: 6-10 dB.
    penetration_loss_db:
        Power loss applied to a signal that passes through the wall.
        Typical interior drywall: 3-5 dB; exterior/cement walls much more.
    name:
        Optional label for debugging and reporting.
    """

    segment: Segment
    reflection_loss_db: float = 8.0
    penetration_loss_db: float = 4.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.reflection_loss_db < 0:
            raise ValueError("reflection loss must be non-negative dB")
        if self.penetration_loss_db < 0:
            raise ValueError("penetration loss must be non-negative dB")


@dataclass(frozen=True)
class Obstacle:
    """A blocking obstacle with a polygonal cross-section (e.g. a cement pillar).

    Signals whose straight-line path crosses the obstacle are attenuated by
    ``penetration_loss_db``; the obstacle's faces also act as reflectors with
    ``reflection_loss_db``.
    """

    outline: Polygon
    penetration_loss_db: float = 20.0
    reflection_loss_db: float = 10.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.penetration_loss_db < 0:
            raise ValueError("penetration loss must be non-negative dB")
        if self.reflection_loss_db < 0:
            raise ValueError("reflection loss must be non-negative dB")

    def blocks(self, path: Segment) -> bool:
        """True when the straight-line ``path`` crosses this obstacle."""
        if self.outline.intersects_segment(path):
            return True
        # A path wholly inside the obstacle (both endpoints inside) also counts.
        return self.outline.contains(path.start) and self.outline.contains(path.end)

    def faces(self) -> List[Segment]:
        """The obstacle's faces, usable as reflector segments."""
        return self.outline.edges


@dataclass
class Room:
    """A collection of walls and obstacles plus an optional bounding outline."""

    walls: List[Wall] = field(default_factory=list)
    obstacles: List[Obstacle] = field(default_factory=list)
    outline: Optional[Polygon] = None
    name: str = ""

    @staticmethod
    def from_rectangle(x_min: float, y_min: float, x_max: float, y_max: float,
                       reflection_loss_db: float = 8.0,
                       penetration_loss_db: float = 4.0,
                       name: str = "") -> "Room":
        """Create a rectangular room whose four walls reflect and attenuate."""
        outline = Polygon.rectangle(x_min, y_min, x_max, y_max)
        walls = [
            Wall(edge, reflection_loss_db=reflection_loss_db,
                 penetration_loss_db=penetration_loss_db,
                 name=f"{name}-wall-{i}")
            for i, edge in enumerate(outline.edges)
        ]
        return Room(walls=walls, outline=outline, name=name)

    def add_obstacle(self, obstacle: Obstacle) -> None:
        """Add an obstacle to the room."""
        self.obstacles.append(obstacle)

    def reflective_surfaces(self) -> List[Segment]:
        """All segments that can act as single-bounce reflectors."""
        surfaces = [wall.segment for wall in self.walls]
        for obstacle in self.obstacles:
            surfaces.extend(obstacle.faces())
        return surfaces

    def penetration_loss_db(self, path: Segment) -> float:
        """Total penetration loss (dB) accumulated along a straight-line path.

        Each wall the path crosses contributes its penetration loss, and each
        obstacle it crosses contributes its (usually much larger) loss.  This
        models the cement pillar of Figure 4 heavily attenuating — but not
        completely removing — the direct path of blocked clients.
        """
        total = 0.0
        for wall in self.walls:
            if wall.segment.intersects(path):
                total += wall.penetration_loss_db
        for obstacle in self.obstacles:
            if obstacle.blocks(path):
                total += obstacle.penetration_loss_db
        return total

    def line_of_sight(self, a: Point, b: Point) -> bool:
        """True when the straight path from ``a`` to ``b`` crosses nothing."""
        path = Segment(a, b)
        return self.penetration_loss_db(path) == 0.0

    def contains(self, point: Point) -> bool:
        """True when ``point`` falls inside the room outline (if one is set)."""
        if self.outline is None:
            raise ValueError("room has no outline to test containment against")
        return self.outline.contains(point)


def merge_rooms(rooms: Sequence[Room], name: str = "floorplan") -> Room:
    """Merge several rooms into one aggregate floor plan.

    The merged room has no single outline (rooms may be disjoint); callers
    that need a boundary for the virtual fence should supply it explicitly.
    """
    merged = Room(name=name)
    for room in rooms:
        merged.walls.extend(room.walls)
        merged.obstacles.extend(room.obstacles)
    return merged
