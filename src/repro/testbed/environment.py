"""The Figure 4 testbed environment.

The paper's testbed is an office floor with twenty numbered Soekris clients
scattered around (and outside) the room containing the WARP access point,
plus a large cement pillar that blocks clients 11 and 12.  The exact floor
plan is not published, so this module builds a floor plan with the same
*structure*: a building with a main office room and two neighbouring rooms,
the AP inside the main room, clients 1–12 on a ring of bearings around the AP
(the circular-array accuracy experiment of Figure 5), clients 13–20 spread in
front of the array (the linear-array experiments of Figures 6 and 7), and a
cement pillar obstructing the clients numbered 11 and 12 — mirroring the
blocked/far/near-room cases the paper calls out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.room import Obstacle, Room, Wall, merge_rooms
from repro.geometry.segment import Segment


@dataclass
class TestbedEnvironment:
    """A floor plan plus the AP and client placements used by the experiments."""

    floorplan: Room
    building_boundary: Polygon
    ap_position: Point
    client_positions: Dict[int, Point] = field(default_factory=dict)
    #: Positions outside the building used as attacker / outside-client spots.
    outdoor_positions: Dict[str, Point] = field(default_factory=dict)
    name: str = "testbed"

    def client_position(self, client_id: int) -> Point:
        """Position of a numbered client."""
        try:
            return self.client_positions[client_id]
        except KeyError:
            raise KeyError(f"unknown client id {client_id}") from None

    def ground_truth_bearing(self, client_id: int, ap_position: Point = None) -> float:
        """Ground-truth bearing (degrees, global frame) from the AP to a client."""
        origin = self.ap_position if ap_position is None else ap_position
        return origin.bearing_to(self.client_position(client_id))

    def is_inside_building(self, point: Point) -> bool:
        """True when ``point`` falls within the building outline."""
        return self.building_boundary.contains(point)

    def line_of_sight(self, client_id: int, ap_position: Point = None) -> bool:
        """True when nothing blocks the straight path from the AP to the client."""
        origin = self.ap_position if ap_position is None else ap_position
        return self.floorplan.line_of_sight(origin, self.client_position(client_id))

    @property
    def client_ids(self) -> List[int]:
        """Sorted list of client identifiers."""
        return sorted(self.client_positions.keys())


def figure4_environment() -> TestbedEnvironment:
    """Build the default testbed mirroring the structure of Figure 4.

    Layout (metres):

    * Building outline: 24 x 14 rectangle (exterior walls, high penetration loss).
    * Main office room: the right-hand 16 x 14 section, containing the AP.
    * Two neighbouring rooms on the left (interior drywall).
    * AP at (11, 7).
    * Clients 1-12 on a ring of bearings around the AP (radii 3.5-6.5 m);
      client 2 lands in the neighbouring room, clients 6 and 10 are the far
      ones, and clients 11 and 12 sit behind the cement pillar.
    * Clients 13-20 spread through the lower half of the main room, in front
      of a linear array mounted along the x axis at the AP.
    * Outdoor positions just outside the exterior wall for fence/attacker tests.
    """
    exterior = Room.from_rectangle(0.0, 0.0, 24.0, 14.0,
                                   reflection_loss_db=6.0, penetration_loss_db=15.0,
                                   name="exterior")
    building_boundary = Polygon.rectangle(0.0, 0.0, 24.0, 14.0)

    # Interior partition walls: a vertical wall at x = 8 separating the two
    # side rooms from the main office, with a doorway gap between y = 6 and
    # y = 8, and a horizontal wall splitting the side rooms at y = 7.
    interior_walls = [
        Wall(Segment(Point(8.0, 0.0), Point(8.0, 6.0)),
             reflection_loss_db=8.0, penetration_loss_db=5.0, name="partition-lower"),
        Wall(Segment(Point(8.0, 8.0), Point(8.0, 14.0)),
             reflection_loss_db=8.0, penetration_loss_db=5.0, name="partition-upper"),
        Wall(Segment(Point(0.0, 7.0), Point(8.0, 7.0)),
             reflection_loss_db=8.0, penetration_loss_db=5.0, name="sideroom-divider"),
    ]
    interior = Room(walls=interior_walls, name="interior")

    floorplan = merge_rooms([exterior, interior], name="figure4")

    ap_position = Point(11.0, 7.0)

    # The cement pillar: a 0.6 m square, 3.5 m from the AP along bearing 318
    # degrees.  Its angular shadow (roughly 313-323 degrees as seen from the
    # AP) covers client 11 (completely blocked) and grazes client 12, exactly
    # the situation Section 3.1 describes.  The penetration loss keeps the
    # blocked direct path comparable to — rather than far below — the
    # strongest reflections, which is what makes those clients noisier without
    # flipping their dominant peak to a reflection most of the time.
    pillar_bearing = math.radians(318.0)
    pillar_centre = Point(ap_position.x + 3.5 * math.cos(pillar_bearing),
                          ap_position.y + 3.5 * math.sin(pillar_bearing))
    half = 0.3
    pillar = Obstacle(
        outline=Polygon.rectangle(pillar_centre.x - half, pillar_centre.y - half,
                                  pillar_centre.x + half, pillar_centre.y + half),
        penetration_loss_db=7.0,
        reflection_loss_db=6.0,
        name="cement-pillar",
    )
    floorplan.add_obstacle(pillar)

    # Clients 1-12: a ring of bearings around the AP, every 30 degrees starting
    # at 15 degrees, with radii that keep everyone inside the building.  The
    # radii are chosen so that client 2 falls in the neighbouring room through
    # the doorway-adjacent wall, client 6 is the far one, and clients 11/12 end
    # up behind the pillar (bearings 315 and 345 degrees).
    ring_radii = {
        1: 4.5, 2: 6.5, 3: 4.0, 4: 5.0, 5: 3.0, 6: 6.5,
        7: 4.5, 8: 5.5, 9: 4.0, 10: 6.0, 11: 5.0, 12: 5.5,
    }
    client_positions: Dict[int, Point] = {}
    for client_id, radius in ring_radii.items():
        bearing_deg = 15.0 + (client_id - 1) * 30.0
        bearing = math.radians(bearing_deg)
        client_positions[client_id] = Point(
            ap_position.x + radius * math.cos(bearing),
            ap_position.y + radius * math.sin(bearing),
        )
    # Nudge client 2 deeper into the neighbouring room (through the partition).
    client_positions[2] = Point(5.5, 10.5)
    # Client 11 sits directly behind the pillar (fully blocked), client 12 just
    # off to the side of it (grazing, partially affected).
    client_positions[11] = Point(
        ap_position.x + 5.0 * math.cos(math.radians(318.0)),
        ap_position.y + 5.0 * math.sin(math.radians(318.0)),
    )
    client_positions[12] = Point(
        ap_position.x + 5.5 * math.cos(math.radians(330.0)),
        ap_position.y + 5.5 * math.sin(math.radians(330.0)),
    )

    # Clients 13-20: spread across the lower half of the main office, in front
    # of the linear array (which is mounted along +x and looks towards -y).
    # (Kept clear of the pillar's angular shadow so that only clients 11 and 12
    # are the deliberately obstructed cases.)
    linear_clients = {
        13: Point(9.5, 3.0),
        14: Point(12.0, 2.2),
        15: Point(13.2, 2.6),
        16: Point(17.8, 2.6),
        17: Point(19.5, 4.0),
        18: Point(21.5, 2.5),
        19: Point(15.5, 5.2),
        20: Point(22.0, 5.5),
    }
    client_positions.update(linear_clients)

    outdoor_positions = {
        "street-east": Point(27.0, 7.0),
        "street-north": Point(12.0, 17.5),
        "parking-lot": Point(-6.0, 2.0),
    }

    return TestbedEnvironment(
        floorplan=floorplan,
        building_boundary=building_boundary,
        ap_position=ap_position,
        client_positions=client_positions,
        outdoor_positions=outdoor_positions,
        name="figure4",
    )
