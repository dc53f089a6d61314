"""Tests for polygons, rooms, walls, and obstacles."""

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.room import Obstacle, Room, Wall, merge_rooms
from repro.geometry.segment import Segment


class TestPolygon:
    def test_needs_at_least_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_rectangle_area_and_centroid(self):
        rectangle = Polygon.rectangle(0.0, 0.0, 4.0, 2.0)
        assert rectangle.area == pytest.approx(8.0)
        assert rectangle.centroid == Point(2.0, 1.0)

    def test_containment(self):
        rectangle = Polygon.rectangle(0.0, 0.0, 4.0, 2.0)
        assert rectangle.contains(Point(1.0, 1.0))
        assert not rectangle.contains(Point(5.0, 1.0))
        assert rectangle.contains(Point(0.0, 1.0))  # boundary included by default
        assert not rectangle.contains(Point(0.0, 1.0), include_boundary=False)

    def test_expanded_polygon_contains_original(self):
        rectangle = Polygon.rectangle(0.0, 0.0, 4.0, 2.0)
        expanded = rectangle.expanded(1.0)
        for vertex in rectangle.vertices:
            assert expanded.contains(vertex)
        assert expanded.area > rectangle.area

    def test_regular_polygon_vertices_lie_on_circle(self):
        polygon = Polygon.regular(Point(1.0, 1.0), radius=2.0, num_sides=8)
        for vertex in polygon.vertices:
            assert vertex.distance_to(Point(1.0, 1.0)) == pytest.approx(2.0)

    def test_intersects_segment(self):
        rectangle = Polygon.rectangle(0.0, 0.0, 2.0, 2.0)
        crossing = Segment(Point(-1.0, 1.0), Point(3.0, 1.0))
        missing = Segment(Point(-1.0, 5.0), Point(3.0, 5.0))
        assert rectangle.intersects_segment(crossing)
        assert not rectangle.intersects_segment(missing)


class TestRoomAndObstacles:
    def test_rectangular_room_has_four_walls_and_an_outline(self):
        room = Room.from_rectangle(0.0, 0.0, 10.0, 8.0, name="office")
        assert len(room.walls) == 4
        assert room.contains(Point(5.0, 4.0))
        assert not room.contains(Point(11.0, 4.0))

    def test_penetration_loss_accumulates_over_crossed_walls(self):
        room = Room.from_rectangle(0.0, 0.0, 10.0, 8.0, penetration_loss_db=5.0)
        inside_path = Segment(Point(2.0, 2.0), Point(8.0, 6.0))
        through_one_wall = Segment(Point(5.0, 4.0), Point(15.0, 4.0))
        through_two_walls = Segment(Point(-5.0, 4.0), Point(15.0, 4.0))
        assert room.penetration_loss_db(inside_path) == pytest.approx(0.0)
        assert room.penetration_loss_db(through_one_wall) == pytest.approx(5.0)
        assert room.penetration_loss_db(through_two_walls) == pytest.approx(10.0)

    def test_obstacle_blocks_crossing_paths(self):
        pillar = Obstacle(Polygon.rectangle(4.0, 4.0, 5.0, 5.0), penetration_loss_db=12.0)
        blocked = Segment(Point(0.0, 4.5), Point(10.0, 4.5))
        clear = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert pillar.blocks(blocked)
        assert not pillar.blocks(clear)
        assert len(pillar.faces()) == 4

    def test_line_of_sight_accounts_for_obstacles(self):
        room = Room.from_rectangle(0.0, 0.0, 10.0, 8.0)
        room.add_obstacle(Obstacle(Polygon.rectangle(4.0, 3.0, 5.0, 5.0)))
        assert not room.line_of_sight(Point(1.0, 4.0), Point(9.0, 4.0))
        assert room.line_of_sight(Point(1.0, 1.0), Point(9.0, 1.0))

    def test_merge_rooms_combines_surfaces(self):
        first = Room.from_rectangle(0.0, 0.0, 5.0, 5.0)
        second = Room.from_rectangle(5.0, 0.0, 10.0, 5.0)
        merged = merge_rooms([first, second])
        assert len(merged.walls) == 8
        assert len(merged.reflective_surfaces()) == 8

    def test_wall_rejects_negative_losses(self):
        segment = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        with pytest.raises(ValueError):
            Wall(segment, reflection_loss_db=-1.0)
        with pytest.raises(ValueError):
            Wall(segment, penetration_loss_db=-1.0)
