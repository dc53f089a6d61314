"""Tests for points, vectors, and segments."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point, Vector
from repro.geometry.segment import Segment

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance_and_bearing(self):
        origin = Point(0.0, 0.0)
        target = Point(3.0, 4.0)
        assert origin.distance_to(target) == pytest.approx(5.0)
        assert origin.bearing_to(Point(0.0, 2.0)) == pytest.approx(90.0)

    def test_bearing_to_self_raises(self):
        with pytest.raises(ValueError):
            Point(1.0, 2.0).bearing_to(Point(1.0, 2.0))

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)

    def test_point_vector_arithmetic(self):
        point = Point(1.0, 1.0)
        moved = point + Vector(2.0, -1.0)
        assert moved == Point(3.0, 0.0)
        assert (moved - point) == Vector(2.0, -1.0)

    @given(coords, coords, coords, coords)
    def test_distance_is_symmetric(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords, coords, coords)
    def test_bearing_reverses_by_180(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        if a.distance_to(b) < 1e-6:
            return
        forward = a.bearing_to(b)
        backward = b.bearing_to(a)
        assert math.isclose((forward - backward) % 360.0, 180.0, abs_tol=1e-6)


class TestVector:
    def test_normalized_has_unit_length(self):
        assert Vector(3.0, 4.0).normalized().length == pytest.approx(1.0)

    def test_normalizing_zero_vector_raises(self):
        with pytest.raises(ValueError):
            Vector(0.0, 0.0).normalized()

    def test_perpendicular_is_orthogonal(self):
        vector = Vector(2.0, 5.0)
        assert vector.dot(vector.perpendicular()) == pytest.approx(0.0)

    def test_from_angle_round_trip(self):
        vector = Vector.from_angle_deg(37.0, length=2.0)
        assert vector.angle_deg() == pytest.approx(37.0)
        assert vector.length == pytest.approx(2.0)


class TestSegment:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            Segment(Point(1.0, 1.0), Point(1.0, 1.0))

    def test_crossing_segments_intersect(self):
        a = Segment(Point(0.0, 0.0), Point(2.0, 2.0))
        b = Segment(Point(0.0, 2.0), Point(2.0, 0.0))
        intersection = a.intersection(b)
        assert intersection is not None
        assert intersection.x == pytest.approx(1.0)
        assert intersection.y == pytest.approx(1.0)

    def test_parallel_segments_do_not_intersect(self):
        a = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        b = Segment(Point(0.0, 1.0), Point(1.0, 1.0))
        assert not a.intersects(b)

    def test_non_overlapping_segments_do_not_intersect(self):
        a = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        b = Segment(Point(5.0, 1.0), Point(5.0, -1.0))
        assert not a.intersects(b)

    def test_mirror_point_across_horizontal_wall(self):
        wall = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert wall.mirror_point(Point(3.0, 4.0)) == Point(3.0, -4.0)

    def test_mirror_is_involutive(self):
        wall = Segment(Point(0.0, 0.0), Point(3.0, 7.0))
        point = Point(2.0, -1.0)
        twice = wall.mirror_point(wall.mirror_point(point))
        assert twice.distance_to(point) == pytest.approx(0.0, abs=1e-9)

    def test_reflection_point_obeys_specular_geometry(self):
        wall = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        source = Point(2.0, 3.0)
        target = Point(8.0, 3.0)
        bounce = wall.reflection_point(source, target)
        assert bounce is not None
        # Equal angles: with both endpoints at the same height, the bounce is midway.
        assert bounce.x == pytest.approx(5.0)
        assert bounce.y == pytest.approx(0.0, abs=1e-9)
        # Total path length equals the image-to-target distance.
        image = wall.mirror_point(source)
        assert (source.distance_to(bounce) + bounce.distance_to(target)
                == pytest.approx(image.distance_to(target)))

    def test_reflection_point_outside_segment_returns_none(self):
        wall = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
        assert wall.reflection_point(Point(5.0, 1.0), Point(9.0, 1.0)) is None

    def test_distance_to_point(self):
        segment = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
        assert segment.distance_to_point(Point(5.0, 3.0)) == pytest.approx(3.0)
        assert segment.distance_to_point(Point(-4.0, 3.0)) == pytest.approx(5.0)

    def test_contains_point(self):
        segment = Segment(Point(0.0, 0.0), Point(10.0, 10.0))
        assert segment.contains_point(Point(5.0, 5.0))
        assert not segment.contains_point(Point(5.0, 6.0))
        assert not segment.contains_point(Point(11.0, 11.0))
