"""Tests for propagation paths, path loss, and the image-method ray tracer."""

import math

import pytest

from repro.channel.path import PathKind, PropagationPath, direct_path
from repro.channel.pathloss import free_space_path_loss_db, log_distance_path_loss_db
from repro.channel.raytracer import RayTracer
from repro.constants import SPEED_OF_LIGHT, wavelength
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.room import Obstacle, Room


class TestPropagationPath:
    def test_delay_and_amplitude(self):
        path = PropagationPath(aoa_deg=10.0, length_m=3.0, gain_db=-60.0)
        assert path.delay_s == pytest.approx(3.0 / SPEED_OF_LIGHT)
        assert path.amplitude == pytest.approx(1e-3)

    def test_carrier_phase_progresses_2pi_per_wavelength(self):
        lam = wavelength()
        one_wavelength = PropagationPath(aoa_deg=0.0, length_m=lam, gain_db=-40.0)
        quarter = PropagationPath(aoa_deg=0.0, length_m=1.25 * lam, gain_db=-40.0)
        assert one_wavelength.carrier_phase_rad(lam) == pytest.approx(0.0, abs=1e-9)
        assert quarter.carrier_phase_rad(lam) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_invalid_paths_rejected(self):
        with pytest.raises(ValueError):
            PropagationPath(aoa_deg=0.0, length_m=0.0, gain_db=-60.0)
        with pytest.raises(ValueError):
            PropagationPath(aoa_deg=float("nan"), length_m=1.0, gain_db=-60.0)

    def test_direct_path_helper(self):
        direct = PropagationPath(aoa_deg=0.0, length_m=5.0, gain_db=-60.0)
        reflection = PropagationPath(aoa_deg=40.0, length_m=9.0, gain_db=-55.0,
                                     kind=PathKind.REFLECTED)
        assert direct_path([reflection, direct]) is direct
        assert direct_path([reflection]) is None


class TestPathLoss:
    def test_free_space_loss_increases_by_6_db_per_doubling(self):
        assert (free_space_path_loss_db(10.0) - free_space_path_loss_db(5.0)
                ) == pytest.approx(6.02, abs=0.01)

    def test_free_space_loss_at_one_metre_2_4_ghz(self):
        # Classic figure: ~40 dB at 1 m in the 2.4 GHz band.
        assert free_space_path_loss_db(1.0) == pytest.approx(40.2, abs=0.5)

    def test_log_distance_exponent_steeper_than_free_space(self):
        free_space = free_space_path_loss_db(20.0)
        indoor = log_distance_path_loss_db(20.0, path_loss_exponent=3.5)
        assert indoor > free_space

    def test_invalid_distances_rejected(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0)
        with pytest.raises(ValueError):
            log_distance_path_loss_db(-1.0)


@pytest.fixture()
def simple_room():
    room = Room.from_rectangle(0.0, 0.0, 20.0, 10.0, reflection_loss_db=6.0,
                               penetration_loss_db=10.0)
    return room


class TestRayTracer:
    def test_direct_path_geometry(self, simple_room):
        tracer = RayTracer(simple_room)
        path = tracer.direct_path(Point(2.0, 5.0), Point(12.0, 5.0))
        assert path.kind is PathKind.DIRECT
        assert path.length_m == pytest.approx(10.0)
        # AoA is the bearing from the receiver back towards the transmitter.
        assert path.aoa_deg == pytest.approx(180.0)

    def test_trace_returns_direct_path_first(self, simple_room):
        tracer = RayTracer(simple_room)
        paths = tracer.trace(Point(2.0, 5.0), Point(12.0, 5.0))
        assert paths[0].kind is PathKind.DIRECT
        assert len(paths) > 1
        assert all(p.kind is PathKind.REFLECTED for p in paths[1:])

    def test_reflections_are_weaker_than_the_direct_path(self, simple_room):
        tracer = RayTracer(simple_room)
        paths = tracer.trace(Point(2.0, 5.0), Point(12.0, 5.0))
        direct = paths[0]
        for reflection in paths[1:]:
            assert reflection.gain_db < direct.gain_db
            assert reflection.length_m > direct.length_m

    def test_reflection_count_capped_by_max_reflections(self, simple_room):
        tracer = RayTracer(simple_room, max_reflections=2)
        paths = tracer.reflected_paths(Point(2.0, 5.0), Point(12.0, 5.0))
        assert len(paths) <= 2

    def test_reflection_angles_differ_from_direct(self, simple_room):
        tracer = RayTracer(simple_room)
        paths = tracer.trace(Point(2.0, 5.0), Point(12.0, 5.0))
        direct_aoa = paths[0].aoa_deg
        assert any(abs(p.aoa_deg - direct_aoa) > 5.0 for p in paths[1:])

    def test_obstacle_attenuates_the_direct_path(self, simple_room):
        tracer_clear = RayTracer(simple_room)
        clear = tracer_clear.direct_path(Point(2.0, 5.0), Point(12.0, 5.0))
        simple_room.add_obstacle(
            Obstacle(Polygon.rectangle(6.0, 4.0, 7.0, 6.0), penetration_loss_db=13.0))
        tracer_blocked = RayTracer(simple_room)
        blocked = tracer_blocked.direct_path(Point(2.0, 5.0), Point(12.0, 5.0))
        assert blocked.gain_db == pytest.approx(clear.gain_db - 13.0)

    def test_coincident_endpoints_rejected(self, simple_room):
        tracer = RayTracer(simple_room)
        with pytest.raises(ValueError):
            tracer.direct_path(Point(2.0, 5.0), Point(2.0, 5.0))

    def test_reflection_path_lengths_follow_image_geometry(self, simple_room):
        tracer = RayTracer(simple_room)
        transmitter = Point(4.0, 3.0)
        receiver = Point(16.0, 7.0)
        for path in tracer.reflected_paths(transmitter, receiver):
            assert len(path.points) == 3
            leg_sum = (path.points[0].distance_to(path.points[1])
                       + path.points[1].distance_to(path.points[2]))
            assert path.length_m == pytest.approx(leg_sum)
