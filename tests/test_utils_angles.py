"""Tests for angle arithmetic, including property-based invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.angles import (
    angular_difference,
    circular_mean,
    circular_std,
    circular_to_linear_bearing,
    confidence_interval_halfwidth,
    normalize_angle_deg,
    signed_angular_difference,
    wrap_to_pi,
)

finite_angles = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False)


class TestNormalization:
    def test_normalize_wraps_into_0_360(self):
        assert normalize_angle_deg(370.0) == pytest.approx(10.0)
        assert normalize_angle_deg(-10.0) == pytest.approx(350.0)
        assert normalize_angle_deg(720.0) == pytest.approx(0.0)

    @given(finite_angles)
    def test_normalize_is_idempotent(self, angle):
        once = float(normalize_angle_deg(angle))
        twice = float(normalize_angle_deg(once))
        assert once == pytest.approx(twice)
        assert 0.0 <= once < 360.0

    @given(finite_angles)
    def test_wrap_to_pi_stays_in_range(self, angle):
        wrapped = float(wrap_to_pi(angle))
        assert -math.pi < wrapped <= math.pi + 1e-12


class TestAngularDifference:
    def test_difference_across_the_seam(self):
        assert angular_difference(359.0, 1.0) == pytest.approx(2.0)
        assert angular_difference(1.0, 359.0) == pytest.approx(2.0)

    def test_difference_is_at_most_180(self):
        assert angular_difference(0.0, 180.0) == pytest.approx(180.0)
        assert angular_difference(0.0, 190.0) == pytest.approx(170.0)

    @given(finite_angles, finite_angles)
    def test_difference_is_symmetric_and_bounded(self, a, b):
        forward = float(angular_difference(a, b))
        backward = float(angular_difference(b, a))
        assert forward == pytest.approx(backward, abs=1e-6)
        assert 0.0 <= forward <= 180.0 + 1e-9

    @given(finite_angles)
    def test_difference_with_self_is_zero(self, a):
        assert float(angular_difference(a, a)) == pytest.approx(0.0, abs=1e-9)

    @given(finite_angles, finite_angles)
    def test_signed_difference_magnitude_matches_unsigned(self, a, b):
        signed = float(signed_angular_difference(a, b))
        unsigned = float(angular_difference(a, b))
        assert abs(signed) == pytest.approx(unsigned, abs=1e-6)


class TestCircularStatistics:
    def test_mean_of_angles_straddling_the_seam(self):
        assert circular_mean([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_mean_of_identical_angles(self):
        assert circular_mean([42.0, 42.0, 42.0]) == pytest.approx(42.0)

    def test_mean_rejects_empty_input(self):
        with pytest.raises(ValueError):
            circular_mean([])

    def test_mean_rejects_balanced_angles(self):
        with pytest.raises(ValueError):
            circular_mean([0.0, 180.0])

    def test_std_of_identical_angles_is_zero(self):
        assert circular_std([10.0] * 5) == pytest.approx(0.0, abs=1e-6)

    def test_std_grows_with_spread(self):
        tight = circular_std([10.0, 12.0, 8.0])
        loose = circular_std([10.0, 40.0, 340.0])
        assert loose > tight

    @given(st.lists(st.floats(min_value=0.0, max_value=359.0), min_size=2, max_size=20),
           st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=50)
    def test_mean_is_rotation_equivariant(self, angles, shift):
        spread = max(angles) - min(angles)
        if spread > 90.0:  # keep away from the balanced/degenerate regime
            return
        base = circular_mean(angles)
        shifted = circular_mean([a + shift for a in angles])
        assert float(angular_difference(shifted, base + shift)) == pytest.approx(0.0, abs=1e-6)


class TestConfidenceInterval:
    def test_single_sample_has_zero_halfwidth(self):
        assert confidence_interval_halfwidth([42.0]) == 0.0

    def test_halfwidth_shrinks_with_more_samples(self):
        few = confidence_interval_halfwidth([10.0, 14.0, 6.0])
        many = confidence_interval_halfwidth([10.0, 14.0, 6.0] * 10)
        assert many < few

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            confidence_interval_halfwidth([1.0, 2.0], confidence=1.5)


class TestBearings:
    def test_circular_to_linear_folds_to_half_open_interval(self):
        assert float(circular_to_linear_bearing(270.0)) == pytest.approx(-90.0)
        assert float(circular_to_linear_bearing(180.0)) == pytest.approx(180.0)
