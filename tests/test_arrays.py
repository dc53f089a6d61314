"""Tests for antenna array geometries, steering vectors, and subarrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.geometry import (
    ArbitraryArray,
    OctagonalArray,
    UniformCircularArray,
    UniformLinearArray,
)
from repro.arrays.steering import steering_matrix, steering_vector
from repro.arrays.subarray import subarray, subarray_samples
from repro.constants import wavelength

angles = st.floats(min_value=-360.0, max_value=720.0, allow_nan=False, allow_infinity=False)


class TestArrayGeometries:
    def test_default_ula_uses_half_wavelength_spacing(self):
        ula = UniformLinearArray(num_elements=8)
        assert ula.spacing == pytest.approx(wavelength() / 2.0)
        assert ula.num_elements == 8
        assert ula.ambiguous  # linear arrays cannot tell front from back

    def test_octagon_matches_the_prototype_dimensions(self):
        octagon = OctagonalArray()
        assert octagon.num_elements == 8
        assert octagon.side_length == pytest.approx(0.047)
        # Adjacent elements are one side length apart.
        positions = octagon.element_positions
        adjacent = np.linalg.norm(positions[1] - positions[0])
        assert adjacent == pytest.approx(0.047, abs=1e-6)
        assert not octagon.ambiguous

    def test_circular_array_elements_lie_on_the_circle(self):
        uca = UniformCircularArray(num_elements=6, radius_m=0.1)
        radii = np.linalg.norm(uca.element_positions, axis=1)
        np.testing.assert_allclose(radii, 0.1, atol=1e-12)

    def test_angle_grids_match_reporting_conventions(self):
        ula = UniformLinearArray(num_elements=4)
        octagon = OctagonalArray()
        assert ula.angle_grid()[0] == pytest.approx(-90.0)
        assert ula.angle_grid()[-1] == pytest.approx(90.0)
        assert octagon.angle_grid()[0] == pytest.approx(0.0)
        assert octagon.angle_grid()[-1] == pytest.approx(359.0)

    def test_invalid_constructions_rejected(self):
        with pytest.raises(ValueError):
            UniformLinearArray(num_elements=1)
        with pytest.raises(ValueError):
            UniformCircularArray(num_elements=2)
        with pytest.raises(ValueError):
            ArbitraryArray(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            UniformLinearArray(num_elements=4, spacing_m=-0.01)

    def test_rotated_array_preserves_aperture(self):
        octagon = OctagonalArray()
        rotated = octagon.rotated(37.0)
        assert rotated.aperture == pytest.approx(octagon.aperture)


class TestSteeringVectors:
    @given(angles)
    @settings(max_examples=50)
    def test_steering_vector_entries_have_unit_magnitude(self, angle):
        octagon = OctagonalArray()
        response = octagon.steering_vector(angle)
        np.testing.assert_allclose(np.abs(response), 1.0, atol=1e-12)

    def test_ula_broadside_signal_arrives_in_phase(self):
        ula = UniformLinearArray(num_elements=8)
        response = ula.steering_vector(0.0)
        np.testing.assert_allclose(response, np.ones(8), atol=1e-12)

    def test_ula_phase_progression_matches_figure_1(self):
        # At bearing theta the inter-element phase step is 2*pi*d/lambda*sin(theta).
        ula = UniformLinearArray(num_elements=4)
        theta = 30.0
        response = ula.steering_vector(theta)
        step = np.angle(response[1] * np.conj(response[0]))
        expected = -2.0 * np.pi * ula.spacing / ula.wavelength * np.sin(np.radians(theta))
        assert step == pytest.approx(expected, abs=1e-9)

    def test_steering_matrix_columns_match_individual_vectors(self):
        octagon = OctagonalArray()
        angles_deg = [0.0, 45.0, 110.0, 300.0]
        matrix = octagon.steering_matrix(angles_deg)
        for column, angle in enumerate(angles_deg):
            np.testing.assert_allclose(matrix[:, column], octagon.steering_vector(angle),
                                       atol=1e-12)

    def test_free_function_matches_generic_array_method(self):
        octagon = OctagonalArray()
        angle = 73.0
        expected = octagon.steering_vector(angle)
        actual = steering_vector(octagon.element_positions, angle, octagon.wavelength)
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_ula_convention_is_the_folded_position_convention(self):
        # ULA broadside angle theta corresponds to math azimuth 90 - theta.
        ula = UniformLinearArray(num_elements=8)
        theta = 25.0
        broadside = ula.steering_vector(theta)
        positional = steering_vector(ula.element_positions, 90.0 - theta, ula.wavelength)
        # They may differ by a common phase factor; compare relative phases.
        relative = broadside * np.conj(broadside[0])
        positional_relative = positional * np.conj(positional[0])
        np.testing.assert_allclose(relative, positional_relative, atol=1e-9)

    def test_steering_matrix_free_function_shapes(self):
        positions = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
        matrix = steering_matrix(positions, [0.0, 90.0, 180.0], 0.12)
        assert matrix.shape == (3, 3)

    def test_invalid_wavelength_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(np.zeros((2, 2)), 0.0, 0.0)


class TestSubarrays:
    def test_subarray_by_count_takes_leading_elements(self):
        ula = UniformLinearArray(num_elements=8)
        sub = subarray(ula, num_elements=4)
        assert sub.num_elements == 4
        np.testing.assert_allclose(sub.element_positions, ula.element_positions[:4])

    def test_subarray_by_indices(self):
        octagon = OctagonalArray()
        sub = subarray(octagon, element_indices=[0, 2, 4, 6])
        assert sub.num_elements == 4

    def test_subarray_argument_validation(self):
        octagon = OctagonalArray()
        with pytest.raises(ValueError):
            subarray(octagon)
        with pytest.raises(ValueError):
            subarray(octagon, num_elements=1)
        with pytest.raises(ValueError):
            subarray(octagon, num_elements=9)
        with pytest.raises(IndexError):
            subarray(octagon, element_indices=[0, 99])
        with pytest.raises(ValueError):
            subarray(octagon, element_indices=[0, 0])

    def test_subarray_samples_row_selection(self):
        samples = np.arange(16, dtype=complex).reshape(8, 2)
        np.testing.assert_array_equal(subarray_samples(samples, num_elements=2), samples[:2])
        np.testing.assert_array_equal(
            subarray_samples(samples, element_indices=[1, 3]), samples[[1, 3]])
        with pytest.raises(ValueError):
            subarray_samples(samples, num_elements=20)
