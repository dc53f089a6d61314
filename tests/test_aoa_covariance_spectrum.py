"""Tests for covariance estimation, pseudospectra, peak finding, and source counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.covariance import correlation_matrix, signal_noise_subspaces
from repro.aoa.estimator import EstimatorConfig
from repro.aoa.peaks import find_peaks, find_peaks_batch
from repro.aoa.source_count import estimate_num_sources
from repro.aoa.spectrum import Pseudospectrum
from repro.arrays.geometry import UniformLinearArray


def _plane_wave_samples(array, angles_deg, num_samples=400, snr_db=30.0, rng=None):
    """Synthetic samples: independent complex signals from the given angles plus noise."""
    rng = np.random.default_rng(rng)
    steering = array.steering_matrix(angles_deg)
    signals = (rng.normal(size=(len(angles_deg), num_samples))
               + 1j * rng.normal(size=(len(angles_deg), num_samples))) / np.sqrt(2)
    clean = steering @ signals
    noise_power = 10 ** (-snr_db / 10.0)
    noise = np.sqrt(noise_power / 2) * (rng.normal(size=clean.shape)
                                        + 1j * rng.normal(size=clean.shape))
    return clean + noise


class TestCorrelationMatrix:
    def test_is_hermitian_and_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(4, 100)) + 1j * rng.normal(size=(4, 100))
        matrix = correlation_matrix(samples)
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.all(eigenvalues >= -1e-12)

    def test_diagonal_holds_per_antenna_power(self):
        samples = np.vstack([np.ones(50, dtype=complex), 2.0 * np.ones(50, dtype=complex)])
        matrix = correlation_matrix(samples)
        assert matrix[0, 0].real == pytest.approx(1.0)
        assert matrix[1, 1].real == pytest.approx(4.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.ones(10))

    # The conditioning steps below are the engine's: it is the one place
    # that conditions correlation matrices before the eigendecomposition.
    def test_forward_backward_preserves_hermitian_structure(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(6, 200)) + 1j * rng.normal(size=(6, 200))
        engine = BatchAoAEstimator(UniformLinearArray(num_elements=6),
                                   EstimatorConfig(loading_factor=0.0))
        matrix = engine._conditioned(correlation_matrix(samples), None)
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
        # Persymmetric too: J R* J = R.
        np.testing.assert_allclose(matrix[::-1, ::-1].conj(), matrix, atol=1e-12)

    def test_spatial_smoothing_shrinks_the_matrix(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(8, 200)) + 1j * rng.normal(size=(8, 200))
        array = UniformLinearArray(num_elements=8)
        smoothed = BatchAoAEstimator(array)._smoothed_stack([samples], 5)
        assert smoothed.shape == (1, 5, 5)
        # The mean of the four 5-element subarrays' correlation matrices.
        expected = sum(correlation_matrix(samples[start:start + 5])
                       for start in range(4)) / 4
        np.testing.assert_allclose(smoothed[0], expected, atol=1e-12)
        engine = BatchAoAEstimator(array, EstimatorConfig(smoothing_subarray=9))
        with pytest.raises(ValueError, match="exceeds the number of antennas"):
            engine.process_samples(samples)

    def test_diagonal_loading_improves_conditioning(self):
        matrix = np.diag([1.0, 1e-18, 1e-18]).astype(complex)
        loaded = BatchAoAEstimator._diagonal_loading(matrix, 1e-3)
        assert np.linalg.cond(loaded) < np.linalg.cond(matrix)
        # One matrix and a stack of it load identically.
        assert np.array_equal(
            BatchAoAEstimator._diagonal_loading(matrix[None], 1e-3)[0], loaded)
        with pytest.raises(ValueError):
            EstimatorConfig(loading_factor=-1.0)

    def test_subspace_split_dimensions(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(6, 300)) + 1j * rng.normal(size=(6, 300))
        matrix = correlation_matrix(samples)
        eigenvalues, signal, noise = signal_noise_subspaces(matrix, 2)
        assert signal.shape == (6, 2)
        assert noise.shape == (6, 4)
        assert np.all(np.diff(eigenvalues) <= 1e-9)
        with pytest.raises(ValueError):
            signal_noise_subspaces(matrix, 6)


class TestPseudospectrum:
    def _spectrum(self):
        angles = np.arange(0.0, 360.0, 1.0)
        values = np.exp(-0.5 * ((angles - 100.0) / 5.0) ** 2) + 0.3 * np.exp(
            -0.5 * ((angles - 250.0) / 8.0) ** 2) + 1e-3
        return Pseudospectrum(angles, values)

    def test_peak_bearing_is_the_global_maximum(self):
        assert self._spectrum().peak_bearing() == pytest.approx(100.0)

    def test_peak_bearings_ordered_by_strength(self):
        peaks = self._spectrum().peak_bearings(max_peaks=2)
        assert peaks[0] == pytest.approx(100.0)
        assert peaks[1] == pytest.approx(250.0)

    def test_db_normalisation_puts_the_peak_at_zero(self):
        db = self._spectrum().to_db()
        assert np.max(db) == pytest.approx(0.0)
        assert np.min(db) >= -60.0

    def test_value_interpolation_and_wrapping(self):
        spectrum = self._spectrum()
        assert spectrum.wraps_around
        assert spectrum.value_at(100.5) == pytest.approx(
            (spectrum.value_at(100.0) + spectrum.value_at(101.0)) / 2.0, rel=0.01)
        assert spectrum.value_at(460.5) == pytest.approx(spectrum.value_at(100.5))

    def test_resample_preserves_peak_location(self):
        resampled = self._spectrum().resampled(np.arange(0.0, 360.0, 0.5))
        assert resampled.peak_bearing() == pytest.approx(100.0, abs=0.5)

    def test_normalized_peak_is_one(self):
        assert np.max(self._spectrum().normalized().values) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pseudospectrum(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Pseudospectrum(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Pseudospectrum(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestPeakFinding:
    def test_finds_isolated_peaks(self):
        values = np.zeros(100)
        values[20] = 1.0
        values[60] = 0.5
        peaks = find_peaks(values, min_separation=5)
        assert peaks == [20, 60]

    def test_respects_relative_height_threshold(self):
        values = np.zeros(100)
        values[20] = 1.0
        values[60] = 0.01
        assert find_peaks(values, min_relative_height=0.05) == [20]

    def test_merges_peaks_closer_than_min_separation(self):
        values = np.zeros(100)
        values[40] = 1.0
        values[42] = 0.9
        assert find_peaks(values, min_separation=5) == [40]

    def test_wrapping_connects_the_ends(self):
        values = np.zeros(100)
        values[0] = 1.0
        values[99] = 0.8
        wrapped = find_peaks(values, wrap=True, min_separation=5)
        assert wrapped == [0]

    def test_endpoint_peaks_on_non_wrapping_grids(self):
        values = np.linspace(0.0, 1.0, 50)
        assert 49 in find_peaks(values, wrap=False)

    @pytest.mark.parametrize("kwargs", [{"min_separation": 0},
                                        {"min_relative_height": 1.5},
                                        {"min_relative_height": -0.1}])
    def test_rows_too_short_for_peaks_still_validate_arguments(self, kwargs):
        with pytest.raises(ValueError):
            find_peaks([1.0, 2.0], **kwargs)
        with pytest.raises(ValueError):
            find_peaks_batch(np.ones((3, 2)), **kwargs)

    def test_rows_too_short_for_peaks_have_none(self):
        assert find_peaks([1.0, 2.0]) == []
        assert find_peaks_batch(np.ones((2, 2))) == [[], []]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=200))
    @settings(max_examples=50)
    def test_returned_indices_are_valid_and_sorted_by_value(self, raw):
        values = np.asarray(raw)
        peaks = find_peaks(values)
        assert all(0 <= index < values.size for index in peaks)
        heights = [values[index] for index in peaks]
        assert heights == sorted(heights, reverse=True)


class TestSourceCount:
    def test_counts_two_well_separated_sources(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-30.0, 40.0], rng=0)
        eigenvalues = np.linalg.eigvalsh(correlation_matrix(samples))
        for method in ("aic", "mdl", "gap"):
            assert estimate_num_sources(eigenvalues, samples.shape[1], method=method) == 2

    def test_single_source(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [10.0], rng=1)
        eigenvalues = np.linalg.eigvalsh(correlation_matrix(samples))
        assert estimate_num_sources(eigenvalues, samples.shape[1], method="gap") == 1

    def test_cap_is_respected(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-50.0, -10.0, 30.0, 70.0], rng=2)
        eigenvalues = np.linalg.eigvalsh(correlation_matrix(samples))
        assert estimate_num_sources(eigenvalues, samples.shape[1], max_sources=2) <= 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            estimate_num_sources(np.ones(4), 100, method="magic")
