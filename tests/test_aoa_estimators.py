"""Tests for the AoA estimators: MUSIC, baselines, and the estimator itself.

MUSIC and the Bartlett and Capon baselines have one implementation, the
batched engine; these tests drive it through ``process_samples`` on synthetic
plane waves.
"""

import numpy as np
import pytest

from repro.aoa.covariance import correlation_matrix
from repro.aoa.esprit import esprit_bearings
from repro.aoa.estimator import AoAEstimator, EstimatorConfig
from repro.aoa.phase_interferometry import two_antenna_bearing
from repro.aoa.root_music import root_music_bearings
from repro.arrays.geometry import OctagonalArray, UniformCircularArray, UniformLinearArray
from repro.hardware.capture import Capture
from repro.utils.angles import angular_difference


def _plane_wave_samples(array, angles_deg, powers_db=None, num_samples=500,
                        snr_db=30.0, rng=0):
    """Synthetic samples from independent sources at the given angles."""
    generator = np.random.default_rng(rng)
    angles_deg = list(angles_deg)
    if powers_db is None:
        powers_db = [0.0] * len(angles_deg)
    steering = array.steering_matrix(angles_deg)
    amplitudes = np.sqrt(10 ** (np.asarray(powers_db) / 10.0))
    signals = (generator.normal(size=(len(angles_deg), num_samples))
               + 1j * generator.normal(size=(len(angles_deg), num_samples))) / np.sqrt(2)
    clean = steering @ (amplitudes[:, None] * signals)
    noise_power = 10 ** (-snr_db / 10.0)
    noise = np.sqrt(noise_power / 2) * (generator.normal(size=clean.shape)
                                        + 1j * generator.normal(size=clean.shape))
    return clean + noise


def _estimate(array, samples, **config):
    """The engine's estimate of already-calibrated ``samples``."""
    return AoAEstimator(array, EstimatorConfig(**config)).process_samples(samples)


class TestMusic:
    def test_single_source_peak_at_true_angle_ula(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [25.0])
        estimate = _estimate(array, samples, num_sources=1)
        assert abs(estimate.bearing_deg - 25.0) <= 1.0

    def test_single_source_peak_at_true_angle_circular(self):
        array = OctagonalArray()
        samples = _plane_wave_samples(array, [217.0])
        estimate = _estimate(array, samples, num_sources=1)
        assert float(angular_difference(estimate.bearing_deg, 217.0)) <= 1.0

    def test_resolves_two_sources(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-40.0, 30.0])
        estimate = _estimate(array, samples, num_sources=2)
        peaks = sorted(estimate.peak_bearings_deg[:2])
        assert abs(peaks[0] - (-40.0)) <= 2.0
        assert abs(peaks[1] - 30.0) <= 2.0

    def test_eight_antennas_resolve_closer_sources_than_four(self):
        # The Figure 7 story: resolution improves with the number of antennas.
        close_pair = [10.0, 28.0]
        small = UniformLinearArray(num_elements=4)
        large = UniformLinearArray(num_elements=8)
        small_peaks = _estimate(small, _plane_wave_samples(small, close_pair, rng=3),
                                num_sources=2).peak_bearings_deg[:2]
        large_peaks = _estimate(large, _plane_wave_samples(large, close_pair, rng=3),
                                num_sources=2).peak_bearings_deg[:2]
        assert len(large_peaks) >= len(small_peaks)
        # And the 8-antenna peaks are closer to the truth.
        best_large = min(abs(large_peaks[0] - a) for a in close_pair)
        assert best_large <= 2.0

    def test_smoothed_matrix_scans_with_a_matching_subarray(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [20.0])
        estimate = _estimate(array, samples, num_sources=1, smoothing_subarray=5)
        # The smoothed 5x5 matrix is scanned with a 5-element ULA on the
        # broadside [-90, 90] grid.
        assert estimate.pseudospectrum.metadata["num_antennas"] == 5
        assert estimate.pseudospectrum.angles_deg[0] == -90.0
        assert abs(estimate.bearing_deg - 20.0) <= 2.0

    def test_wrong_shapes_rejected(self):
        array = UniformLinearArray(num_elements=4)
        with pytest.raises(ValueError, match="array has 4 elements"):
            _estimate(array, np.ones((6, 64), dtype=complex))
        with pytest.raises(ValueError, match="exceeds the number of antennas"):
            _estimate(array, np.ones((4, 64), dtype=complex), smoothing_subarray=5)


class TestBeamformerBaselines:
    def test_bartlett_and_capon_peak_near_the_true_angle(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-15.0])
        assert abs(_estimate(array, samples, method="bartlett").bearing_deg + 15.0) <= 2.0
        assert abs(_estimate(array, samples, method="capon").bearing_deg + 15.0) <= 2.0

    def test_music_resolves_what_bartlett_cannot(self):
        # Two sources a beamwidth apart: classic super-resolution comparison.
        array = UniformLinearArray(num_elements=8)
        pair = [0.0, 12.0]
        samples = _plane_wave_samples(array, pair, rng=5, snr_db=35.0)
        bartlett_peaks = _estimate(array, samples, method="bartlett",
                                   max_sources=2).peak_bearings_deg

        def resolved(peaks):
            return all(any(abs(peak - source) <= 2.0 for peak in peaks)
                       for source in pair)

        music_peaks = _estimate(array, samples, num_sources=2).peak_bearings_deg[:2]
        assert resolved(music_peaks)
        assert not resolved(bartlett_peaks)

    @pytest.mark.parametrize("method", ["bartlett", "capon"])
    def test_shape_validation(self, method):
        array = UniformLinearArray(num_elements=4)
        with pytest.raises(ValueError, match="array has 4 elements"):
            _estimate(array, np.ones((6, 64), dtype=complex), method=method)
        with pytest.raises(ValueError, match="does not support spatially smoothed"):
            _estimate(array, _plane_wave_samples(array, [10.0]), method=method,
                      smoothing_subarray=3)


class TestSearchFreeEstimators:
    def test_root_music_matches_the_true_angles(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-35.0, 20.0])
        matrix = correlation_matrix(samples)
        # Forward-backward averaging (J R* J flips both axes) on the ULA.
        matrix = 0.5 * (matrix + matrix[::-1, ::-1].conj())
        bearings = sorted(root_music_bearings(matrix, array, 2))
        assert abs(bearings[0] + 35.0) <= 2.0
        assert abs(bearings[1] - 20.0) <= 2.0

    def test_esprit_matches_the_true_angles(self):
        array = UniformLinearArray(num_elements=8)
        samples = _plane_wave_samples(array, [-35.0, 20.0])
        matrix = correlation_matrix(samples)
        bearings = sorted(esprit_bearings(matrix, array, 2))
        assert abs(bearings[0] + 35.0) <= 2.0
        assert abs(bearings[1] - 20.0) <= 2.0

    def test_search_free_estimators_require_a_ula(self):
        array = UniformCircularArray(num_elements=8)
        matrix = np.eye(8, dtype=complex)
        with pytest.raises(TypeError):
            root_music_bearings(matrix, array, 1)
        with pytest.raises(TypeError):
            esprit_bearings(matrix, array, 1)


class TestTwoAntennaMethod:
    def test_equation_1_recovers_a_single_path_bearing(self):
        array = UniformLinearArray(num_elements=2)
        samples = _plane_wave_samples(array, [18.0], snr_db=40.0, rng=6)
        bearing = two_antenna_bearing(samples, array.spacing, array.wavelength)
        assert abs(bearing - 18.0) <= 2.0

    def test_equation_1_breaks_down_under_multipath(self):
        # The paper's point: with a comparably strong second path, the
        # two-antenna method is badly biased because the two paths' signals sum
        # in the I-Q plane before the phase comparison.
        array = UniformLinearArray(num_elements=2)
        samples = _plane_wave_samples(array, [18.0, -60.0], powers_db=[0.0, -1.0],
                                      snr_db=40.0, rng=7)
        bearing = two_antenna_bearing(samples, array.spacing, array.wavelength)
        assert abs(bearing - 18.0) > 5.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            two_antenna_bearing(np.ones((3, 10), dtype=complex), 0.06, 0.12)
        with pytest.raises(ValueError):
            two_antenna_bearing(np.zeros((2, 10), dtype=complex), 0.06, 0.12)


class TestEstimatorFacade:
    def test_requires_calibrated_captures_by_default(self, octagon_array):
        estimator = AoAEstimator(octagon_array, EstimatorConfig())
        raw = Capture(samples=np.ones((8, 64), dtype=complex))
        with pytest.raises(ValueError):
            estimator.process(raw)

    def test_accepts_precalibrated_samples(self, octagon_array):
        samples = _plane_wave_samples(octagon_array, [75.0])
        estimator = AoAEstimator(octagon_array, EstimatorConfig())
        estimate = estimator.process_samples(samples)
        assert float(angular_difference(estimate.bearing_deg, 75.0)) <= 2.0
        assert estimate.pseudospectrum.metadata["estimator"] == "music"

    def test_complex64_samples_are_analysed_in_float64(self, octagon_array):
        # One arithmetic precision: narrow samples are widened exactly, so
        # they give the estimate of their complex128 values.
        samples = _plane_wave_samples(octagon_array, [75.0]).astype(np.complex64)
        estimator = AoAEstimator(octagon_array, EstimatorConfig())
        narrow = estimator.process_samples(samples)
        wide = estimator.process_samples(samples.astype(complex))
        assert narrow.pseudospectrum.values.dtype == np.float64
        assert narrow.bearing_deg == wide.bearing_deg
        assert np.array_equal(narrow.pseudospectrum.values,
                              wide.pseudospectrum.values)

    def test_capture_antenna_count_must_match_the_array(self, octagon_array):
        estimator = AoAEstimator(octagon_array, EstimatorConfig())
        capture = Capture(samples=np.ones((4, 64), dtype=complex), calibrated=True)
        with pytest.raises(ValueError):
            estimator.process(capture)

    def test_fixed_source_count_is_respected(self, octagon_array):
        samples = _plane_wave_samples(octagon_array, [75.0, 200.0])
        estimator = AoAEstimator(octagon_array, EstimatorConfig(num_sources=2))
        estimate = estimator.process_samples(samples)
        assert estimate.num_sources == 2

    def test_spatial_smoothing_requires_a_linear_array(self, octagon_array):
        estimator = AoAEstimator(octagon_array, EstimatorConfig(smoothing_subarray=4))
        samples = _plane_wave_samples(octagon_array, [75.0])
        with pytest.raises(ValueError):
            estimator.process_samples(samples)

    def test_smoothing_on_a_linear_array_works(self):
        array = UniformLinearArray(num_elements=8)
        estimator = AoAEstimator(array, EstimatorConfig(smoothing_subarray=5))
        samples = _plane_wave_samples(array, [35.0])
        estimate = estimator.process_samples(samples)
        assert abs(estimate.bearing_deg - 35.0) <= 3.0

    def test_alternative_methods_run(self, octagon_array):
        samples = _plane_wave_samples(octagon_array, [120.0])
        for method in ("bartlett", "capon"):
            estimator = AoAEstimator(octagon_array, EstimatorConfig(method=method))
            estimate = estimator.process_samples(samples)
            assert float(angular_difference(estimate.bearing_deg, 120.0)) <= 3.0

    def test_packet_detection_path(self, octagon_array):
        from repro.phy.packet import make_packet_waveform

        packet = make_packet_waveform(num_payload_symbols=5, rng=8)
        steering = octagon_array.steering_vector(300.0)
        signals = np.outer(steering, packet.waveform)
        buffer = np.zeros((8, 4000), dtype=complex)
        buffer[:, 700:700 + packet.num_samples] = signals
        buffer += 1e-4 * (np.random.default_rng(9).normal(size=buffer.shape)
                          + 1j * np.random.default_rng(10).normal(size=buffer.shape))
        estimator = AoAEstimator(octagon_array, EstimatorConfig(detect_packet=True))
        estimate = estimator.process(Capture(samples=buffer, calibrated=True))
        assert estimate.packet_start is not None
        assert abs(estimate.packet_start - 700) <= 40
        assert float(angular_difference(estimate.bearing_deg, 300.0)) <= 3.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="fft")
        with pytest.raises(ValueError):
            EstimatorConfig(resolution_deg=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(num_sources=0)
        with pytest.raises(ValueError):
            EstimatorConfig(smoothing_subarray=1)
