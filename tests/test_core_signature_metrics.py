"""Tests for AoA signatures and their similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aoa.spectrum import Pseudospectrum
from repro.core.metrics import (
    cosine_similarity,
    direct_path_distance_deg,
    peak_set_distance_deg,
    signature_similarity,
    spectral_correlation,
)
from repro.core.signature import AoASignature, certified_signature


def _gaussian_spectrum(peaks, widths=None, amplitudes=None, grid=None):
    """Build a synthetic pseudospectrum with Gaussian peaks at the given angles."""
    if grid is None:
        grid = np.arange(0.0, 360.0, 1.0)
    if widths is None:
        widths = [4.0] * len(peaks)
    if amplitudes is None:
        amplitudes = [1.0] + [0.4] * (len(peaks) - 1)
    values = np.full(grid.shape, 1e-4)
    for peak, width, amplitude in zip(peaks, widths, amplitudes):
        distance = np.minimum(np.abs(grid - peak), 360.0 - np.abs(grid - peak))
        values = values + amplitude * np.exp(-0.5 * (distance / width) ** 2)
    return Pseudospectrum(grid, values)


def _signature(peaks, **kwargs):
    return AoASignature.from_pseudospectrum(_gaussian_spectrum(peaks, **kwargs))


class TestAoASignature:
    def test_signature_extracts_peaks_strongest_first(self):
        signature = _signature([100.0, 250.0])
        assert signature.direct_path_bearing_deg == pytest.approx(100.0, abs=1.0)
        assert signature.multipath_bearings_deg[0] == pytest.approx(250.0, abs=1.0)

    def test_signature_is_normalised(self):
        signature = _signature([40.0])
        assert np.max(signature.values) == pytest.approx(1.0)

    def test_merged_signature_blends_spectra(self):
        a = _signature([100.0])
        b = _signature([110.0])
        merged = a.merged_with(b, weight=0.5)
        assert 100.0 <= merged.direct_path_bearing_deg <= 110.0
        assert merged.num_packets == a.num_packets + b.num_packets

    def test_merge_weight_validation(self):
        a = _signature([100.0])
        with pytest.raises(ValueError):
            a.merged_with(a, weight=1.5)

    def test_invalid_num_packets(self):
        with pytest.raises(ValueError):
            AoASignature(spectrum=_gaussian_spectrum([10.0]), num_packets=0)


class TestCertifiedSignature:
    def test_folds_each_observation_in_with_its_running_mean_weight(self):
        observations = [_signature([bearing]) for bearing in (100.0, 104.0, 98.0)]
        expected = observations[0]
        for count, observation in enumerate(observations[1:], start=1):
            expected = expected.merged_with(observation, weight=1.0 / (count + 1))
        certified = certified_signature(observations)
        assert np.array_equal(certified.values, expected.values)
        assert certified.num_packets == 3

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            certified_signature([])


class TestCosineSimilarity:
    def test_identical_vectors_score_one(self):
        vector = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_orthogonal_vectors_score_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_scores_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=20))
    @settings(max_examples=50)
    def test_similarity_bounded_in_unit_interval(self, values):
        a = np.asarray(values)
        b = a[::-1].copy()
        score = cosine_similarity(a, b)
        assert 0.0 <= score <= 1.0


class TestSignatureMetrics:
    def test_same_location_signatures_are_similar(self):
        a = _signature([100.0, 250.0])
        b = _signature([101.0, 252.0])
        assert spectral_correlation(a, b) > 0.9
        assert signature_similarity(a, b) > 0.8

    def test_different_location_signatures_are_dissimilar(self):
        a = _signature([100.0, 250.0])
        b = _signature([210.0, 20.0])
        assert signature_similarity(a, b) < 0.3

    def test_direct_path_disagreement_suppresses_similarity(self):
        # Same overall shape, shifted: spectral correlation of the dB curves can
        # stay moderate, but the direct-path factor must pull the score down.
        a = _signature([100.0])
        b = _signature([140.0])
        assert signature_similarity(a, b) < 0.2

    def test_direct_path_distance(self):
        a = _signature([100.0])
        b = _signature([130.0])
        assert direct_path_distance_deg(a, b) == pytest.approx(30.0, abs=1.5)

    def test_peak_set_distance_handles_different_sizes(self):
        assert peak_set_distance_deg([10.0, 200.0], [12.0]) == pytest.approx(2.0)
        assert peak_set_distance_deg([], [12.0]) == 180.0

    def test_peak_set_distance_greedy_matching(self):
        distance = peak_set_distance_deg([10.0, 100.0], [12.0, 103.0])
        assert distance == pytest.approx(2.5)

    def test_similarity_is_symmetricish_for_same_grid(self):
        a = _signature([100.0, 250.0])
        b = _signature([105.0, 255.0])
        forward = signature_similarity(a, b)
        backward = signature_similarity(b, a)
        assert forward == pytest.approx(backward, abs=0.05)

    def test_invalid_scale_rejected(self):
        a = _signature([100.0])
        with pytest.raises(ValueError):
            signature_similarity(a, a, direct_path_scale_deg=0.0)
