"""The per-packet policy step does each comparison once, with unchanged results.

``SecureAngleAP.check_packet`` scores a packet against the certified
signature once and hands that score to the tracker; the signature blend and
the spectral correlation skip resampling a spectrum onto its own grid; and
spectra derived from validated ones skip re-validation.  These tests pin
that the shortcuts are exact and that public construction still validates.
"""

import numpy as np
import pytest

from repro.aoa.spectrum import Pseudospectrum
from repro.arrays.geometry import OctagonalArray
from repro.core import metrics, spoofing, tracker
from repro.core.access_point import SecureAngleAP
from repro.core.database import SignatureDatabase
from repro.core.metrics import cosine_similarity, spectral_correlation
from repro.core.signature import AoASignature
from repro.core.spoofing import SpoofingVerdict
from repro.core.tracker import SignatureTracker, TrackerConfig
from repro.geometry.point import Point
from repro.mac.address import MacAddress

VICTIM = MacAddress("02:00:00:00:00:aa")
CIRCULAR_GRID = np.arange(0.0, 360.0, 1.0)
ULA_GRID = np.arange(-90.0, 90.0 + 0.5, 1.0)


def _spectrum(grid, peak_deg, secondary_deg, width_deg=4.0):
    """Two Gaussian lobes (circular distance on a full-circle grid)."""
    def lobe(center, width):
        distance = np.abs(grid - center)
        if grid[-1] - grid[0] + (grid[1] - grid[0]) >= 360.0:
            distance = np.minimum(distance, 360.0 - distance)
        return np.exp(-0.5 * (distance / width) ** 2)

    values = lobe(peak_deg, width_deg) + 0.4 * lobe(secondary_deg, 1.5 * width_deg) + 1e-4
    return Pseudospectrum(grid, values, {"estimator": "test"})


def _signature(grid, peak_deg, secondary_deg, captured_at_s=0.0):
    return AoASignature.from_pseudospectrum(_spectrum(grid, peak_deg, secondary_deg),
                                            captured_at_s=captured_at_s)


def _explicit_merge(a, b, weight):
    """``merged_with`` as written with an unconditional resample and checks."""
    other = b.spectrum.resampled(a.spectrum.angles_deg)
    blended = Pseudospectrum(a.spectrum.angles_deg.copy(),
                             (1.0 - weight) * a.spectrum.values + weight * other.values,
                             dict(a.spectrum.metadata))
    return AoASignature.from_pseudospectrum(
        blended, captured_at_s=max(a.captured_at_s, b.captured_at_s),
        num_packets=a.num_packets + b.num_packets)


def _explicit_correlation(a, b):
    """``spectral_correlation`` with an unconditional resample."""
    b_db = b.spectrum.resampled(a.spectrum.angles_deg).to_db(floor_db=-30.0)
    return cosine_similarity(a.spectrum.to_db(floor_db=-30.0) + 30.0, b_db + 30.0)


def _assert_same_signature(actual, expected):
    assert actual.spectrum.angles_deg.tobytes() == expected.spectrum.angles_deg.tobytes()
    assert actual.spectrum.values.tobytes() == expected.spectrum.values.tobytes()
    assert actual.spectrum.metadata == expected.spectrum.metadata
    assert actual.peaks_deg == expected.peaks_deg
    assert actual.num_packets == expected.num_packets
    assert actual.captured_at_s == expected.captured_at_s


@pytest.fixture()
def counted_similarity(monkeypatch):
    """Count every ``signature_similarity`` call the detector or tracker makes."""
    calls = []
    original = metrics.signature_similarity

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spoofing, "signature_similarity", counting)
    monkeypatch.setattr(tracker, "signature_similarity", counting)
    return calls


def _trained_ap():
    ap = SecureAngleAP(name="ap", position=Point(0.0, 0.0), array=OctagonalArray())
    ap.database.train(VICTIM, _signature(CIRCULAR_GRID, 100.0, 250.0), timestamp_s=0.0)
    return ap


class TestOneComparisonPerPacket:
    def test_matching_packet_is_scored_once(self, counted_similarity):
        ap = _trained_ap()
        check = ap.check_packet(VICTIM, _signature(CIRCULAR_GRID, 102.0, 251.0), 5.0)
        assert check.verdict is SpoofingVerdict.MATCH
        assert ap.database.require(VICTIM).updated_at_s == 5.0  # the tracker blended it
        assert len(counted_similarity) == 1

    def test_observe_without_a_score_computes_it(self, counted_similarity):
        ap = _trained_ap()
        assert ap.tracker.observe(VICTIM, _signature(CIRCULAR_GRID, 102.0, 251.0), 5.0)
        assert len(counted_similarity) == 1

    def test_reused_score_leaves_the_tracked_signature_unchanged(self):
        reused, recomputed = _trained_ap(), _trained_ap()
        for index, peak in enumerate((101.0, 103.0, 99.5, 104.0)):
            observation = _signature(CIRCULAR_GRID, peak, 250.0, captured_at_s=index + 1.0)
            reused.check_packet(VICTIM, observation, index + 1.0)
            check = recomputed.detector.check(VICTIM, observation)
            assert check.verdict is SpoofingVerdict.MATCH
            recomputed.tracker.observe(VICTIM, observation, index + 1.0)
        _assert_same_signature(reused.database.require(VICTIM).signature,
                               recomputed.database.require(VICTIM).signature)

    def test_detector_similarity_matches_the_public_metric(self):
        ap = _trained_ap()
        observation = _signature(CIRCULAR_GRID, 104.0, 248.0)
        check = ap.detector.check(VICTIM, observation)
        stored = ap.database.require(VICTIM).signature
        assert check.similarity == metrics.signature_similarity(stored, observation)
        assert check.direct_path_error_deg == metrics.direct_path_distance_deg(
            stored, observation)

    def test_low_similarity_leaves_the_record_untouched(self):
        database = SignatureDatabase(keep_history=4)
        stored = _signature(CIRCULAR_GRID, 100.0, 250.0)
        database.train(VICTIM, stored, timestamp_s=0.0)
        signature_tracker = SignatureTracker(database, TrackerConfig())
        # The observation itself matches perfectly; the given score decides.
        below = TrackerConfig().min_similarity_to_update - 0.01
        assert not signature_tracker.observe(VICTIM, stored, 5.0, similarity=below)
        record = database.require(VICTIM)
        assert record.signature is stored
        assert (record.updated_at_s, record.packets_seen, record.history) == (0.0, 1, [])


@pytest.mark.parametrize("grid", [CIRCULAR_GRID, ULA_GRID], ids=["circular", "ula"])
class TestSameGridFastPath:
    def test_on_grid_returns_the_spectrum_itself(self, grid):
        spectrum = _spectrum(grid, 20.0, 60.0)
        assert spectrum.on_grid(grid.copy()) is spectrum
        assert spectrum.on_grid(grid).values.tobytes() == spectrum.resampled(grid).values.tobytes()

    @pytest.mark.parametrize("weight", [0.0, 0.2, 0.5, 1.0])
    def test_merge_is_byte_equal_to_explicit_resample(self, grid, weight):
        a = _signature(grid, 20.0, 60.0, captured_at_s=1.0)
        b = _signature(grid, 23.0, 55.0, captured_at_s=2.0)
        _assert_same_signature(a.merged_with(b, weight=weight), _explicit_merge(a, b, weight))

    def test_correlation_is_byte_equal_to_explicit_resample(self, grid):
        a = _signature(grid, 20.0, 60.0)
        b = _signature(grid, 23.0, -40.0)
        assert spectral_correlation(a, b) == _explicit_correlation(a, b)


class TestOtherGridsStillInterpolate:
    FINE_GRID = np.arange(0.0, 360.0, 0.5)

    def test_half_degree_onto_one_degree_matches_resampled(self):
        fine = _spectrum(self.FINE_GRID, 100.3, 250.0)
        moved = fine.on_grid(CIRCULAR_GRID)
        assert moved is not fine
        assert moved.values.tobytes() == fine.resampled(CIRCULAR_GRID).values.tobytes()

    def test_mismatched_merge_and_correlation_match_explicit_resample(self):
        coarse = _signature(CIRCULAR_GRID, 100.0, 250.0, captured_at_s=1.0)
        fine = _signature(self.FINE_GRID, 101.5, 252.5, captured_at_s=2.0)
        _assert_same_signature(coarse.merged_with(fine, weight=0.3),
                               _explicit_merge(coarse, fine, 0.3))
        assert spectral_correlation(coarse, fine) == _explicit_correlation(coarse, fine)
        assert spectral_correlation(fine, coarse) == _explicit_correlation(fine, coarse)

    def test_wrapping_grid_not_starting_at_zero_interpolates(self):
        grid = np.arange(-180.0, 180.0, 1.0)
        spectrum = _spectrum(grid, 30.0, -100.0)
        assert spectrum.wraps_around
        moved = spectrum.on_grid(grid)
        assert moved is not spectrum
        assert moved.values.tobytes() == spectrum.resampled(grid).values.tobytes()


class TestValidationKept:
    @pytest.mark.parametrize("angles, values", [
        ([0.0, 1.0], [1.0]),                     # length mismatch
        ([0.0], [1.0]),                          # fewer than two points
        ([1.0, 0.0], [1.0, 1.0]),                # decreasing grid
        ([0.0, 0.0], [1.0, 1.0]),                # repeated angle
        ([0.0, 1.0], [1.0, -1.0]),               # negative value
        ([0.0, 1.0], [1.0, np.nan]),             # not finite
        ([0.0, 1.0], [np.inf, 1.0]),             # not finite
    ])
    def test_invalid_spectra_raise(self, angles, values):
        with pytest.raises(ValueError):
            Pseudospectrum(np.array(angles), np.array(values))

    def test_all_zero_spectrum_cannot_be_normalised(self):
        zero = Pseudospectrum(CIRCULAR_GRID, np.zeros(CIRCULAR_GRID.size))
        with pytest.raises(ValueError, match="all-zero"):
            zero.normalized()
        with pytest.raises(ValueError, match="all-zero"):
            AoASignature(spectrum=zero, peaks_deg=[0.0])

    def test_normalized_is_a_float64_copy_peaking_at_one(self):
        spectrum = _spectrum(CIRCULAR_GRID, 100.0, 250.0)
        normalized = spectrum.normalized()
        assert normalized.values.dtype == np.float64
        assert normalized.values.max() == 1.0
        assert not np.shares_memory(normalized.values, spectrum.values)
        assert not np.shares_memory(normalized.angles_deg, spectrum.angles_deg)
        assert normalized.metadata == spectrum.metadata
        assert normalized.metadata is not spectrum.metadata
