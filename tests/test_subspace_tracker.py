"""The incremental subspace tracker: accuracy, policy, and streaming wiring.

The tracker is an approximation with memory, so its estimates are compared to
exact per-packet MUSIC at the *accuracy* level (error against ground truth),
not packet-by-packet: temporal smoothing legitimately disagrees with a noisy
single-packet estimate.  The warm-up phase, however, runs the exact
eigendecomposition on the (undecimated) first packet, which pins the two
paths together at stream start.
"""

import numpy as np
import pytest

from repro.aoa import AoAEstimator, BatchAoAEstimator, EstimatorConfig, SubspaceTracker
from repro.aoa.estimator import STREAMING_METHODS
from repro.api import AOA_METHODS
from repro.testbed.scenario import TestbedSimulator as Simulator


def circular_error(a: float, b: float) -> float:
    delta = abs(a - b) % 360.0
    return min(delta, 360.0 - delta)


def plane_wave(array, bearing_deg, num_samples, rng, noise=0.01):
    steering = array.steering_vector(bearing_deg)
    signal = np.exp(1j * 2 * np.pi * rng.random(num_samples))
    samples = steering[:, None] * signal[None, :]
    return samples + noise * (rng.standard_normal(samples.shape)
                              + 1j * rng.standard_normal(samples.shape))


# ------------------------------------------------------------- configuration
class TestConfiguration:
    def test_flag_requires_music(self):
        with pytest.raises(ValueError, match="requires method='music'"):
            EstimatorConfig(method="capon", subspace_tracking=True)

    def test_flag_rejects_smoothing(self):
        with pytest.raises(ValueError, match="spatial smoothing"):
            EstimatorConfig(subspace_tracking=True, smoothing_subarray=4)

    def test_tracker_requires_the_flag(self, linear_array):
        with pytest.raises(ValueError, match="subspace_tracking=True"):
            SubspaceTracker(linear_array, EstimatorConfig())

    def test_tracker_validates_knobs(self, linear_array):
        config = EstimatorConfig(subspace_tracking=True)
        with pytest.raises(ValueError, match="forgetting"):
            SubspaceTracker(linear_array, config, forgetting=1.0)
        with pytest.raises(ValueError, match="warmup_packets"):
            SubspaceTracker(linear_array, config, warmup_packets=0)
        with pytest.raises(ValueError, match="resync_interval"):
            SubspaceTracker(linear_array, config, resync_interval=0)
        with pytest.raises(ValueError, match="max_correlation_samples"):
            SubspaceTracker(linear_array, config, max_correlation_samples=0)

    def test_registry_exposes_streaming_methods(self):
        assert STREAMING_METHODS == ("subspace",)
        method = AOA_METHODS.get("subspace")
        assert AOA_METHODS.get("past") is method
        config = method.estimator_config()
        assert config.subspace_tracking and config.method == "music"


# ------------------------------------------------------------------ accuracy
class TestAccuracy:
    def test_first_packet_matches_exact_music(self, linear_array, rng):
        # Warm-up runs the exact eigendecomposition and the packet is shorter
        # than the decimation cap, so packet 1 must agree bit-for-bit.
        samples = plane_wave(linear_array, 24.0, 512, rng)
        exact = AoAEstimator(linear_array, EstimatorConfig()
                             ).process_samples(samples)
        tracked = AoAEstimator(linear_array,
                               EstimatorConfig(subspace_tracking=True)
                               ).process_samples(samples)
        assert np.array_equal(exact.pseudospectrum.values,
                              tracked.pseudospectrum.values)
        assert exact.bearing_deg == tracked.bearing_deg

    def test_static_stream_matches_exact_accuracy(self, environment,
                                                  octagon_array):
        simulator = Simulator(environment, octagon_array, rng=42)
        captures = simulator.capture_burst_batch(1, 80, inter_packet_gap_s=0.01)
        calibration = simulator.calibration_table()
        truth = simulator.expected_client_bearing(1)

        exact = AoAEstimator(octagon_array, EstimatorConfig())
        tracked = AoAEstimator(octagon_array,
                               EstimatorConfig(subspace_tracking=True))
        exact_errors, tracked_errors = [], []
        for capture in captures:
            exact_errors.append(circular_error(
                exact.process(capture, calibration=calibration).bearing_deg, truth))
            tracked_errors.append(circular_error(
                tracked.process(capture, calibration=calibration).bearing_deg, truth))
        # Matched accuracy: the tracker's mean error against ground truth is
        # within half a degree of exact per-packet MUSIC's.
        assert np.mean(tracked_errors) <= np.mean(exact_errors) + 0.5

    def test_mobility_resync_follows_a_moving_source(self, linear_array, rng):
        # The bearing jumps mid-stream; the periodic resync plus forgetting
        # must pull the tracked subspace to the new bearing within a resync
        # interval.
        config = EstimatorConfig(subspace_tracking=True, num_sources=1)
        tracker = SubspaceTracker(linear_array, config,
                                  resync_interval=10, forgetting=0.7)
        for _ in range(12):
            tracker.update(plane_wave(linear_array, -30.0, 256, rng))
        estimate = tracker.update(plane_wave(linear_array, -30.0, 256, rng))
        assert circular_error(estimate.bearing_deg, -30.0) <= 2.0
        for _ in range(25):
            estimate = tracker.update(plane_wave(linear_array, 40.0, 256, rng))
        assert circular_error(estimate.bearing_deg, 40.0) <= 2.0

    def test_two_sources_keep_rank(self, linear_array, rng):
        config = EstimatorConfig(subspace_tracking=True, num_sources=2)
        tracker = SubspaceTracker(linear_array, config)
        for _ in range(8):
            samples = plane_wave(linear_array, -40.0, 256, rng) \
                + plane_wave(linear_array, 35.0, 256, rng)
            estimate = tracker.update(samples)
        assert estimate.num_sources == 2
        bearings = sorted(estimate.peak_bearings_deg[:2])
        assert abs(bearings[0] - (-40.0)) <= 2.0
        assert abs(bearings[1] - 35.0) <= 2.0


# -------------------------------------------------------------------- policy
class TestPolicy:
    def test_warmup_then_tracking(self, linear_array, rng):
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(linear_array, config, warmup_packets=3)
        assert not tracker.tracking and tracker.packets_seen == 0
        for _ in range(5):
            tracker.update(plane_wave(linear_array, 10.0, 128, rng))
        assert tracker.tracking and tracker.packets_seen == 5

    def test_reset_forgets_the_stream(self, linear_array, rng):
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(linear_array, config)
        for _ in range(4):
            tracker.update(plane_wave(linear_array, 10.0, 128, rng))
        tracker.reset()
        assert tracker.packets_seen == 0 and not tracker.tracking
        estimate = tracker.update(plane_wave(linear_array, -55.0, 128, rng))
        assert circular_error(estimate.bearing_deg, -55.0) <= 2.0

    def test_degenerate_input_does_not_crash(self, linear_array):
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(linear_array, config, warmup_packets=1)
        for _ in range(4):
            estimate = tracker.update(
                np.zeros((linear_array.num_elements, 64), dtype=complex))
        assert np.isfinite(estimate.bearing_deg)

    def test_decimation_cap_strides_long_packets(self, linear_array, rng):
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(linear_array, config,
                                  max_correlation_samples=100)
        estimate = tracker.update(plane_wave(linear_array, 5.0, 1000, rng))
        assert circular_error(estimate.bearing_deg, 5.0) <= 2.0

    def test_rejects_wrong_shapes(self, linear_array):
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(linear_array, config)
        with pytest.raises(ValueError, match="samples must be"):
            tracker.update(np.zeros((3, 64), dtype=complex))

    def test_metadata_marks_the_tracker(self, linear_array, rng):
        estimate = AoAEstimator(
            linear_array, EstimatorConfig(subspace_tracking=True)
        ).process_samples(plane_wave(linear_array, 0.0, 128, rng))
        assert estimate.pseudospectrum.metadata["subspace_tracking"] is True
        assert estimate.pseudospectrum.metadata["estimator"] == "music"


# ------------------------------------------------------------ engine reuse
class TestEngineReuse:
    """The tracker's own code is the running average, the power iteration
    and the resync policy; conditioning, model order, the MUSIC values and
    the estimate come from the engine."""

    ENGINE_STEPS = ("_conditioned", "_source_counts", "_music_values", "_estimates")

    def test_update_runs_the_engine_steps(self, linear_array, rng, monkeypatch):
        tracker = SubspaceTracker(linear_array,
                                  EstimatorConfig(subspace_tracking=True),
                                  warmup_packets=1)
        assert isinstance(tracker._engine, BatchAoAEstimator)
        calls = []
        for name in self.ENGINE_STEPS:
            original = getattr(tracker._engine, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(tracker._engine, name, spy)
        # Warm-up: an exact resync re-estimates the model order.
        tracker.update(plane_wave(linear_array, 15.0, 128, rng))
        assert calls == list(self.ENGINE_STEPS)
        calls.clear()
        # Tracking: power iteration keeps the model order.
        tracker.update(plane_wave(linear_array, 15.0, 128, rng))
        assert tracker.tracking
        assert calls == ["_conditioned", "_music_values", "_estimates"]

    def test_first_packet_conditioning_is_the_engines(self, octagon_array, rng):
        # A calibrated first packet: the tracker's running matrix is exactly
        # the engine's conditioned correlation.
        samples = plane_wave(octagon_array, 120.0, 256, rng)
        correction = np.exp(1j * rng.uniform(-np.pi, np.pi, octagon_array.num_elements))
        config = EstimatorConfig(subspace_tracking=True)
        tracker = SubspaceTracker(octagon_array, config)
        tracker.update(samples, correction)
        engine = BatchAoAEstimator(octagon_array, config)
        expected = engine._conditioned_correlation_stack([samples], [correction])[0]
        assert np.array_equal(tracker._corr, expected)


# ----------------------------------------------------------------- streaming
class TestStreamingIntegration:
    def test_estimator_engine_keeps_one_tracker(self, linear_array, rng):
        estimator = AoAEstimator(linear_array,
                                 EstimatorConfig(subspace_tracking=True))
        for _ in range(3):
            estimator.process_samples(plane_wave(linear_array, 15.0, 128, rng))
        tracker = estimator._tracker
        assert isinstance(tracker, SubspaceTracker)
        assert tracker.packets_seen == 3

    def test_batches_stream_in_order(self, linear_array, rng):
        estimator = AoAEstimator(linear_array,
                                 EstimatorConfig(subspace_tracking=True))
        batch = [plane_wave(linear_array, 15.0, 128, rng) for _ in range(4)]
        estimates = estimator.process_samples_batch(batch)
        assert len(estimates) == 4
        assert estimator._tracker.packets_seen == 4

    def test_calibration_applies_on_the_fly(self, environment, octagon_array):
        simulator = Simulator(environment, octagon_array, rng=17)
        captures = simulator.capture_burst_batch(1, 6, inter_packet_gap_s=0.01)
        calibration = simulator.calibration_table()
        truth = simulator.expected_client_bearing(1)
        estimator = AoAEstimator(octagon_array,
                                 EstimatorConfig(subspace_tracking=True))
        for capture in captures:
            estimate = estimator.process(capture, calibration=calibration)
        assert circular_error(estimate.bearing_deg, truth) <= 3.0
