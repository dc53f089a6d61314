"""Kernel-tier benchmark: per-kernel micro timings and subspace tracking.

Two layers of measurement, written together to
``bench-artifacts/BENCH_kernels.json`` (gitignored; uploaded as a CI
artifact):

* **micro** — each :data:`repro.kernels.kernels` kernel timed on
  pipeline-shaped inputs;
* **streaming** — the eigh-per-packet streaming path versus the
  :class:`~repro.aoa.subspace.SubspaceTracker`, packets per second and
  accuracy against ground truth on the same capture stream (gated: the
  median of alternating timing pairs must show the tracker ≥ 1.3x faster,
  at matched accuracy).

Timing gates compare ratios measured in the same process on the same inputs,
so they are machine-independent; absolute times are informational.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_report

from repro.aoa import AoAEstimator, EstimatorConfig
from repro.aoa.subspace import SubspaceTracker
from repro.arrays.geometry import OctagonalArray
from repro.kernels import kernels
from repro.kernels.backend import PHASE_WALK_KNOT_SPACING
from repro.testbed.environment import figure4_environment
from repro.testbed.scenario import TestbedSimulator as Simulator

SEED = 42
STREAM_PACKETS = 120
OUTPUT_PATH = (Path(__file__).resolve().parents[1] / "bench-artifacts"
               / "BENCH_kernels.json")

#: Acceptance gates (see ISSUE/ROADMAP): the tracker must beat the
#: eigh-per-packet streaming path by this factor at matched accuracy.
TRACKER_MIN_SPEEDUP = 1.3
#: The tracker gate times both streams back to back this many times,
#: alternating which runs first, and gates the median per-pair ratio: two
#: independent best-of-3 timings drift apart with host load.
TRACKER_TIMING_PAIRS = 9
TRACKER_MAX_ACCURACY_LOSS_DEG = 0.5


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_timings(baseline, candidate, pairs: int) -> list:
    """``(baseline_s, candidate_s)`` from back-to-back timing pairs.

    Each pair times both callables once, alternating which goes first, so
    slow drift in host load hits both sides of every pair alike.
    """
    timings = []
    for index in range(pairs):
        order = (baseline, candidate) if index % 2 == 0 else (candidate, baseline)
        elapsed = {}
        for fn in order:
            start = time.perf_counter()
            fn()
            elapsed[fn] = time.perf_counter() - start
        timings.append((elapsed[baseline], elapsed[candidate]))
    return timings


def _circular_error(a: float, b: float) -> float:
    delta = abs(a - b) % 360.0
    return min(delta, 360.0 - delta)


# ---------------------------------------------------------------- micro layer
def _micro_inputs(rng: np.random.Generator):
    """Pipeline-shaped kernel inputs: 8 antennas, 64-packet batches."""
    batch, n, t, angles = 64, 8, 1920, 360
    samples = [rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
               for _ in range(batch)]
    x = (rng.standard_normal((batch, n, n))
         + 1j * rng.standard_normal((batch, n, n)))
    hermitian = x @ x.conj().transpose(0, 2, 1) + n * np.eye(n)
    steering = (rng.standard_normal((n, angles))
                + 1j * rng.standard_normal((n, angles)))
    signal = (rng.standard_normal((batch, n, 2))
              + 1j * rng.standard_normal((batch, n, 2)))
    waveforms = (rng.standard_normal((batch, 1, t))
                 + 1j * rng.standard_normal((batch, 1, t)))
    delays = rng.random((batch, 3)) * 4
    initials = rng.random(batch * 3) * 2 * np.pi
    # The knot steps of a t-sample walk: ceil((t - 1) / K) + 1 knots.
    knots = -(-(t - 1) // PHASE_WALK_KNOT_SPACING) + 1
    steps = rng.standard_normal((batch * 3, knots)) * 0.01
    spectra = (rng.standard_normal((batch, 64))
               + 1j * rng.standard_normal((batch, 64)))
    return {
        "samples": samples, "hermitian": hermitian, "steering": steering,
        "signal": signal, "waveforms": waveforms, "delays": delays,
        "initials": initials, "steps": steps, "spectra": spectra,
        "positions": OctagonalArray().element_positions,
        "wavelength": OctagonalArray().wavelength,
        "out_shape": (batch, 3, t),
    }


def _time_kernels(inputs) -> dict:
    timings = {}
    timings["correlation_stack_ms"] = _best_of(
        lambda: kernels.correlation_stack(inputs["samples"])) * 1e3
    timings["eigh_ms"] = _best_of(
        lambda: kernels.eigh(inputs["hermitian"])) * 1e3
    timings["music_projection_ms"] = _best_of(
        lambda: kernels.music_projection_power(inputs["signal"],
                                               inputs["steering"])) * 1e3
    timings["beamscan_numerator_ms"] = _best_of(
        lambda: kernels.beamscan_numerator(inputs["hermitian"],
                                           inputs["steering"])) * 1e3
    timings["steering_stack_ms"] = _best_of(
        lambda: kernels.steering_stack(inputs["positions"],
                                       np.linspace(-180, 180, 64),
                                       inputs["wavelength"])) * 1e3
    timings["fractional_delay_ms"] = _best_of(
        lambda: kernels.fractional_delay(inputs["waveforms"], inputs["delays"],
                                         inputs["out_shape"])) * 1e3
    timings["phase_walk_ms"] = _best_of(
        lambda: kernels.phase_walk(inputs["initials"], inputs["steps"])) * 1e3
    timings["ifft_ms"] = _best_of(lambda: kernels.ifft(inputs["spectra"])) * 1e3
    return {name: round(value, 3) for name, value in timings.items()}


# --------------------------------------------------------------- measurements
@pytest.fixture(scope="module")
def kernel_tier_results():
    """Measure everything once, write the JSON, and share with the tests."""
    rng = np.random.default_rng(SEED)
    results = {
        "benchmark": "kernel_tier",
        "seed": SEED,
        "numpy": np.__version__,
    }
    with contextlib.suppress(TypeError):  # numpy < 1.25 without mode="dicts"
        build = np.show_config(mode="dicts")
        blas = build.get("Build Dependencies", {}).get("blas", {})
        results["blas"] = {key: blas[key] for key in ("name", "version")
                           if key in blas}

    results["micro"] = _time_kernels(_micro_inputs(rng))

    # Streaming: eigh-per-packet vs subspace tracking on one capture stream.
    environment = figure4_environment()
    array = OctagonalArray()
    simulator = Simulator(environment, array, rng=SEED)
    captures = simulator.capture_burst_batch(1, STREAM_PACKETS,
                                             inter_packet_gap_s=0.01)
    calibration = simulator.calibration_table()
    truth = simulator.expected_client_bearing(1)

    def stream(config):
        estimator = AoAEstimator(array, config)
        return [estimator.process(capture, calibration=calibration)
                for capture in captures]

    exact_estimates = stream(EstimatorConfig())
    tracked_estimates = stream(EstimatorConfig(subspace_tracking=True))
    pairs = _paired_timings(
        lambda: stream(EstimatorConfig()),
        lambda: stream(EstimatorConfig(subspace_tracking=True)),
        TRACKER_TIMING_PAIRS)
    pair_speedups = [exact / tracked for exact, tracked in pairs]
    exact_s = min(exact for exact, _ in pairs)
    tracked_s = min(tracked for _, tracked in pairs)

    def mean_error(estimates):
        return float(np.mean([_circular_error(e.bearing_deg, truth)
                              for e in estimates]))

    results["streaming"] = {
        "packets": STREAM_PACKETS,
        "eigh_per_packet_s": round(exact_s, 4),
        "subspace_tracker_s": round(tracked_s, 4),
        "packets_per_sec": {
            "eigh_per_packet": round(STREAM_PACKETS / exact_s, 1),
            "subspace_tracker": round(STREAM_PACKETS / tracked_s, 1),
        },
        # The gated figure: the median of the alternating pairs' ratios.
        "speedup": round(float(np.median(pair_speedups)), 3),
        "pair_speedups": [round(ratio, 3) for ratio in pair_speedups],
        "mean_bearing_error_deg": {
            "eigh_per_packet": round(mean_error(exact_estimates), 4),
            "subspace_tracker": round(mean_error(tracked_estimates), 4),
        },
    }

    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print_report(
        "kernel tier",
        "\n".join([
            f"streaming eigh/packet:    "
            f"{results['streaming']['packets_per_sec']['eigh_per_packet']:8.0f} pkt/s",
            f"streaming tracker:        "
            f"{results['streaming']['packets_per_sec']['subspace_tracker']:8.0f} pkt/s "
            f"({results['streaming']['speedup']:.2f}x)",
            f"tracker mean error:       "
            f"{results['streaming']['mean_bearing_error_deg']['subspace_tracker']:.2f} deg "
            f"(exact {results['streaming']['mean_bearing_error_deg']['eigh_per_packet']:.2f})",
            f"wrote:                    bench-artifacts/{OUTPUT_PATH.name}",
        ]))
    return results


# ---------------------------------------------------------------------- gates
def test_bench_micro_kernels_timed(kernel_tier_results):
    timings = kernel_tier_results["micro"]
    assert all(value >= 0 for value in timings.values())
    assert "correlation_stack_ms" in timings
    assert "eigh_ms" in timings


def test_bench_subspace_tracker_speedup_gate(kernel_tier_results):
    streaming = kernel_tier_results["streaming"]
    assert len(streaming["pair_speedups"]) >= TRACKER_TIMING_PAIRS
    assert streaming["speedup"] >= TRACKER_MIN_SPEEDUP, (
        f"subspace tracker streaming speedup {streaming['speedup']:.2f}x "
        f"(median of pairs {streaming['pair_speedups']}) "
        f"fell below the {TRACKER_MIN_SPEEDUP}x gate")


def test_bench_subspace_tracker_matched_accuracy(kernel_tier_results):
    errors = kernel_tier_results["streaming"]["mean_bearing_error_deg"]
    assert errors["subspace_tracker"] <= (
        errors["eigh_per_packet"] + TRACKER_MAX_ACCURACY_LOSS_DEG)


def test_bench_json_artifact_written(kernel_tier_results):
    written = json.loads(OUTPUT_PATH.read_text())
    assert written["benchmark"] == "kernel_tier"
    assert written["streaming"]["speedup"] == \
        kernel_tier_results["streaming"]["speedup"]
