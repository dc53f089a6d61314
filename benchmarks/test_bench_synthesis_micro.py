"""E13 — synthesis micro-benchmarks: batched kernels vs scalar loops.

The batched capture-synthesis engine rests on three kernels; each is
benchmarked against the per-call loop it replaces, and each must stay
bit-identical to it (asserted here on raw bytes, alongside the timing):

* ``fractional_delay_batch`` — one FFT round trip for a whole stack of
  per-path delays (with unique-delay-row reuse for static bursts) versus one
  ``fractional_delay`` FFT round trip per path;
* ``phase_random_walk_batch`` — one cumulative sum and one cos/sin pass over
  the walk stack versus one ``phase_random_walk`` per path;
* ``OfdmModulator.modulate_payload_batch`` — one stacked IFFT over every
  OFDM symbol of a burst versus one one-item call per packet.
"""

import time

import numpy as np

from conftest import print_report

from repro.channel.channel import (
    fractional_delay,
    fractional_delay_batch,
    phase_random_walk,
    phase_random_walk_batch,
)
from repro.phy.ofdm import OfdmModulator

NUM_SAMPLES = 1920
NUM_PATHS = 7
BATCH = 64


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fractional_delay_batch_speed_and_equivalence():
    rng = np.random.default_rng(0)
    waveforms = rng.normal(size=(BATCH, NUM_SAMPLES)) \
        + 1j * rng.normal(size=(BATCH, NUM_SAMPLES))
    # One shared delay row, as a static-client burst produces.
    delays = np.tile(rng.uniform(0.0, 3.0, NUM_PATHS), (BATCH, 1))
    delays[:, 0] = 0.0

    def loop():
        return np.stack([
            np.stack([fractional_delay(waveforms[b], d) for d in delays[b]])
            for b in range(BATCH)
        ])

    def batched():
        return fractional_delay_batch(waveforms[:, None, :], delays)

    assert np.array_equal(loop().view(np.uint8),
                          np.ascontiguousarray(batched()).view(np.uint8))
    loop_s = _best_of(loop)
    batch_s = _best_of(batched)
    print_report(
        "E13a - fractional delay: batched vs per-path loop",
        "\n".join([
            f"shape:        {BATCH} packets x {NUM_PATHS} paths x {NUM_SAMPLES} samples",
            f"per-path loop: {loop_s * 1e3:8.2f} ms",
            f"batched:       {batch_s * 1e3:8.2f} ms",
            f"speedup:       {loop_s / batch_s:8.2f}x",
        ]))
    assert batch_s <= loop_s * 1.1, "batched fractional delay slower than the loop"


def test_phase_random_walk_batch_speed_and_equivalence():
    def loop():
        generator = np.random.default_rng(7)
        return np.stack([
            phase_random_walk(NUM_SAMPLES, 0.02, generator)
            for _ in range(BATCH * NUM_PATHS)
        ])

    def batched():
        generator = np.random.default_rng(7)
        return phase_random_walk_batch(BATCH * NUM_PATHS, NUM_SAMPLES, 0.02,
                                       generator)

    assert np.array_equal(loop().view(np.uint8), batched().view(np.uint8))
    loop_s = _best_of(loop)
    batch_s = _best_of(batched)
    print_report(
        "E13b - phase random walk: batched vs per-walk loop",
        "\n".join([
            f"walks:         {BATCH * NUM_PATHS} x {NUM_SAMPLES} samples",
            f"per-walk loop: {loop_s * 1e3:8.2f} ms",
            f"batched:       {batch_s * 1e3:8.2f} ms",
            f"speedup:       {loop_s / batch_s:8.2f}x",
        ]))
    # The draws stay per walk, one generator call per walk on both sides, but
    # at knot rate they no longer dominate: the loop pays a kernel call per
    # walk.  The batch form still only has to keep up, not win.
    assert batch_s <= loop_s * 1.25, "batched phase walk slower than the loop"


def test_modulate_payload_batch_speed_and_equivalence():
    modulator = OfdmModulator()
    rng = np.random.default_rng(3)
    bits_batch = [rng.integers(0, 2, size=20 * 104) for _ in range(BATCH)]

    def loop():
        return [modulator.modulate_payload_batch([bits])[0] for bits in bits_batch]

    def batched():
        return modulator.modulate_payload_batch(bits_batch)

    for a, b in zip(loop(), batched()):
        assert np.array_equal(a.view(np.uint8),
                              np.ascontiguousarray(b).view(np.uint8))
    loop_s = _best_of(loop)
    batch_s = _best_of(batched)
    print_report(
        "E13c - OFDM payload modulation: batched vs per-packet loop",
        "\n".join([
            f"packets:         {BATCH} x 20 symbols",
            f"per-packet loop: {loop_s * 1e3:8.2f} ms",
            f"batched:         {batch_s * 1e3:8.2f} ms",
            f"speedup:         {loop_s / batch_s:8.2f}x",
        ]))
    assert batch_s <= loop_s * 1.1, "batched modulation slower than the loop"
