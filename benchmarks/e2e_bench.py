"""End-to-end burst benchmark: legacy scalar vs streaming vs batched engine.

Measures a Figure-5-style 64-packet burst (synthesis + analysis) three ways:

* **legacy scalar** — a faithful timing reference for the pre-engine
  per-packet pipeline: every packet re-raytraces the geometry, regenerates
  the OFDM preamble, modulates symbol by symbol, accumulates per-path
  ``np.outer`` contributions with per-path FFT delay filters, and applies
  receiver impairments chain by chain, before streaming through
  ``Deployment.run``.
* **streaming** — today's per-packet path: ``Deployment.run`` over
  ``client_packets`` (shares the vectorized kernels and caches with the
  batched engine, so it is already far faster than the legacy path).
* **batched** — ``Deployment.run_batch`` over ``Deployment.traffic``: the
  batched capture-synthesis engine end to end.

The streaming and batched paths are asserted bit-identical; the legacy
reference implements the same physics with the pre-engine rng layout, so it
is validated statistically (bearing recovery) rather than bitwise.

Run directly to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/e2e_bench.py --packets 64 --out BENCH_e2e.json

or to gate CI against a committed baseline::

    PYTHONPATH=src python benchmarks/e2e_bench.py --packets 64 \
        --out bench-artifacts/BENCH_e2e.json \
        --check BENCH_e2e.json --max-regression 0.20
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from repro.api import ScenarioSpec
from repro.api.deployment import Deployment, Packet
from repro.arrays.steering import steering_vector
from repro.channel.channel import fractional_delay, phase_random_walk
from repro.channel.raytracer import RayTracer
from repro.hardware.capture import Capture
from repro.phy.ofdm import OfdmConfig, OfdmModulator, _qpsk_map
from repro.phy.preamble import _LTF_SEQUENCE, _STF_SEQUENCE, _sequence_to_spectrum
from repro.utils.decibels import dbm_to_watts
from repro.utils.rng import ensure_rng, spawn_rng

BENCH_NAME = "e2e_64_packet_burst"
SEED = 1234
CLIENT_ID = 1


# --------------------------------------------------------------------- legacy
class LegacyScalarSynthesis:
    """The pre-engine per-packet synthesis pipeline, kept for timing.

    Reproduces the historical cost profile: per-packet ray tracing, fresh
    preamble IFFTs, per-symbol payload modulation, per-path outer-product
    accumulation with one FFT round trip per path, per-chain mixers and
    per-chain spawned noise streams.
    """

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self.simulator = deployment.simulator()
        config = self.simulator.config
        self.payload_symbols = config.payload_symbols
        self.raytracer = RayTracer(
            deployment.environment.floorplan,
            frequency_hz=config.channel.carrier_frequency_hz,
            max_reflections=config.max_reflections,
        )
        self.channel = self.simulator.channel
        self.receiver = self.simulator.receiver

    def _legacy_preamble(self, config: OfdmConfig) -> np.ndarray:
        # The pre-engine path recomputed both training fields per packet; the
        # public helpers now serve a cache, so redo the IFFTs for honest cost.
        stf_spectrum = _sequence_to_spectrum(_STF_SEQUENCE, config.fft_size)
        stf_base = np.fft.ifft(stf_spectrum) * np.sqrt(config.fft_size / 12.0)
        stf = np.tile(stf_base, 3)[: config.fft_size * 2 + config.fft_size // 2]
        ltf_spectrum = _sequence_to_spectrum(_LTF_SEQUENCE, config.fft_size)
        ltf_symbol = np.fft.ifft(ltf_spectrum) * np.sqrt(config.fft_size / 52.0)
        ltf = np.concatenate(
            [ltf_symbol[-config.fft_size // 2:], ltf_symbol, ltf_symbol])
        return np.concatenate([stf, ltf])

    def _legacy_waveform(self, frame, rng) -> np.ndarray:
        generator = ensure_rng(rng)
        config = OfdmConfig()
        modulator = OfdmModulator(config)
        bits_per_symbol = 2 * config.num_occupied
        total_bits = self.payload_symbols * bits_per_symbol
        if frame is not None:
            frame_bits = frame.to_bits()
            if frame_bits.size > total_bits:
                total_bits = int(np.ceil(frame_bits.size / bits_per_symbol)) \
                    * bits_per_symbol
            padding = generator.integers(0, 2, size=total_bits - frame_bits.size)
            bits = np.concatenate([frame_bits, padding])
        else:
            bits = generator.integers(0, 2, size=total_bits)
        symbols = [
            modulator.modulate_symbol(_qpsk_map(bits[start:start + bits_per_symbol]))
            for start in range(0, bits.size, bits_per_symbol)
        ]
        waveform = np.concatenate([self._legacy_preamble(config)] + symbols)
        power = float(np.mean(np.abs(waveform) ** 2))
        return waveform / np.sqrt(power)

    def _legacy_propagate(self, waveform, paths, tx_power_dbm, path_fading,
                          generator) -> np.ndarray:
        config = self.channel.config
        tx_amplitude = float(np.sqrt(dbm_to_watts(tx_power_dbm)))
        lambda_m = config.wavelength
        received = np.zeros((self.channel.array.num_elements, waveform.size),
                            dtype=complex)
        reference_delay = min(path.delay_s for path in paths)
        for index, path in enumerate(paths):
            response = steering_vector(self.channel.array.element_positions,
                                       path.aoa_deg - self.channel.orientation_deg,
                                       lambda_m)
            carrier_phase = np.exp(-1j * path.carrier_phase_rad(lambda_m))
            amplitude = tx_amplitude * path.amplitude
            contribution = waveform
            if config.apply_path_delays:
                delay = (path.delay_s - reference_delay) * config.sample_rate_hz
                contribution = fractional_delay(contribution, delay)
            if config.path_phase_walk_std_rad > 0:
                contribution = contribution * phase_random_walk(
                    waveform.size, config.path_phase_walk_std_rad, generator)
            fading = 1.0 + 0.0j
            if path_fading is not None:
                fading = complex(path_fading[index])
            received += np.outer(response,
                                 amplitude * carrier_phase * fading * contribution)
        return received

    def _legacy_capture(self, signals, timestamp_s, metadata, generator) -> Capture:
        receiver = self.receiver
        rate = receiver.config.sample_rate_hz
        received = np.empty_like(signals)
        num_samples = signals.shape[-1]
        t = np.arange(num_samples) / rate
        for index, chain in enumerate(receiver.chains):
            oscillator = chain.oscillator
            phase = oscillator.phase_offset_rad + \
                2.0 * np.pi * oscillator.frequency_offset_hz * t
            mixed = signals[index] * np.exp(-1j * phase)
            output = chain.gain_linear * mixed
            chain_rng = spawn_rng(generator, stream=index)
            sigma = chain.noise_sigma
            noise = chain_rng.normal(0.0, sigma, num_samples) + \
                1j * chain_rng.normal(0.0, sigma, num_samples)
            received[index] = output + noise
        return Capture(
            samples=received,
            sample_rate_hz=rate,
            carrier_frequency_hz=receiver.config.carrier_frequency_hz,
            timestamp_s=timestamp_s,
            metadata=metadata,
        )

    def client_packets(self, client_id: int, num_packets: int,
                       inter_packet_gap_s: float = 0.5) -> List[Packet]:
        deployment = self.deployment
        simulator = self.simulator
        client = deployment.clients[client_id]
        position = deployment.environment.client_position(client_id)
        master = ensure_rng(SEED)
        packets = []
        for index in range(num_packets):
            timestamp = index * inter_packet_gap_s
            frame = client.make_frame(deployment.ap_address)
            paths = self.raytracer.trace(position, simulator.ap_position)
            if timestamp > 0:
                paths = simulator.dynamics.paths_at(paths, timestamp)
            waveform = self._legacy_waveform(frame, spawn_rng(master, 21))
            fading = simulator.dynamics.fast_fading_jitter(
                len(paths), decorrelation=1.0, rng=spawn_rng(master, 22))
            signals = self._legacy_propagate(
                waveform, paths, client.tx_power_dbm, fading,
                spawn_rng(master, 23))
            capture = self._legacy_capture(
                signals, timestamp,
                {"tx_position": position.as_tuple(), "client_id": client_id},
                spawn_rng(master, 24))
            packets.append(Packet(frame=frame,
                                  captures={deployment.primary_ap_name: capture},
                                  timestamp_s=timestamp,
                                  metadata={"client_id": client_id}))
        return packets


# ------------------------------------------------------------------ measurement
def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_info() -> Dict:
    """NumPy version and BLAS build details, for artifact provenance."""
    info: Dict = {"numpy": np.__version__}
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - numpy < 1.25 without mode=
        return info
    blas = build.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {key: blas[key] for key in ("name", "version")
                    if key in blas}
    return info


def measure(num_packets: int = 64, repeats: int = 4,
            precision: str = "float64") -> Dict:
    """Time the three end-to-end paths and verify their outputs."""
    spec = ScenarioSpec(name="bench-e2e", seed=SEED)
    if precision != "float64":
        spec = replace(
            spec,
            simulator=replace(spec.simulator, precision=precision),
            estimator=replace(spec.estimator, precision=precision))

    streaming_dep = Deployment(spec)
    batched_dep = Deployment(spec)
    legacy_dep = Deployment(spec)
    legacy = LegacyScalarSynthesis(legacy_dep)

    def run_streaming():
        return list(streaming_dep.run(
            streaming_dep.client_packets(CLIENT_ID, num_packets=num_packets)))

    def run_batched():
        return batched_dep.run_batch(
            batched_dep.traffic(CLIENT_ID, num_packets=num_packets))

    def run_legacy():
        return list(legacy_dep.run(
            legacy.client_packets(CLIENT_ID, num_packets=num_packets)))

    # Warm caches (path cache, preamble, mixer tables, BLAS) on every path,
    # and verify outputs while at it.
    streaming_events = run_streaming()
    batched_events = run_batched()
    legacy_events = run_legacy()

    bit_identical = all(
        s.source == b.source and s.verdict == b.verdict
        and s.bearings_deg == b.bearings_deg
        for s, b in zip(streaming_events, batched_events))
    expected = streaming_dep.expected_bearing(CLIENT_ID)
    ap_name = streaming_dep.primary_ap_name

    def max_bearing_error(events):
        return max(abs(event.bearings_deg[ap_name] - expected)
                   for event in events)

    errors = {
        "streaming": max_bearing_error(streaming_events),
        "batched": max_bearing_error(batched_events),
        "legacy": max_bearing_error(legacy_events),
    }

    legacy_s = _best_of(run_legacy, repeats)
    streaming_s = _best_of(run_streaming, repeats)
    batched_s = _best_of(run_batched, repeats)

    return {
        "benchmark": BENCH_NAME,
        "packets": num_packets,
        "seed": SEED,
        "precision": precision,
        "build": build_info(),
        "legacy_scalar_ms": round(legacy_s * 1e3, 2),
        "streaming_ms": round(streaming_s * 1e3, 2),
        "batched_ms": round(batched_s * 1e3, 2),
        "packets_per_sec": {
            "legacy_scalar": round(num_packets / legacy_s, 1),
            "streaming": round(num_packets / streaming_s, 1),
            "batched": round(num_packets / batched_s, 1),
        },
        "speedup_batched_vs_legacy": round(legacy_s / batched_s, 3),
        "speedup_batched_vs_streaming": round(streaming_s / batched_s, 3),
        "bit_identical_streaming_vs_batched": bit_identical,
        "max_bearing_error_deg": {k: round(v, 4) for k, v in errors.items()},
    }


def check_regression(result: Dict, baseline: Dict,
                     max_regression: float) -> List[str]:
    """Compare machine-independent speedup ratios against a baseline."""
    problems = []
    for key in ("speedup_batched_vs_legacy", "speedup_batched_vs_streaming"):
        old = baseline.get(key)
        new = result.get(key)
        if old is None or new is None:
            continue
        floor = old * (1.0 - max_regression)
        if new < floor:
            problems.append(
                f"{key} regressed: {new:.2f}x < {floor:.2f}x "
                f"(baseline {old:.2f}x, tolerance {max_regression:.0%})")
    if not result.get("bit_identical_streaming_vs_batched", False):
        problems.append("streaming and batched events are no longer identical")
    return problems


def format_report(result: Dict) -> str:
    return "\n".join([
        f"packets:                 {result['packets']}",
        f"precision:               {result['precision']}",
        f"legacy scalar path:      {result['legacy_scalar_ms']:8.1f} ms "
        f"({result['packets_per_sec']['legacy_scalar']:7.0f} pkt/s)",
        f"streaming path (run):    {result['streaming_ms']:8.1f} ms "
        f"({result['packets_per_sec']['streaming']:7.0f} pkt/s)",
        f"batched path (run_batch):{result['batched_ms']:8.1f} ms "
        f"({result['packets_per_sec']['batched']:7.0f} pkt/s)",
        f"speedup vs legacy:       {result['speedup_batched_vs_legacy']:8.2f}x",
        f"speedup vs streaming:    {result['speedup_batched_vs_streaming']:8.2f}x",
        f"streaming == batched:    {result['bit_identical_streaming_vs_batched']}",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--precision", type=str, default="float64",
                        choices=("float64", "float32"))
    parser.add_argument("--out", type=str, default=None,
                        help="write the result JSON here")
    parser.add_argument("--check", type=str, default=None,
                        help="baseline JSON to compare speedups against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional speedup regression vs baseline")
    args = parser.parse_args()

    result = measure(num_packets=args.packets, repeats=args.repeats,
                     precision=args.precision)
    print(format_report(result))

    if args.out:
        import os
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_regression(result, baseline, args.max_regression)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
