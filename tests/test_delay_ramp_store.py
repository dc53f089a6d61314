"""Per-link delay ramps and the batch-of-one trims of capture synthesis.

* ``delay_ramps`` evaluates cosine and sine for bins ``0..n//2`` only and
  mirrors the rest as conjugates; the result must be bitwise the full-spectrum
  ``cos + 1j*sin`` formula, for even and odd lengths and sub-epsilon and
  negative delays, and equal in value to ``fractional_delay``'s
  ``np.exp(-2j*pi*f*d)``.  (Only in value: where the phase is a signed zero,
  ``exp`` returns a +0.0 imaginary part and ``sin`` the zero's own sign, as
  the full-spectrum formula always did; multiplying a spectrum by either
  gives the same delayed bytes.)
* Each :class:`ArrayChannel` keeps the half-spectrum ramps of the delay rows
  it meets again in one preallocated :class:`DelayRampStore` block: a hit
  gives the bytes of a miss, returned arrays never alias the block, the
  block never grows, and two APs' channels keep separate stores.
* ``EnvironmentDynamics.paths_at`` draws its offsets in one
  ``standard_normal`` call; it must equal the per-path scalar ``normal``
  draws it replaced.
* Capture and packet requests refuse non-finite and negative times, so a bad
  serve submit is an error reply, not a dead tenant worker.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api.deployment import Deployment
from repro.api.scenarios import fence_scenario
from repro.arrays import OctagonalArray
from repro.channel import channel as channel_module
from repro.channel.channel import DELAY_RAMP_SLOTS, fractional_delay_batch
from repro.channel.dynamics import DynamicsConfig, EnvironmentDynamics, _time_key
from repro.channel.path import PathKind, PropagationPath
from repro.geometry.point import Point
from repro.kernels.backend import DELAY_EPSILON_SAMPLES, DelayRampStore, delay_ramps
from repro.serve import (
    PacketRequest,
    SecureAngleService,
    ServeConfig,
    TenantConfig,
    resolve_scenario,
)
from repro.serve.smoke import SmokeClient
from repro.testbed import TestbedSimulator as Simulator, figure4_environment
from repro.testbed.scenario import CaptureRequest


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bit pattern (so -0.0 differs from +0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def full_spectrum_ramps(delays: np.ndarray, n: int) -> np.ndarray:
    """The reference: phases ``(-2*pi*f) * d`` for every bin, no mirroring,
    then ``cos + 1j*sin``."""
    phases = (-2.0 * np.pi * np.fft.fftfreq(n)) * delays[..., None]
    ramps = np.empty(phases.shape, dtype=complex)
    ramps.real = np.cos(phases)
    ramps.imag = np.sin(phases)
    return ramps


def delay_rows(rng: np.random.Generator, rows: int, paths: int) -> np.ndarray:
    """Delays in +-40 samples: fractional, whole, zero, -0.0 and sub-epsilon."""
    delays = rng.uniform(-40.0, 40.0, size=(rows, paths))
    delays[:, 0] = 0.0
    delays[:, 1] = -0.0
    delays[:, 2] = np.round(delays[:, 2])
    delays[:, 3] = DELAY_EPSILON_SAMPLES * rng.uniform(-0.9, 0.9, size=rows)
    return delays


def collect_ramps(store: DelayRampStore, delays: np.ndarray, n: int, calls: int):
    return [delay_ramps(delays, n, store).copy() for _ in range(calls)]


# ------------------------------------------------------------- mirrored ramps
class TestMirroredRamps:
    @pytest.mark.parametrize("n", [1920, 96, 127])
    def test_bitwise_equal_to_the_full_spectrum(self, n):
        delays = delay_rows(np.random.default_rng(n), 200, 7)
        expected = full_spectrum_ramps(delays, n)
        # Stacked rows (np.unique dedupe), one row, and one delay at a time.
        assert bits_equal(delay_ramps(delays, n), expected)
        assert bits_equal(delay_ramps(delays[:1], n), expected[:1])
        for delay, row in zip(delays[:3, 4], expected[:3, 4]):
            assert bits_equal(delay_ramps(np.asarray(delay), n), row)
        frequencies = np.fft.fftfreq(n)
        assert np.array_equal(delay_ramps(delays, n),
                              np.exp(-2j * np.pi * frequencies * delays[..., None]))

    def test_float32_rows_give_the_ramps_of_their_float64_values(self):
        delays = delay_rows(np.random.default_rng(4), 200, 7).astype(np.float32)
        ramps = delay_ramps(delays, 96)
        assert ramps.dtype == np.complex128
        assert bits_equal(ramps, delay_ramps(delays.astype(np.float64), 96))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tiny_lengths(self, n):
        delays = delay_rows(np.random.default_rng(n), 3, 5)
        assert bits_equal(delay_ramps(delays, n), full_spectrum_ramps(delays, n))


# ------------------------------------------------------------------ the store
class TestDelayRampStore:
    def test_a_hit_gives_the_bytes_of_a_miss(self):
        delays = delay_rows(np.random.default_rng(5), 1, 7)
        store = DelayRampStore(32)
        first, second, hit = collect_ramps(store, delays, 1920, 3)
        # Stored at the second sighting, recalled at the third.
        assert len(store) == 1
        expected = delay_ramps(delays, 1920)
        for ramps in (first, second, hit):
            assert bits_equal(ramps, expected)

    def test_batches_store_their_unique_rows(self):
        rows = delay_rows(np.random.default_rng(6), 2, 5)
        delays = rows[[0, 1, 0, 0, 1]]
        store = DelayRampStore(32)
        results = collect_ramps(store, delays, 96, 3)
        assert len(store) == 2
        for ramps in results:
            assert bits_equal(ramps, delay_ramps(delays, 96))

    def test_the_block_is_only_written_in_place(self):
        rng = np.random.default_rng(7)
        store = DelayRampStore(8)
        delay_ramps(delay_rows(rng, 1, 4), 64, store)
        assert store.block is None  # nothing stored on a first sighting
        rows = [delay_rows(rng, 1, 4) for _ in range(6)]
        for row in rows + rows:
            delay_ramps(row, 64, store)
        block = store.block
        assert block is not None and block.shape == (8, 33)
        for row in rows + rows:
            assert bits_equal(delay_ramps(row, 64, store), delay_ramps(row, 64))
        # Eight slots hold two four-path rows; eviction reused them in place.
        assert store.block is block and len(store) == 2

    def test_other_lengths_and_long_rows_bypass_the_block(self):
        rng = np.random.default_rng(8)
        store = DelayRampStore(4)
        row = delay_rows(rng, 1, 4)
        for _ in range(3):
            delay_ramps(row, 64, store)
        long_row = delay_rows(rng, 1, 6)
        for n, delays in ((48, row), (64, long_row)):
            for _ in range(3):
                assert bits_equal(delay_ramps(delays, n, store), delay_ramps(delays, n))
        assert store.block.shape == (4, 33) and len(store) == 1

    def test_a_float32_row_is_stored_under_its_own_key(self):
        # The float32 copy of a row has other bytes, so it is another key:
        # it neither hits the float64 entry nor overwrites it.
        row = delay_rows(np.random.default_rng(6), 1, 4)
        store = DelayRampStore(8)
        for _ in range(3):
            for delays in (row, row.astype(np.float32)):
                assert bits_equal(delay_ramps(delays, 64, store), delay_ramps(delays, 64))
        assert len(store) == 2

    def test_writing_into_a_delayed_array_cannot_change_the_store(self):
        rng = np.random.default_rng(9)
        waveform = rng.standard_normal(1920) + 1j * rng.standard_normal(1920)
        delays = delay_rows(rng, 1, 6)
        store = DelayRampStore(16)
        for _ in range(2):
            fractional_delay_batch(waveform[None, None, :], delays, store=store)
        held = store.block.copy()
        for _ in range(2):
            delayed = fractional_delay_batch(waveform[None, None, :], delays,
                                             store=store)
            delayed[...] = 7.0
            ramps = delay_ramps(delays, 1920, store)
            ramps[...] = 7.0
        assert bits_equal(store.block, held)
        assert bits_equal(fractional_delay_batch(waveform[None, None, :], delays,
                                                 store=store),
                          fractional_delay_batch(waveform[None, None, :], delays))


# ------------------------------------------------------- the store per link
def make_simulator(ap_position=None, seed=17):
    return Simulator(figure4_environment(), OctagonalArray(),
                            ap_position=ap_position, rng=seed)


def wandering_requests(simulator, count):
    """Requests from ``count`` distinct positions near the testbed clients,
    each transmitting twice so every delay row is offered to the store."""
    environment = simulator.environment
    positions = []
    for index in range(count):
        base = environment.client_position(1 + index % 20)
        positions.append(Point(base.x + 0.05 * (index // 20), base.y))
    return [CaptureRequest(position=position, elapsed_s=0.5 * index)
            for index, position in enumerate(positions + positions)]


class TestStorePerLink:
    def test_block_bound_and_captures_equal_a_fresh_simulator(self, monkeypatch):
        monkeypatch.setattr(channel_module, "DELAY_RAMP_SLOTS", 12)
        churned = make_simulator()
        store = churned.channel.ramp_store
        requests = wandering_requests(churned, 10)
        for request in requests[:1] + requests[10:11]:
            churned.capture_batch([request])
        block = store.block
        assert block is not None
        for request in requests[1:10] + requests[11:]:
            churned.capture_batch([request])
        # More distinct rows than slots: the block is the same object,
        # evicted rows were overwritten in place, nothing else grew.
        assert store.block is block and block.shape[0] == 12
        assert 1 <= len(store) <= 12

        fresh = make_simulator()
        fresh.skip_captures(len(requests))
        probes = requests[-4:]
        for probe in probes:
            got = churned.capture_batch([probe])[0]
            want = fresh.capture_batch([probe])[0]
            assert bits_equal(got.samples, want.samples)
        assert fresh.channel.ramp_store.block is None

    def test_the_default_block_holds_the_standard_packet(self):
        simulator = make_simulator()
        request = wandering_requests(simulator, 1)[0]
        for _ in range(2):
            simulator.capture_batch([request])
        assert simulator.channel.ramp_store.block.shape == (DELAY_RAMP_SLOTS, 961)

    def test_two_aps_do_not_share_entries(self):
        first = make_simulator()
        second = make_simulator(ap_position=Point(2.0, 2.0))
        request = wandering_requests(first, 1)[0]
        for _ in range(2):
            first.capture_batch([request])
        assert len(first.channel.ramp_store) == 1
        assert second.channel.ramp_store is not first.channel.ramp_store
        assert second.channel.ramp_store.block is None
        for _ in range(2):
            second.capture_batch([request])
        assert len(second.channel.ramp_store) == 1
        assert not np.shares_memory(first.channel.ramp_store.block,
                                    second.channel.ramp_store.block)


# ------------------------------------------------------------------ paths_at
def reference_paths_at(dynamics, paths, elapsed_s):
    """The per-path scalar draws ``paths_at`` made before: two
    ``normal(0, sigma)`` calls per path, then ``dataclasses.replace``."""
    if elapsed_s == 0:
        return list(paths)
    severity = dynamics._drift_severity(elapsed_s)
    rng = np.random.default_rng(dynamics._base_seed ^ _time_key(elapsed_s))
    config = dynamics.config
    evolved = []
    for path in paths:
        if path.kind is PathKind.DIRECT:
            drift_deg = config.max_direct_drift_deg
            drift_db = config.max_direct_gain_drift_db
        else:
            drift_deg = config.max_reflection_drift_deg
            drift_db = config.max_reflection_gain_drift_db
        angle_offset = float(rng.normal(0.0, severity * drift_deg / 2.0))
        gain_offset = float(rng.normal(0.0, severity * drift_db / 2.0))
        evolved.append(replace(path, aoa_deg=path.aoa_deg + angle_offset,
                               gain_db=path.gain_db + gain_offset))
    return evolved


def float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestPathsAt:
    def test_equals_the_per_path_scalar_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            config = DynamicsConfig(
                max_direct_drift_deg=float(rng.choice([0.0, 0.8, 3.0])),
                max_reflection_gain_drift_db=float(rng.choice([0.0, 6.0])))
            dynamics = EnvironmentDynamics(config, rng=int(rng.integers(1 << 30)))
            paths = [
                PropagationPath(
                    aoa_deg=float(rng.choice([0.0, -0.0, rng.uniform(-180, 360)])),
                    length_m=float(rng.uniform(1.0, 60.0)),
                    gain_db=float(rng.uniform(-95.0, -40.0)),
                    kind=PathKind.DIRECT if index == 0 else PathKind.REFLECTED,
                    reflector=f"wall{index}")
                for index in range(int(rng.integers(1, 9)))
            ]
            elapsed_s = float(rng.choice([0.0, rng.uniform(0.001, 2e5),
                                          0.5 * rng.integers(1, 500)]))
            got = dynamics.paths_at(paths, elapsed_s)
            want = reference_paths_at(dynamics, paths, elapsed_s)
            assert got == want
            for a, b in zip(got, want):
                assert float_bits(a.aoa_deg) == float_bits(b.aoa_deg)
                assert float_bits(a.gain_db) == float_bits(b.gain_db)
                assert type(a.aoa_deg) is type(b.aoa_deg)

    def test_evolved_paths_keep_their_validation(self):
        dynamics = EnvironmentDynamics(rng=3)
        path = PropagationPath(aoa_deg=10.0, length_m=5.0, gain_db=-60.0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            dynamics.paths_at([path], float("nan"))
        with pytest.raises(ValueError, match="finite and non-negative"):
            dynamics.paths_at([path], float("inf"))


# ------------------------------------------------------- invalid capture times
BAD_TIMES = [float("inf"), float("-inf"), float("nan"), -0.5]


class TestInvalidCaptureTimes:
    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_capture_request_refuses_bad_times(self, value):
        with pytest.raises(ValueError, match="elapsed_s"):
            CaptureRequest(position=Point(1.0, 1.0), elapsed_s=value)
        with pytest.raises(ValueError, match="timestamp_s"):
            CaptureRequest(position=Point(1.0, 1.0), timestamp_s=value)

    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_packet_request_refuses_bad_times(self, value):
        with pytest.raises(ValueError, match="timestamp_s"):
            PacketRequest(client_id=1, timestamp_s=value)
        with pytest.raises(ValueError, match="timestamp_s"):
            PacketRequest.from_dict({"client_id": 1, "timestamp_s": value})

    def test_negative_start_or_gap_fails_loudly(self):
        deployment = Deployment(fence_scenario())
        client_id = sorted(deployment.clients)[0]
        address = deployment.clients[client_id].address
        with pytest.raises(ValueError, match="elapsed_s"):
            deployment.traffic(client_id, start_s=-1.0)
        with pytest.raises(ValueError, match="elapsed_s"):
            deployment.traffic(client_id, num_packets=2, inter_packet_gap_s=-0.5)
        with pytest.raises(ValueError, match="elapsed_s"):
            next(deployment.client_packets(client_id, start_s=-1.0))
        with pytest.raises(ValueError, match="elapsed_s"):
            deployment.train(address, client_id, start_s=-1.0)

    def test_serve_replies_with_an_error_and_the_tenant_survives(self):
        config = TenantConfig(name="main", spec=resolve_scenario("figure5"),
                              train=(7,))

        async def scenario():
            service = SecureAngleService(
                [config], ServeConfig(port=0, max_batch=4, max_delay_s=0.005))
            await service.start()
            host, port = service.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            client = SmokeClient(reader, writer)
            try:
                await client.receive_op("hello")
                writer.write((json.dumps({
                    "op": "submit", "tenant": "main",
                    "request": {"client_id": 7, "timestamp_s": float("inf")},
                }) + "\n").encode())
                await writer.drain()
                error = json.loads(await reader.readline())
                await client.send({"op": "subscribe", "tenant": "main",
                                   "from_seq": 0})
                await client.receive_op("subscribed")
                await client.send({"op": "submit", "tenant": "main",
                                   "request": {"client_id": 7,
                                               "timestamp_s": 30.0}})
                replies = {}

                async def ack_and_event():
                    while len(replies) < 2:
                        message = await client.receive()
                        if message["op"] in ("ack", "event"):
                            replies[message["op"]] = message

                await asyncio.wait_for(ack_and_event(), timeout=30.0)
                return error, replies["ack"], replies["event"]
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                await service.stop()

        error, ack, event = asyncio.run(scenario())
        assert error["op"] == "error" and "timestamp_s" in error["error"]
        assert ack["seqs"] == [0]
        assert event["event"]["index"] == 0
