"""Batched capture synthesis must be bit-identical to the scalar path.

PR 1 proved the analysis side: batch and scalar AoA processing agree packet
for packet.  These tests prove the same for the transmit side — waveform
modulation, channel propagation, receiver impairments, and the full
``TestbedSimulator`` / ``Deployment`` capture paths — under pinned per-packet
rng substreams.  Equality is asserted on the raw bytes (``view(np.uint8)``),
not ``allclose``: the batched engine is the scalar path re-shaped, not an
approximation of it.
"""

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.api.deployment import Deployment
from repro.api.spec import AttackerSpec
from repro.arrays.geometry import OctagonalArray
from repro.channel import channel as channel_module
from repro.channel.channel import (
    PROPAGATION_CHUNK,
    ArrayChannel,
    ChannelConfig,
    fractional_delay,
    fractional_delay_batch,
    phase_random_walk,
    phase_random_walk_batch,
)
from repro.channel.raytracer import RayTracer
from repro.hardware.receiver import ArrayReceiver
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.phy.ofdm import OfdmModulator, _qpsk_map
from repro.phy.packet import make_packet_waveform, make_packet_waveforms
from repro.testbed.environment import figure4_environment
from repro.testbed.scenario import CaptureRequest, SimulatorConfig
from repro.testbed.scenario import TestbedSimulator as Simulator
from repro.utils.rng import spawn_rng


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact bit-pattern equality (distinguishes even -0.0 from +0.0)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def captures_equal(a, b) -> bool:
    return (bits_equal(a.samples, b.samples)
            and a.timestamp_s == b.timestamp_s
            and a.metadata == b.metadata
            and a.calibrated == b.calibrated)


@pytest.fixture(scope="module")
def environment():
    return figure4_environment()


@pytest.fixture(scope="module")
def traced_paths(environment):
    tracer = RayTracer(environment.floorplan, max_reflections=6)
    return tracer.trace(environment.client_position(1), environment.ap_position)


# ---------------------------------------------------------------------- kernels
class TestKernelEquivalence:
    def test_fractional_delay_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        waveform = rng.normal(size=1500) + 1j * rng.normal(size=1500)
        delays = np.array([0.0, 0.25, -1.5, 3.75, 1e-13])
        batch = fractional_delay_batch(waveform, delays)
        for row, delay in zip(batch, delays):
            assert bits_equal(row, fractional_delay(waveform, delay))

    def test_fractional_delay_batch_stacked_matches_per_packet(self):
        rng = np.random.default_rng(1)
        waveforms = rng.normal(size=(6, 900)) + 1j * rng.normal(size=(6, 900))
        delays = np.tile(np.array([0.0, 0.6, 1.3]), (6, 1))
        delays[3:] += 0.111  # two distinct delay rows exercise the dedup path
        delays[3:, 0] = 0.0
        stacked = fractional_delay_batch(waveforms[:, None, :], delays)
        for index in range(6):
            per_packet = fractional_delay_batch(waveforms[index], delays[index])
            assert bits_equal(stacked[index], per_packet)

    def test_phase_random_walk_batch_matches_scalar_loop(self):
        loop = np.stack([
            phase_random_walk(512, 0.02, np.random.default_rng(3))
            for _ in range(1)
        ])
        g1 = np.random.default_rng(3)
        g2 = np.random.default_rng(3)
        loop = np.stack([phase_random_walk(512, 0.02, g1) for _ in range(7)])
        batch = phase_random_walk_batch(7, 512, 0.02, g2)
        assert bits_equal(loop, batch)

    def test_modulate_payload_batch_matches_scalar(self):
        modulator = OfdmModulator()
        rng = np.random.default_rng(4)
        bits_batch = [rng.integers(0, 2, size=n) for n in (208, 2080, 500, 2080)]
        batched = modulator.modulate_payload_batch(bits_batch)
        for bits, payload in zip(bits_batch, batched):
            assert bits_equal(payload, modulator.modulate_payload_batch([bits])[0])

    def test_modulate_payload_matches_per_symbol_loop(self):
        # Regression for the stacked-IFFT payload modulation.
        modulator = OfdmModulator()
        bits = np.random.default_rng(5).integers(0, 2, size=3 * 104)
        per_symbol = np.concatenate([
            modulator.modulate_symbol(_qpsk_map(bits[start:start + 104]))
            for start in range(0, bits.size, 104)
        ])
        assert bits_equal(modulator.modulate_payload_batch([bits])[0], per_symbol)

    def test_make_packet_waveforms_matches_scalar(self):
        frames = [None] + [
            Dot11Frame(source=MacAddress("02:00:00:00:00:01"),
                       destination=MacAddress("02:00:00:00:00:02"),
                       sequence_number=index, payload=b"payload")
            for index in range(3)
        ]
        scalar = [
            make_packet_waveform(frame, rng=np.random.default_rng(10 + index))
            for index, frame in enumerate(frames)
        ]
        batch = make_packet_waveforms(
            frames, rngs=[np.random.default_rng(10 + index)
                          for index in range(len(frames))])
        for a, b in zip(scalar, batch):
            assert bits_equal(a.waveform, b.waveform)

    def test_make_packet_waveforms_mixed_lengths(self):
        # An oversized frame grows its packet, forcing the per-packet
        # assembly fallback; equality must still hold.
        long_frame = Dot11Frame(source=MacAddress("02:00:00:00:00:01"),
                                destination=MacAddress("02:00:00:00:00:02"),
                                payload=b"x" * 2000)
        frames = [None, long_frame]
        scalar = [
            make_packet_waveform(frame, num_payload_symbols=2,
                                 rng=np.random.default_rng(20 + index))
            for index, frame in enumerate(frames)
        ]
        batch = make_packet_waveforms(
            frames, num_payload_symbols=2,
            rngs=[np.random.default_rng(20 + index) for index in range(2)])
        assert scalar[0].waveform.size != scalar[1].waveform.size
        for a, b in zip(scalar, batch):
            assert bits_equal(a.waveform, b.waveform)


# ---------------------------------------------------------------- channel layer
class TestChannelEquivalence:
    def test_propagate_batch_matches_scalar_loop(self, traced_paths):
        channel = ArrayChannel(OctagonalArray(), orientation_deg=30.0, rng=1)
        rng = np.random.default_rng(0)
        batch_size = 9
        waveforms = [rng.normal(size=1200) + 1j * rng.normal(size=1200)
                     for _ in range(batch_size)]
        # Varying path counts exercise the zero-padding.
        paths_batch = [traced_paths[: 3 + index % 4] for index in range(batch_size)]
        fadings = [
            np.random.default_rng(200 + index).normal(size=len(paths)) + 0.2j
            for index, paths in enumerate(paths_batch)
        ]
        master_a = np.random.default_rng(7)
        master_b = np.random.default_rng(7)
        rngs_a = [spawn_rng(master_a, 23) for _ in range(batch_size)]
        rngs_b = [spawn_rng(master_b, 23) for _ in range(batch_size)]
        scalar = np.stack([
            channel.propagate(waveforms[i], paths_batch[i], 12.0, fadings[i],
                              rng=rngs_a[i])
            for i in range(batch_size)
        ])
        batch = channel.propagate_batch(waveforms, paths_batch, 12.0, fadings,
                                        rngs=rngs_b)
        assert bits_equal(scalar, batch)

    @pytest.mark.parametrize("config", [
        ChannelConfig(),
        ChannelConfig(path_phase_walk_std_rad=0.0, apply_path_delays=False),
    ], ids=["delays-and-walks", "plain"])
    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_propagate_batch_bytes_do_not_depend_on_chunking(
            self, traced_paths, config, chunk, monkeypatch):
        # 2.5 chunks of packets with varying path counts (zero-padded rows in
        # every chunk); a chunk of None is the whole batch in one pass.
        batch_size = 2 * PROPAGATION_CHUNK + PROPAGATION_CHUNK // 2
        rng = np.random.default_rng(5)
        waveforms = [rng.normal(size=700) + 1j * rng.normal(size=700)
                     for _ in range(batch_size)]
        paths_batch = [traced_paths[: 2 + index % 5] for index in range(batch_size)]

        def propagate():
            channel = ArrayChannel(OctagonalArray(), config=config, rng=6)
            rngs = [np.random.default_rng(300 + i) for i in range(batch_size)]
            return channel.propagate_batch(waveforms, paths_batch, 14.0, rngs=rngs)

        default = propagate()
        monkeypatch.setattr(channel_module, "PROPAGATION_CHUNK", chunk or batch_size)
        assert bits_equal(propagate(), default)

    def test_propagate_batch_without_delays_or_walks(self, traced_paths):
        config = ChannelConfig(path_phase_walk_std_rad=0.0,
                               apply_path_delays=False)
        channel = ArrayChannel(OctagonalArray(), config=config, rng=2)
        rng = np.random.default_rng(1)
        waveforms = [rng.normal(size=640) + 1j * rng.normal(size=640)
                     for _ in range(4)]
        scalar = np.stack([
            channel.propagate(w, traced_paths, 15.0, None) for w in waveforms
        ])
        batch = channel.propagate_batch(waveforms, [traced_paths] * 4, 15.0, None)
        assert bits_equal(scalar, batch)

    def test_propagate_batch_consumes_own_rng_like_a_loop(self, traced_paths):
        # rngs=None must drain the channel's generator exactly as a scalar
        # loop over the same packets would.
        a = ArrayChannel(OctagonalArray(), rng=3)
        b = ArrayChannel(OctagonalArray(), rng=3)
        rng = np.random.default_rng(2)
        waveforms = [rng.normal(size=512) + 1j * rng.normal(size=512)
                     for _ in range(5)]
        scalar = np.stack([a.propagate(w, traced_paths) for w in waveforms])
        batch = b.propagate_batch(waveforms, [traced_paths] * 5)
        assert bits_equal(scalar, batch)

    def test_propagate_batch_per_packet_tx_power(self, traced_paths):
        channel = ArrayChannel(OctagonalArray(), rng=4)
        rng = np.random.default_rng(3)
        waveforms = [rng.normal(size=256) + 0j for _ in range(3)]
        powers = [5.0, 15.0, 25.0]
        rngs_a = [np.random.default_rng(i) for i in range(3)]
        rngs_b = [np.random.default_rng(i) for i in range(3)]
        scalar = np.stack([
            channel.propagate(w, traced_paths, tx_power_dbm=p, rng=g)
            for w, p, g in zip(waveforms, powers, rngs_a)
        ])
        batch = channel.propagate_batch(waveforms, [traced_paths] * 3,
                                        tx_power_dbm=np.array(powers),
                                        rngs=rngs_b)
        assert bits_equal(scalar, batch)


# --------------------------------------------------------------- receiver layer
class TestReceiverEquivalence:
    def test_capture_batch_matches_scalar_loop(self):
        array = OctagonalArray()
        batch_size, num_samples = 12, 800
        rng = np.random.default_rng(0)
        signals = rng.normal(size=(batch_size, array.num_elements, num_samples)) \
            + 1j * rng.normal(size=(batch_size, array.num_elements, num_samples))
        scalar_receiver = ArrayReceiver(array, rng=42)
        batch_receiver = ArrayReceiver(array, rng=42)
        master_a = np.random.default_rng(9)
        master_b = np.random.default_rng(9)
        rngs_a = [spawn_rng(master_a, 24) for _ in range(batch_size)]
        rngs_b = [spawn_rng(master_b, 24) for _ in range(batch_size)]
        scalar = [
            scalar_receiver.capture(signals[i], timestamp_s=0.5 * i,
                                    metadata={"index": i}, rng=rngs_a[i])
            for i in range(batch_size)
        ]
        batch = batch_receiver.capture_batch(
            signals,
            timestamps_s=[0.5 * i for i in range(batch_size)],
            metadata=[{"index": i} for i in range(batch_size)],
            rngs=rngs_b)
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))

    def test_capture_batch_noiseless(self):
        array = OctagonalArray()
        rng = np.random.default_rng(1)
        signals = rng.normal(size=(3, array.num_elements, 64)) + 0j
        receiver = ArrayReceiver(array, rng=7)
        scalar = [receiver.capture(s, add_noise=False) for s in signals]
        batch = receiver.capture_batch(signals, add_noise=False)
        assert all(bits_equal(a.samples, b.samples)
                   for a, b in zip(scalar, batch))

    def test_capture_batch_validates_shapes(self):
        receiver = ArrayReceiver(OctagonalArray(), rng=0)
        with pytest.raises(ValueError):
            receiver.capture_batch(np.zeros((2, 3, 16), dtype=complex))


# --------------------------------------------------------------- simulator layer
def _client_loop(simulator, client_id, num_packets, inter_packet_gap_s=0.5):
    """A burst as one capture_from_client call per packet."""
    return [
        simulator.capture_from_client(client_id, elapsed_s=index * inter_packet_gap_s,
                                      timestamp_s=index * inter_packet_gap_s)
        for index in range(num_packets)
    ]


class TestSimulatorEquivalence:
    def test_capture_burst_batch_matches_scalar_burst(self, environment):
        scalar_sim = Simulator(environment, OctagonalArray(), rng=42)
        batch_sim = Simulator(environment, OctagonalArray(), rng=42)
        scalar = _client_loop(scalar_sim, 5, 12, inter_packet_gap_s=0.5)
        batch = batch_sim.capture_burst_batch(5, 12, inter_packet_gap_s=0.5)
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))

    def test_dynamic_environment_epochs_stay_equal_and_invalidate(self, environment):
        # Every packet lands on a different dynamics epoch: the cache must
        # serve evolved path sets per epoch (invalidation by key), and the
        # batch must still reproduce the scalar captures bit for bit.
        scalar_sim = Simulator(environment, OctagonalArray(), rng=7)
        batch_sim = Simulator(environment, OctagonalArray(), rng=7)
        position = environment.client_position(2)
        epochs = [0.0, 10.0, 100.0, 1000.0]
        scalar = [
            scalar_sim.capture_from_position(position, elapsed_s=epoch,
                                             timestamp_s=index)
            for index, epoch in enumerate(epochs)
        ]
        requests = [
            CaptureRequest(position=position, elapsed_s=epoch, timestamp_s=index)
            for index, epoch in enumerate(epochs)
        ]
        batch = batch_sim.capture_batch(requests)
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))
        # Distinct epochs produce distinct path sets (drift applied) ...
        paths_now = batch_sim._resolve_paths(position, 0.0, None)
        paths_later = batch_sim._resolve_paths(position, 1000.0, None)
        assert any(a.aoa_deg != b.aoa_deg
                   for a, b in zip(paths_now, paths_later))
        # ... while repeated epochs hit the cache and stay deterministic.
        info_before = batch_sim.path_cache_info()
        again = batch_sim._resolve_paths(position, 1000.0, None)
        assert [p.aoa_deg for p in again] == [p.aoa_deg for p in paths_later]
        assert batch_sim.path_cache_info()["hits"] == info_before["hits"] + 1

    def test_path_cache_counts_avoided_traces(self, environment):
        simulator = Simulator(environment, OctagonalArray(), rng=1)
        simulator.capture_burst_batch(3, 8, inter_packet_gap_s=0.5)
        info = simulator.path_cache_info()
        # One geometry trace for the client position; every other packet
        # reused it (directly or through a dynamics epoch).
        assert info["misses"] == 1
        assert info["hits"] >= 7
        simulator.clear_path_cache()
        assert simulator.path_cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_path_cache_keeps_base_geometry_under_epoch_churn(self, environment):
        # Streaming stores one entry per new epoch; with least-recently-used
        # eviction the base geometry every epoch evolves from stays cached.
        size = 8
        cached = Simulator(environment, OctagonalArray(),
                           config=SimulatorConfig(path_cache_size=size), rng=5)
        traced = Simulator(environment, OctagonalArray(),
                           config=SimulatorConfig(cache_paths=False), rng=5)
        position = environment.client_position(6)
        requests = [CaptureRequest(position=position, elapsed_s=1.0 + index)
                    for index in range(size + 50)]
        with_cache = [cached.capture_from_position(position, elapsed_s=request.elapsed_s)
                      for request in requests]
        assert cached.path_cache_info()["misses"] == 1
        assert cached.path_cache_info()["size"] == size
        assert all(captures_equal(a, b)
                   for a, b in zip(with_cache, traced.capture_batch(requests)))

    def test_cache_disabled_still_equal(self, environment):
        config = SimulatorConfig(cache_paths=False)
        scalar_sim = Simulator(environment, OctagonalArray(),
                                      config=config, rng=3)
        batch_sim = Simulator(environment, OctagonalArray(),
                                     config=config, rng=3)
        scalar = _client_loop(scalar_sim, 4, 5)
        batch = batch_sim.capture_burst_batch(4, 5)
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))
        assert batch_sim.path_cache_info()["size"] == 0

    def test_reuse_waveforms_mode_is_batch_scalar_consistent(self, environment):
        # The throughput mode changes what is synthesised (payload bits are
        # reused across packets) but batch and scalar must still agree.
        config = SimulatorConfig(reuse_waveforms=True)
        scalar_sim = Simulator(environment, OctagonalArray(),
                                      config=config, rng=11)
        batch_sim = Simulator(environment, OctagonalArray(),
                                     config=config, rng=11)
        scalar = _client_loop(scalar_sim, 1, 6)
        batch = batch_sim.capture_burst_batch(1, 6)
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))
        # And it must actually reuse: one cached waveform for the burst.
        assert len(batch_sim._waveform_cache) == 1

    def test_interleaved_scalar_then_batch_keeps_stream_alignment(self, environment):
        # A batch consumes the master generator exactly like the equivalent
        # scalar packets, so scalar and batched calls can be mixed freely.
        sim_a = Simulator(environment, OctagonalArray(), rng=9)
        sim_b = Simulator(environment, OctagonalArray(), rng=9)
        first_a = sim_a.capture_from_client(1)
        rest_a = [sim_a.capture_from_client(1, elapsed_s=0.5 * (i + 1),
                                            timestamp_s=0.5 * (i + 1))
                  for i in range(3)]
        first_b = sim_b.capture_from_client(1)
        rest_b = sim_b.capture_batch([
            CaptureRequest(position=environment.client_position(1),
                           elapsed_s=0.5 * (i + 1), timestamp_s=0.5 * (i + 1),
                           metadata={"client_id": 1})
            for i in range(3)
        ])
        assert captures_equal(first_a, first_b)
        assert all(captures_equal(a, b) for a, b in zip(rest_a, rest_b))


# -------------------------------------------------------------- deployment layer
class TestDeploymentTraffic:
    def packets_equal(self, a, b):
        return (a.frame == b.frame and a.timestamp_s == b.timestamp_s
                and a.metadata == b.metadata
                and list(a.captures) == list(b.captures)
                and all(captures_equal(a.captures[k], b.captures[k])
                        for k in a.captures))

    def test_traffic_matches_client_packets(self):
        spec = ScenarioSpec(name="equiv", seed=1234)
        scalar_dep = Deployment(spec)
        batch_dep = Deployment(spec)
        scalar = list(scalar_dep.client_packets(1, num_packets=8))
        batch = batch_dep.traffic(1, num_packets=8)
        assert all(self.packets_equal(a, b) for a, b in zip(scalar, batch))

    def test_traffic_matches_attacker_packets(self):
        spec = ScenarioSpec(name="equiv-attack", seed=99,
                            attackers=(AttackerSpec(name="eve",
                                                    position=(9.0, 2.0)),))
        scalar_dep = Deployment(spec)
        batch_dep = Deployment(spec)
        victim = scalar_dep.clients[1].address
        assert victim == batch_dep.clients[1].address
        scalar = list(scalar_dep.attacker_packets("eve", victim, num_packets=6))
        batch = batch_dep.traffic(attacker="eve", victim_address=victim,
                                  num_packets=6)
        assert all(self.packets_equal(a, b) for a, b in zip(scalar, batch))

    def test_traffic_argument_validation(self):
        dep = Deployment(ScenarioSpec(name="args", seed=1))
        with pytest.raises(ValueError):
            dep.traffic()  # neither client nor attacker
        with pytest.raises(ValueError):
            dep.traffic(1, attacker="eve")  # both
        with pytest.raises(ValueError):
            dep.traffic(attacker="eve")  # attacker without victim

    def test_run_batch_over_traffic_matches_streaming_run(self):
        spec = ScenarioSpec(name="e2e", seed=1234)
        scalar_dep = Deployment(spec)
        batch_dep = Deployment(spec)
        scalar_events = list(scalar_dep.process(
            scalar_dep.client_packets(1, num_packets=8)))
        batch_events = batch_dep.run_batch(batch_dep.traffic(1, num_packets=8))
        for scalar_event, batch_event in zip(scalar_events, batch_events):
            assert scalar_event.source == batch_event.source
            assert scalar_event.verdict == batch_event.verdict
            assert scalar_event.bearings_deg == batch_event.bearings_deg

    def test_latency_semantics_are_pinned(self):
        # v1 events resolve the old latency_s ambiguity into explicit
        # fields: process() measures each packet's own analysis time
        # (packet_latency_s), run_batch() attributes the batch mean
        # (batch_latency_s); exactly one of the two is set per path.  Both
        # are positive, so 1 / mean(decision_latency_s) is a comparable
        # packets-per-second figure either way.
        spec = ScenarioSpec(name="latency", seed=5)
        dep = Deployment(spec)
        streaming = list(dep.process(dep.client_packets(1, num_packets=4)))
        assert all(event.packet_latency_s > 0 for event in streaming)
        assert all(event.batch_latency_s is None for event in streaming)
        assert len({event.packet_latency_s for event in streaming}) > 1
        batched = dep.run_batch(dep.traffic(1, num_packets=4, start_s=10.0))
        assert all(event.packet_latency_s is None for event in batched)
        assert all(event.batch_latency_s > 0 for event in batched)
        assert len({event.batch_latency_s for event in batched}) == 1
        assert all(event.decision_latency_s > 0
                   for event in streaming + batched)
