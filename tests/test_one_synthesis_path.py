"""One synthesis path: every scalar capture is a batch of one.

``TestbedSimulator.capture_batch`` and the batched layers under it
(``ArrayChannel.propagate_batch``, ``ArrayReceiver.capture_batch``,
``make_packet_waveforms``) are the only synthesis implementation.  Each
scalar entry point builds a one-item batch and returns item 0.  These tests
pin that wiring, the lazy deployment generators built on it, and the
one-row fast path of ``delay_ramps`` that keeps a batch of one cheap.
"""

import numpy as np
import pytest

import repro.aoa as aoa_package
import repro.phy.packet as packet_module
from repro.aoa import covariance as covariance_module
from repro.aoa import source_count as source_count_module
from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.subspace import SubspaceTracker
from repro.api import Deployment, fence_scenario
from repro.api import deployment as deployment_module
from repro.api.events import PacketEvent
from repro.arrays.geometry import OctagonalArray
from repro.attacks.attacker import Attacker
from repro.channel.channel import ArrayChannel
from repro.channel.dynamics import EnvironmentDynamics
from repro.channel.raytracer import RayTracer
from repro.core import fence as fence_module
from repro.core.access_point import SecureAngleAP
from repro.core.controller import SecureAngleController
from repro.core.fence import VirtualFence
from repro.core.spoofing import SpoofingDetector
from repro.core.tracker import SignatureTracker
from repro.hardware.receiver import ArrayReceiver
from repro.hardware.reference import CalibrationSource
from repro.hardware.switch import SwitchPosition
from repro.kernels.backend import NumpyBackend, delay_ramps
from repro.phy.ofdm import OfdmModulator
from repro.serve import tenants as tenants_module
from repro.serve.batcher import MicroBatcher
from repro.testbed import scenario as scenario_module
from repro.utils.serde import JsonSerializable
from repro.testbed.scenario import CaptureRequest
from repro.testbed.scenario import TestbedSimulator as Simulator


def bits_equal(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def captures_equal(a, b) -> bool:
    return (bits_equal(a.samples, b.samples)
            and a.timestamp_s == b.timestamp_s
            and a.metadata == b.metadata
            and a.calibrated == b.calibrated)


def packets_equal(a, b) -> bool:
    return (a.frame == b.frame and a.timestamp_s == b.timestamp_s
            and a.metadata == b.metadata
            and list(a.captures) == list(b.captures)
            and all(captures_equal(a.captures[name], b.captures[name])
                    for name in a.captures))


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap ``owner.name`` so every call's positional arguments are recorded."""
    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return calls
    return install


@pytest.fixture(scope="module")
def paths(environment):
    tracer = RayTracer(environment.floorplan, max_reflections=6)
    return tracer.trace(environment.client_position(1), environment.ap_position)


# ------------------------------------------------------------ scalar wrappers
class TestScalarEntryPointsAreBatchesOfOne:
    def test_capture_from_position(self, environment, count_calls):
        simulator = Simulator(environment, OctagonalArray(), rng=3)
        batches = count_calls(Simulator, "capture_batch")
        propagations = count_calls(ArrayChannel, "propagate_batch")
        receptions = count_calls(ArrayReceiver, "capture_batch")
        scalar_propagations = count_calls(ArrayChannel, "propagate")
        scalar_receptions = count_calls(ArrayReceiver, "capture")
        simulator.capture_from_position(environment.client_position(2))
        assert [len(args[1]) for args in batches] == [1]
        assert [len(args[1]) for args in propagations] == [1]
        assert [args[1].shape[0] for args in receptions] == [1]
        # The batch engine never re-enters a scalar wrapper.
        assert scalar_propagations == [] and scalar_receptions == []

    def test_capture_from_client_goes_through_capture_from_position(
            self, environment, count_calls):
        simulator = Simulator(environment, OctagonalArray(), rng=3)
        scalar = count_calls(Simulator, "capture_from_position")
        batches = count_calls(Simulator, "capture_batch")
        simulator.capture_from_client(4)
        assert len(scalar) == 1
        assert [len(args[1]) for args in batches] == [1]

    def test_propagate(self, paths, count_calls):
        channel = ArrayChannel(OctagonalArray(), rng=1)
        batches = count_calls(ArrayChannel, "propagate_batch")
        waveform = np.exp(2j * np.pi * np.arange(256) / 16.0)
        signals = channel.propagate(waveform, paths, rng=4)
        assert [len(args[1]) for args in batches] == [1]
        assert signals.shape == (8, 256)

    def test_receiver_capture(self, count_calls):
        receiver = ArrayReceiver(OctagonalArray(), rng=2)
        batches = count_calls(ArrayReceiver, "capture_batch")
        capture = receiver.capture(np.ones((8, 64), dtype=complex),
                                   timestamp_s=1.5, metadata={"k": 1})
        assert [args[1].shape for args in batches] == [(1, 8, 64)]
        assert capture.timestamp_s == 1.5 and capture.metadata == {"k": 1}

    def test_capture_calibration(self, count_calls):
        receiver = ArrayReceiver(OctagonalArray(), rng=2)
        batches = count_calls(ArrayReceiver, "capture_batch")
        capture = receiver.capture_calibration(CalibrationSource(num_outputs=8),
                                               num_samples=128)
        assert [args[1].shape for args in batches] == [(1, 8, 128)]
        assert capture.metadata == {"source": "calibration"}

    def test_make_packet_waveform(self, count_calls):
        batches = count_calls(packet_module, "make_packet_waveforms")
        packet = packet_module.make_packet_waveform(rng=5)
        assert [len(args[0]) for args in batches] == [1]
        assert packet.waveform.ndim == 1

    def test_random_payload_uses_the_batch_modulator(self, count_calls):
        modulator = OfdmModulator()
        batches = count_calls(OfdmModulator, "modulate_payload_batch")
        payload = modulator.random_payload(3, rng=6)
        assert [len(args[1]) for args in batches] == [1]
        assert payload.size == 3 * 80


class TestScalarCapturesMatchBatchItems:
    def test_capture_from_position_equals_one_item_batch(self, environment):
        scalar_sim = Simulator(environment, OctagonalArray(), rng=8)
        batch_sim = Simulator(environment, OctagonalArray(), rng=8)
        positions = [environment.client_position(cid) for cid in (1, 6, 9)]
        scalar = [scalar_sim.capture_from_position(position, elapsed_s=index)
                  for index, position in enumerate(positions)]
        batch = batch_sim.capture_batch([
            CaptureRequest(position=position, elapsed_s=index)
            for index, position in enumerate(positions)])
        assert all(captures_equal(a, b) for a, b in zip(scalar, batch))


# --------------------------------------------------------------- read-only
class TestCaptureBuffers:
    def test_scalar_simulator_captures_are_read_only(self, environment):
        capture = Simulator(environment, OctagonalArray(), rng=1).capture_from_client(3)
        assert not capture.samples.flags.writeable
        with pytest.raises(ValueError):
            capture.samples[0, 0] = 0.0

    def test_scalar_and_burst_captures_are_complex128(self, environment):
        simulator = Simulator(environment, OctagonalArray(), rng=7)
        captures = [simulator.capture_from_client(1),
                    *simulator.capture_burst_batch(1, 2)]
        assert [capture.samples.dtype for capture in captures] == [np.complex128] * 3

    def test_scalar_receiver_captures_are_read_only(self):
        receiver = ArrayReceiver(OctagonalArray(), rng=0)
        capture = receiver.capture(np.zeros((8, 32), dtype=complex))
        calibration = receiver.capture_calibration(CalibrationSource(num_outputs=8),
                                                   num_samples=32)
        assert not capture.samples.flags.writeable
        assert not calibration.samples.flags.writeable

    def test_calibration_switch_sequence(self, monkeypatch):
        receiver = ArrayReceiver(OctagonalArray(), rng=0)
        seen = []
        original = ArrayReceiver._frontend_table

        def spying(self, num_samples):
            seen.append(self.switch.positions)
            return original(self, num_samples)

        monkeypatch.setattr(ArrayReceiver, "_frontend_table", spying)
        receiver.capture_calibration(CalibrationSource(num_outputs=8), num_samples=64)
        assert seen == [[SwitchPosition.CALIBRATION] * 8]
        assert receiver.switch.positions == [SwitchPosition.ANTENNA] * 8
        receiver.capture(np.zeros((8, 64), dtype=complex))
        assert seen[-1] == [SwitchPosition.ANTENNA] * 8

    def test_failed_calibration_capture_returns_the_switches(self, monkeypatch):
        receiver = ArrayReceiver(OctagonalArray(), rng=0)

        def failing(self, num_samples):
            raise RuntimeError("front end fault")

        monkeypatch.setattr(ArrayReceiver, "_frontend_table", failing)
        with pytest.raises(RuntimeError, match="front end fault"):
            receiver.capture_calibration(CalibrationSource(num_outputs=8),
                                         num_samples=64)
        assert receiver.switch.positions == [SwitchPosition.ANTENNA] * 8


# ------------------------------------------------------------------ kernels
class TestDelayRampsOneRow:
    def test_one_row_equals_its_row_of_a_two_row_call(self):
        rows = np.array([[0.0, 0.37, 2.5, 1e-13],
                         [0.0, 1.25, 0.5, 3.75]])
        both = delay_ramps(rows, 96)
        for index in range(2):
            single = delay_ramps(rows[index:index + 1], 96)
            assert single.shape == (1, 4, 96)
            assert bits_equal(single[0], both[index])

    def test_one_row_skips_unique(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called for a single delay row")

        monkeypatch.setattr(np, "unique", forbidden)
        ramps = delay_ramps(np.array([[0.0, 0.5]]), 16)
        assert ramps.shape == (1, 2, 16)


# ---------------------------------------------------------------- deployment
@pytest.fixture(scope="module")
def fence_spec():
    return fence_scenario()


class TestLazyGenerators:
    def test_one_client_packet_consumes_one_packet_of_streams(self, fence_spec):
        pulled = Deployment(fence_spec)
        reference = Deployment(fence_spec)
        first = next(pulled.client_packets(1, num_packets=5))
        (expected,) = reference.client_packets(1, num_packets=1)
        assert packets_equal(first, expected)
        after = pulled.traffic(1, num_packets=3, start_s=20.0)
        expected_after = reference.traffic(1, num_packets=3, start_s=20.0)
        assert all(packets_equal(a, b) for a, b in zip(after, expected_after))

    def test_one_attacker_packet_consumes_one_packet_of_streams(self, fence_spec):
        pulled = Deployment(fence_spec)
        reference = Deployment(fence_spec)
        attacker = next(iter(pulled.attackers))
        victim = pulled.clients[1].address
        first = next(pulled.attacker_packets(attacker, victim, num_packets=5))
        (expected,) = reference.attacker_packets(attacker, victim, num_packets=1)
        assert packets_equal(first, expected)
        after = pulled.traffic(attacker=attacker, victim_address=victim,
                               num_packets=3, start_s=20.0)
        expected_after = reference.traffic(attacker=attacker, victim_address=victim,
                                           num_packets=3, start_s=20.0)
        assert all(packets_equal(a, b) for a, b in zip(after, expected_after))

    def test_generators_capture_each_packet_in_one_pass_over_the_aps(
            self, fence_spec, count_calls):
        deployment = Deployment(fence_spec)
        batches = count_calls(Simulator, "capture_batch")
        propagations = count_calls(ArrayChannel, "propagate_batch")
        receptions = count_calls(ArrayReceiver, "capture_batch")
        delays = count_calls(NumpyBackend, "fractional_delay")
        packets = deployment.client_packets(2, num_packets=4)
        next(packets)
        # One pass per packet: one request, every AP's row of it.
        assert [len(args[1]) for args in batches] == [1]
        assert [len(args[1]) for args in propagations] == [3]
        assert [args[1].shape[0] for args in receptions] == [3]
        assert len(delays) == 1
        next(packets)
        assert len(batches) == len(propagations) == len(receptions) == 2


class TestTrain:
    def test_train_matches_a_loop_of_one_request_batches(self, fence_spec,
                                                         count_calls):
        trained = Deployment(fence_spec)
        reference = Deployment(fence_spec)
        address = trained.clients[3].address
        batches = count_calls(Simulator, "capture_batch")
        trained.train(address, 3, num_packets=4, start_s=2.0)
        assert [len(args[1]) for args in batches] == [4]

        simulator = reference.simulator()
        position = reference.environment.client_position(3)
        captures = [
            simulator.capture_batch([CaptureRequest(
                position=position, elapsed_s=2.0 + 0.5 * index,
                timestamp_s=2.0 + 0.5 * index, metadata={"client_id": 3})])[0]
            for index in range(4)
        ]
        reference.ap().train_client(address, captures)

        got = trained.ap().database.require(address)
        want = reference.ap().database.require(address)
        assert bits_equal(got.signature.spectrum.values,
                          want.signature.spectrum.values)
        assert got.signature.peaks_deg == want.signature.peaks_deg
        assert got.signature.num_packets == want.signature.num_packets == 4
        assert got.trained_at_s == want.trained_at_s == 3.5


# ---------------------------------------------------------- removed surface
@pytest.mark.parametrize("owner, name", [
    (ArrayChannel, "_propagate_one"),
    (ArrayReceiver, "_receive"),
    (OfdmModulator, "modulate_payload"),
    (Simulator, "capture_burst"),
    (Simulator, "_packet_waveform"),
    (SecureAngleAP, "process_packet"),
    (SecureAngleAP, "process_packets"),
    (SecureAngleAP, "signature_from_capture"),
    (SecureAngleController, "process_packet"),
    (SecureAngleController, "localize_batch"),
    (SecureAngleController, "fence_check_batch"),
    (PacketEvent, "latency_s"),
    # One AoA implementation: the scalar spectra, the scalar conditioning,
    # the second and third gap rules and the tracker's model-order copy.
    (aoa_package, "music"),
    (aoa_package, "bartlett"),
    (aoa_package, "capon"),
    (aoa_package, "music_pseudospectrum"),
    (aoa_package, "bartlett_pseudospectrum"),
    (aoa_package, "capon_pseudospectrum"),
    (aoa_package, "forward_backward_average"),
    (aoa_package, "spatial_smoothing"),
    (aoa_package, "diagonal_loading"),
    (covariance_module, "forward_backward_average"),
    (covariance_module, "spatial_smoothing"),
    (covariance_module, "diagonal_loading"),
    (source_count_module, "eigenvalue_gap_order"),
    (source_count_module, "aic_order"),
    (source_count_module, "mdl_order"),
    (SubspaceTracker, "_model_order"),
    (BatchAoAEstimator, "_calibrate_matrices"),
])
def test_removed_twin_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("owner, name", [
    (Simulator, "capture_from_position"),
    (Simulator, "capture_batch"),
    (ArrayReceiver, "capture"),
    (ArrayReceiver, "capture_batch"),
    (ArrayChannel, "propagate"),
    (ArrayChannel, "propagate_batch"),
    (scenario_module, "make_packet_waveform"),
    (scenario_module, "make_packet_waveforms"),
    (Deployment, "process"),
    (Deployment, "run_batch"),
    (SecureAngleAP, "decide"),
    (BatchAoAEstimator, "process_batch"),
    *[(NumpyBackend, kernel) for kernel in (
        "eigh", "correlation_stack", "music_projection_power", "phase_walk",
        "fractional_delay", "matmul", "ifft")],
    # Subclass overrides are wrapped only where a class defines one.
    (Attacker, "shape_waveform"),
    (Attacker, "shape_paths"),
    (RayTracer, "trace"),
    (EnvironmentDynamics, "paths_at"),
    (SpoofingDetector, "check"),
    (SignatureTracker, "observe"),
    (VirtualFence, "check_bearings"),
    (fence_module, "triangulate_bearings"),
    (deployment_module, "triangulate_bearings"),
    (deployment_module, "signatures_from_pseudospectra"),
    (JsonSerializable, "to_dict"),
    (Simulator, "__init__"),
    (tenants_module, "synthesize_packet"),
    (MicroBatcher, "next_batch"),
])
def test_layer_entry_points_stay_own_attributes(owner, name):
    # Stage tracers wrap these by looking them up in the owner's own
    # namespace, so each must stay defined there (not inherited).
    assert callable(vars(owner)[name])


def test_the_estimator_is_the_engine():
    # One class: the stage tracer's wrapper on BatchAoAEstimator.process_batch
    # times every AoAEstimator call too.
    from repro.aoa import AoAEstimator
    from repro.aoa.estimator import AoAEstimator as estimator_module_class

    assert AoAEstimator is BatchAoAEstimator is estimator_module_class
