"""A deployment transmits each packet once; every AP receives that waveform.

``TestbedSimulator.transmit`` is the transmit side of a capture (payload bits,
stacked OFDM modulation, attacker waveform shaping) and ``capture_batch`` the
receive side (paths, fading, phase walks, noise).  ``Deployment.capture``
runs the transmit side once, on the primary AP's simulator, and hands the
same waveforms to every AP.  These tests pin that:

* one modulation call per burst and one waveform shaping per attacker
  packet, whatever the number of APs and whichever front door drives them;
* with every per-link random effect off, the APs' captures are complex
  multiples of one waveform;
* lone-AP and primary-AP captures keep their bytes: pinned digests, with and
  without receiver noise, plus the same captures from a stand-alone
  simulator;
* every AP of the three-AP fence keeps its bytes too, in batch and stream
  mode, with and without receiver noise.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import SCENARIOS, Deployment, fence_scenario, three_ap_scenario
from repro.attacks.attacker import Attacker
from repro.channel.channel import ChannelConfig
from repro.experiments.fence_eval import run_fence_evaluation
from repro.experiments.mobility import run_mobility_tracking
from repro.hardware.receiver import ReceiverConfig
from repro.testbed import scenario as scenario_module
from repro.testbed.scenario import CaptureRequest, SimulatorConfig

FENCE_ATTACKER = "directional-attacker"


class TransmitSpy:
    """Counts modulation calls (and the packets they modulate) and attacker
    waveform shapings."""

    def __init__(self, monkeypatch):
        self.modulations = 0
        self.modulated_packets = 0
        self.shapings = 0
        modulate = scenario_module.make_packet_waveforms
        shape = Attacker.shape_waveform

        def counting_modulate(frames, *args, **kwargs):
            self.modulations += 1
            self.modulated_packets += len(frames)
            return modulate(frames, *args, **kwargs)

        def counting_shape(attacker, *args, **kwargs):
            self.shapings += 1
            return shape(attacker, *args, **kwargs)

        monkeypatch.setattr(scenario_module, "make_packet_waveforms",
                            counting_modulate)
        # The fence scenario's directional attacker inherits the base shaping.
        monkeypatch.setattr(Attacker, "shape_waveform", counting_shape)


@pytest.fixture(scope="module")
def fence():
    return Deployment(fence_scenario())


class TestOneTransmissionPerPacket:
    def test_traffic_modulates_each_burst_once(self, fence, monkeypatch):
        spy = TransmitSpy(monkeypatch)
        packets = fence.traffic(4, num_packets=5, start_s=2.0)
        assert len(fence.simulators) == 3
        assert all(len(packet.captures) == 3 for packet in packets)
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (1, 5, 0)

    def test_attacker_traffic_shapes_each_packet_once(self, fence, monkeypatch):
        victim = fence.clients[5].address
        spy = TransmitSpy(monkeypatch)
        fence.traffic(attacker=FENCE_ATTACKER, victim_address=victim,
                      num_packets=4, start_s=30.0)
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (1, 4, 4)

    def test_client_packets_modulate_each_packet_once(self, fence, monkeypatch):
        spy = TransmitSpy(monkeypatch)
        packets = list(fence.client_packets(6, num_packets=3, start_s=5.0))
        assert len(packets) == 3
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (3, 3, 0)

    def test_attacker_packets_shape_each_packet_once(self, fence, monkeypatch):
        victim = fence.clients[5].address
        spy = TransmitSpy(monkeypatch)
        list(fence.attacker_packets(FENCE_ATTACKER, victim, num_packets=3,
                                    start_s=50.0))
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (3, 3, 3)

    def test_fence_evaluation_transmits_each_burst_once(self, monkeypatch):
        spy = TransmitSpy(monkeypatch)
        evaluation = run_fence_evaluation(packets_per_transmitter=2,
                                          client_ids=[3],
                                          outdoor_labels=["street-east"])
        # Client, outdoor probe, attacker: one burst of two packets each.
        assert len(evaluation.cases) == 3
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (3, 6, 2)

    def test_mobility_transmits_each_sample_once(self, monkeypatch):
        spy = TransmitSpy(monkeypatch)
        result = run_mobility_tracking(num_samples=3)
        assert len(result.errors_m) == 3
        assert (spy.modulations, spy.modulated_packets, spy.shapings) == (3, 3, 0)

    def test_transmit_leaves_the_ordinal_alone(self):
        deployment = Deployment(three_ap_scenario())
        simulator = deployment.simulator()
        request = CaptureRequest(position=deployment.environment.client_position(2))
        first = simulator.transmit([request])[0]
        again = simulator.transmit([request])[0]
        assert np.array_equal(first, again)
        assert simulator.transmit([]) == []

    def test_capture_batch_checks_the_waveform_count(self):
        deployment = Deployment(three_ap_scenario())
        simulator = deployment.simulator()
        request = CaptureRequest(position=deployment.environment.client_position(2))
        waveforms = simulator.transmit([request, request])
        with pytest.raises(ValueError, match="expected 1 waveforms, got 2"):
            simulator.capture_batch([request], waveforms=waveforms)


def _clean_links(spec):
    """The spec with every per-link random or frequency-selective effect off:
    no receiver noise, no phase walks, no path delays, no reflections."""
    return replace(spec, simulator=SimulatorConfig(
        max_reflections=0,
        channel=ChannelConfig(path_phase_walk_std_rad=0.0,
                              apply_path_delays=False),
        receiver=ReceiverConfig(add_noise=False)))


def _ratio_spread(a, b):
    """Relative spread of ``a / b`` over the samples where ``b`` is not tiny."""
    mask = np.abs(b) > 1e-6 * np.abs(b).max()
    ratio = a[mask] / b[mask]
    return float(np.max(np.abs(ratio - ratio[0])) / np.abs(ratio[0]))


class TestOneWaveform:
    @pytest.mark.parametrize("attacker", [False, True], ids=["client", "attacker"])
    def test_every_chain_is_a_multiple_of_one_waveform(self, attacker):
        deployment = Deployment(_clean_links(fence_scenario()))
        if attacker:
            packets = deployment.traffic(
                attacker=FENCE_ATTACKER,
                victim_address=deployment.clients[5].address,
                num_packets=2, start_s=10.0)
        else:
            packets = deployment.traffic(7, num_packets=2, start_s=10.0)
        for packet in packets:
            reference = packet.captures[deployment.primary_ap_name].samples[0]
            for capture in packet.captures.values():
                for chain in capture.samples:
                    assert _ratio_spread(chain, reference) < 1e-9
        # Distinct packets carry distinct payloads.
        first, second = (packet.captures["ap-east"].samples[0] for packet in packets)
        assert _ratio_spread(first, second) > 1e-3


def _digest(packets, ap_name):
    digest = hashlib.sha256()
    for packet in packets:
        digest.update(packet.captures[ap_name].samples.tobytes())
    return digest.hexdigest()


def _traffic(scenario, mode, attacker=None, add_noise=True):
    spec = SCENARIOS.get(scenario)()
    if not add_noise:
        spec = replace(spec, simulator=replace(
            spec.simulator, receiver=replace(spec.simulator.receiver,
                                             add_noise=False)))
    deployment = Deployment(spec)
    victim = deployment.clients[5].address
    if mode == "batch":
        packets = deployment.traffic(3, num_packets=4, start_s=1.0)
        if attacker is not None:
            packets += deployment.traffic(attacker=attacker, victim_address=victim,
                                          num_packets=3, start_s=40.0)
    else:
        packets = list(deployment.client_packets(3, num_packets=4, start_s=1.0))
        if attacker is not None:
            packets += list(deployment.attacker_packets(attacker, victim,
                                                        num_packets=3, start_s=40.0))
    return deployment, packets


#: sha256 of the primary AP's capture bytes for ``_traffic`` (float64
#: synthesis, phase walks drawn at their knots, receiver noise in one SFC64
#: fill per packet).  A lone AP and a deployment's primary AP transmit and
#: receive the same bytes, so these move only when the synthesis model itself
#: is re-drawn.
PINNED_DIGESTS = {
    "figure5": "63544271d4b56f4cd3e2f650f52b9a77940bd818acc15cf9301b9a00b3801846",
    "replay": "cbedc23de75d1af7b295d109f935b839add6879a2c8b4e4c809931abf341cc4d",
    "fence": "154f39e11b503b2662b35e2958f557c65c27e424d5cff90f38178cde1f6037c6",
}
#: The same captures with receiver noise off.  Pinned before the noise draw
#: moved to SFC64 and unchanged by it: every stream but the noise (24) keeps
#: its bytes.
NOISELESS_DIGESTS = {
    "figure5": "c147998dbd0e21472f51a7d8a407dc7b6379c5f22b423eb663eab04aeb8eec02",
    "replay": "1a062398b5e56c1d8dd18facc33397eeac457475908b3cd0518866cee3b1ca70",
    "fence": "8bd7edd8a59f7e515cd20c3d487dff8bbaf4e730d795a5a9d2fbd377ae920ec8",
}
ATTACKERS = {"figure5": None, "replay": "replay-indoor", "fence": FENCE_ATTACKER}


def _kernel_fingerprint():
    """sha256 of the numeric kernels synthesis rounds through: FFTs, float64
    trig, complex matmul and normal draws.  Another numpy build or SIMD
    level can round them differently, and then every capture byte moves."""
    rng = np.random.default_rng(2024)
    x = rng.standard_normal(4096)
    z = x[:2048] + 1j * x[2048:]
    digest = hashlib.sha256()
    for array in (np.fft.fft(z[:1920]), np.fft.ifft(z[:1920]), np.cos(40 * x),
                  np.sin(40 * x), np.exp(1j * x),
                  z[:64].reshape(8, 8) @ z[64:128].reshape(8, 8),
                  rng.standard_normal(64)):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: ``_kernel_fingerprint()`` on the host that computed ``PINNED_DIGESTS``.
PINNING_HOST_KERNELS = "6834fb764b22c17075b8830cebc3abec0be8959c5b81f5bd204d91377ea23003"


def _skip_off_the_pinning_host():
    if _kernel_fingerprint() != PINNING_HOST_KERNELS:
        pytest.skip("numpy's kernels round differently here than on the "
                    "pinning host; the stand-alone simulator test below "
                    "checks the primary AP's bytes on any host")


#: sha256 of every fence AP's capture bytes for ``_traffic("fence", ...)``,
#: keyed by receiver noise on or off.  Pinned when each AP still synthesised
#: its own rows in a separate batch, so they hold the one-pass synthesis over
#: every AP to the bytes of the per-AP batches it replaced.
FENCE_AP_DIGESTS = {
    True: {
        "ap-main": "154f39e11b503b2662b35e2958f557c65c27e424d5cff90f38178cde1f6037c6",
        "ap-east": "0559eaa66bbf7d2fde7678a8e091cc34cab3a886234160cea0f0e262ba3c1949",
        "ap-south": "370ef79309c4600d9fe2fce71ac1242429969aa2d817c8242148c9add0d5243a",
    },
    False: {
        "ap-main": "8bd7edd8a59f7e515cd20c3d487dff8bbaf4e730d795a5a9d2fbd377ae920ec8",
        "ap-east": "11e542ea6cd4458afe255eb66511b2359ac7ce81e3b0ca16cbdb0221ae4fed2c",
        "ap-south": "0a7b102723dcbda72bfa5254721f88231c2a101aa41bb948aac9890c8575de90",
    },
}


class TestPrimaryBytes:
    @pytest.mark.parametrize("mode", ["batch", "stream"])
    @pytest.mark.parametrize("scenario", sorted(PINNED_DIGESTS))
    def test_primary_captures_keep_their_digest(self, scenario, mode):
        _skip_off_the_pinning_host()
        deployment, packets = _traffic(scenario, mode, ATTACKERS[scenario])
        assert _digest(packets, deployment.primary_ap_name) == PINNED_DIGESTS[scenario]

    @pytest.mark.parametrize("mode", ["batch", "stream"])
    @pytest.mark.parametrize("scenario", sorted(NOISELESS_DIGESTS))
    def test_noiseless_captures_keep_their_digest(self, scenario, mode):
        _skip_off_the_pinning_host()
        deployment, packets = _traffic(scenario, mode, ATTACKERS[scenario],
                                       add_noise=False)
        assert (_digest(packets, deployment.primary_ap_name)
                == NOISELESS_DIGESTS[scenario])

    def test_primary_captures_equal_a_stand_alone_simulator(self):
        deployment = Deployment(fence_scenario())
        twin = Deployment(fence_scenario()).simulator()
        attacker = deployment.attackers[FENCE_ATTACKER]
        position = deployment.environment.client_position(2)
        requests = [CaptureRequest(position=position, elapsed_s=4.0 + index)
                    for index in range(3)]
        requests += [CaptureRequest(position=attacker.position,
                                    tx_power_dbm=attacker.tx_power_dbm,
                                    elapsed_s=20.0 + index, attacker=attacker)
                     for index in range(2)]
        shared = deployment.capture(requests)
        assert list(shared) == ["ap-main", "ap-east", "ap-south"]
        # The stand-alone simulator transmits for itself.
        alone = twin.capture_batch(requests)
        assert all(np.array_equal(a.samples.view(np.uint8), b.samples.view(np.uint8))
                   and a.metadata == b.metadata
                   for a, b in zip(shared["ap-main"], alone))


class TestEveryApBytes:
    @pytest.mark.parametrize("add_noise", [True, False], ids=["noise", "noiseless"])
    @pytest.mark.parametrize("mode", ["batch", "stream"])
    def test_every_fence_ap_keeps_its_digest(self, mode, add_noise):
        _skip_off_the_pinning_host()
        deployment, packets = _traffic("fence", mode, FENCE_ATTACKER,
                                       add_noise=add_noise)
        assert list(deployment.simulators) == ["ap-main", "ap-east", "ap-south"]
        assert ({name: _digest(packets, name) for name in deployment.simulators}
                == FENCE_AP_DIGESTS[add_noise])
