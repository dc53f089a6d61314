"""Counter-addressed capture randomness.

Every capture's random substreams are a pure function of (simulator root,
capture ordinal, stream id), so:

* a waveform-shaping attacker's extra substream shifts no other capture;
* ``skip_captures(k)`` on a fresh simulator yields the serial run's k-th
  capture, whatever else touched the generators in between;
* distinct ordinals never share a substream the way 31-bit spawn seeds did.
"""

import copy
from dataclasses import replace

import pytest

from repro.api import Deployment, replay_scenario, single_ap_scenario
from repro.arrays.geometry import OctagonalArray
from repro.attacks.attacker import OmnidirectionalAttacker
from repro.attacks.families import CfoDriftAttacker, ReplayAttacker
from repro.mac.address import MacAddress
from repro.testbed.environment import figure4_environment
from repro.testbed.scenario import CaptureRequest, TestbedSimulator
from repro.utils.rng import ensure_rng

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ENVIRONMENT = figure4_environment()
ADDRESS = MacAddress("02:00:00:00:00:66")


def _client(client_id, elapsed_s=0.0):
    return CaptureRequest(position=ENVIRONMENT.client_position(client_id),
                          elapsed_s=elapsed_s, timestamp_s=elapsed_s)


def _attacker_request(attacker_type, elapsed_s):
    position = ENVIRONMENT.client_position(9)
    return CaptureRequest(position=position, elapsed_s=elapsed_s,
                          timestamp_s=elapsed_s,
                          attacker=attacker_type(position=position,
                                                 address=ADDRESS))


class TestShapingAttackersShiftNothing:
    @pytest.mark.parametrize("mode", ["batch", "scalar"])
    @pytest.mark.parametrize("slot", [0, 2])
    @pytest.mark.parametrize("shaping", [ReplayAttacker, CfoDriftAttacker])
    def test_only_the_swapped_slot_changes(self, shaping, slot, mode):
        clients = [_client(1), _client(3, 0.5), _client(7, 1.0), _client(2, 1.5)]

        def run(attacker_type):
            requests = list(clients)
            requests.insert(slot, _attacker_request(attacker_type, 2.0))
            simulator = TestbedSimulator(ENVIRONMENT, OctagonalArray(), rng=5)
            if mode == "batch":
                return simulator.capture_batch(requests)
            return [simulator.capture_batch([request])[0] for request in requests]

        shaped = run(shaping)
        plain = run(OmnidirectionalAttacker)
        for index, (a, b) in enumerate(zip(shaped, plain)):
            if index == slot:
                assert a.samples.tobytes() != b.samples.tobytes()
            else:
                assert a.samples.tobytes() == b.samples.tobytes()


# A lone AP on the master generator, with the replay family's shaping
# attackers: the layout where draws between captures used to matter most.
LONE_REPLAY = replace(replay_scenario(), access_points=(
    replace(replay_scenario().access_points[0], rng_stream=None),))
ATTACKERS = list(Deployment(LONE_REPLAY).attackers.values())

request_items = st.one_of(
    st.tuples(st.just("client"), st.integers(1, 20)),
    st.tuples(st.just("attacker"), st.integers(0, len(ATTACKERS) - 1)),
)
interludes = st.sampled_from(["none", "calibration", "attackers", "caller"])


def _request(item, elapsed_s):
    kind, which = item
    if kind == "client":
        return _client(which, elapsed_s)
    attacker = ATTACKERS[which]
    return CaptureRequest(position=attacker.position, attacker=attacker,
                          elapsed_s=elapsed_s, timestamp_s=elapsed_s)


class TestSkipCapturesProperty:
    @given(items=st.lists(request_items, min_size=1, max_size=6),
           between=st.lists(interludes, min_size=6, max_size=6),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fresh_skip_returns_the_serial_capture(self, items, between, data):
        k = data.draw(st.integers(0, len(items) - 1), label="k")
        requests = [_request(item, 0.5 * index) for index, item in enumerate(items)]

        caller = ensure_rng(3)
        serial = Deployment(LONE_REPLAY, rng=caller)
        simulator = serial.simulator()
        captures = []
        for request, interlude in zip(requests, between):
            captures.append(simulator.capture_batch([request])[0])
            if interlude == "calibration":
                # Drop the cached table so the call draws its spawn afresh.
                simulator._calibration = None
                simulator.calibration_table(num_samples=256)
            elif interlude == "attackers":
                _ = serial.attackers
            elif interlude == "caller":
                caller.standard_normal(7)

        fresh = Deployment(LONE_REPLAY, rng=ensure_rng(3)).simulator()
        fresh.skip_captures(k)
        capture = fresh.capture_batch([requests[k]])[0]
        assert capture.samples.tobytes() == captures[k].samples.tobytes()


class TestOrdinalsDoNotCollide:
    @staticmethod
    def _receiver_draws(ordinal, monkeypatch):
        """The first draws of the receiver-noise generator at ``ordinal``."""
        simulator = Deployment(single_ap_scenario()).simulator()
        simulator.skip_captures(ordinal)
        draws = []
        original = simulator.receiver.capture_batch

        def recording(signals, **kwargs):
            # Draw from a copy of the packet's generator, so the capture
            # itself is unchanged.
            twin = copy.deepcopy(kwargs["rngs"][0])
            draws.append(twin.standard_normal(4).tobytes())
            return original(signals, **kwargs)

        monkeypatch.setattr(simulator.receiver, "capture_batch", recording)
        simulator.capture_from_client(1)
        return draws[0]

    def test_spawn_seed_collision_pair_is_distinct(self, monkeypatch):
        # With 31-bit spawn seeds these two captures of the seed-42 lone AP
        # drew identical receiver noise.
        first = self._receiver_draws(63_260, monkeypatch)
        second = self._receiver_draws(76_722, monkeypatch)
        assert first != second
