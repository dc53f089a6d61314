"""Integration tests for the SecureAngle access point and multi-AP controller."""

import pytest

from repro.arrays.geometry import OctagonalArray, UniformLinearArray
from repro.core.access_point import AccessPointConfig, SecureAngleAP
from repro.core.controller import SecureAngleController
from repro.core.fence import VirtualFence
from repro.core.policy import PacketVerdict
from repro.core.spoofing import SpoofingVerdict
from repro.geometry.point import Point
from repro.mac.acl import AccessControlList
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.testbed.scenario import TestbedSimulator
from repro.utils.angles import angular_difference


@pytest.fixture(scope="module")
def ap_setup(environment):
    """One trained SecureAngle AP plus its simulator (module-scoped for speed)."""
    array = OctagonalArray()
    simulator = TestbedSimulator(environment, array, rng=77)
    ap = SecureAngleAP(name="ap", position=environment.ap_position, array=array)
    ap.set_calibration(simulator.calibration_table())
    victim = MacAddress("02:00:00:00:00:05")
    training = [simulator.capture_from_client(5, elapsed_s=i * 0.5, timestamp_s=i * 0.5)
                for i in range(5)]
    ap.train_client(victim, training)
    return simulator, ap, victim


def _decide(ap, frame, capture, fence=None, fence_check=None):
    """One packet through the shared policy step: check_packet, then decide."""
    observation = ap.signatures_from_captures([capture])[0]
    check = ap.check_packet(frame.source, observation, capture.timestamp_s)
    return ap.decide(frame.source, observation, check,
                     fence=fence, fence_check=fence_check)


# Fixtures from conftest are function/session scoped; redefine environment here
# at module scope so ap_setup can be module-scoped too.
@pytest.fixture(scope="module")
def environment():
    from repro.testbed.environment import figure4_environment

    return figure4_environment()


class TestSecureAngleAP:
    def test_analysis_reports_the_true_bearing(self, ap_setup, environment):
        simulator, ap, _ = ap_setup
        capture = simulator.capture_from_client(7)
        estimate = ap.analyze(capture)
        truth = environment.ground_truth_bearing(7)
        assert float(angular_difference(estimate.bearing_deg, truth)) <= 6.0

    def test_legitimate_packet_is_accepted(self, ap_setup, environment):
        # A packet carrying the victim's own trained signature is accepted.
        # A fresh simulator on the fixture's seed re-synthesises the first
        # training capture (capture ordinal 0), here stamped 30 s later.  The
        # accept rate over fresh draws is the end-to-end client_accept_frac.
        _, ap, victim = ap_setup
        frame = Dot11Frame(source=victim, destination=MacAddress("02:00:00:00:00:ff"))
        replica = TestbedSimulator(environment, OctagonalArray(), rng=77)
        capture = replica.capture_from_client(5, elapsed_s=0.0, timestamp_s=30.0)
        decision = _decide(ap, frame, capture)
        assert decision.verdict is PacketVerdict.ACCEPT
        assert decision.spoofing_verdict is SpoofingVerdict.MATCH

    def test_spoofed_packet_from_elsewhere_is_dropped(self, ap_setup):
        simulator, ap, victim = ap_setup
        frame = Dot11Frame(source=victim, destination=MacAddress("02:00:00:00:00:ff"))
        capture = simulator.capture_from_client(9, elapsed_s=40.0, timestamp_s=40.0)
        decision = _decide(ap, frame, capture)
        assert decision.verdict is PacketVerdict.DROP
        assert decision.spoofing_verdict is SpoofingVerdict.SPOOFED

    def test_unknown_address_is_flagged(self, ap_setup):
        simulator, ap, _ = ap_setup
        stranger = MacAddress("02:00:00:00:00:99")
        frame = Dot11Frame(source=stranger, destination=MacAddress("02:00:00:00:00:ff"))
        capture = simulator.capture_from_client(3, elapsed_s=50.0)
        decision = _decide(ap, frame, capture)
        assert decision.verdict is PacketVerdict.FLAG

    def test_acl_denial_overrides_everything(self, ap_setup, environment):
        simulator, _, victim = ap_setup
        array = OctagonalArray()
        acl = AccessControlList(denied=[victim], default_allow=True)
        ap = SecureAngleAP(name="strict", position=environment.ap_position, array=array, acl=acl)
        ap.set_calibration(simulator.calibration_table())
        frame = Dot11Frame(source=victim, destination=MacAddress("02:00:00:00:00:ff"))
        capture = simulator.capture_from_client(5, elapsed_s=60.0)
        decision = _decide(ap, frame, capture)
        assert decision.verdict is PacketVerdict.DROP

    def test_training_requires_captures(self, ap_setup):
        _, ap, _ = ap_setup
        with pytest.raises(ValueError):
            ap.train_client(MacAddress("02:00:00:00:00:aa"), [])

    def test_uncalibrated_ap_refuses_to_analyze(self, ap_setup, environment):
        simulator, _, _ = ap_setup
        ap = SecureAngleAP(name="uncal", position=environment.ap_position, array=OctagonalArray())
        with pytest.raises(ValueError):
            ap.analyze(simulator.capture_from_client(5))

    def test_linear_array_ap_cannot_serve_the_fence(self, environment):
        ap = SecureAngleAP(name="lin", position=environment.ap_position,
                           array=UniformLinearArray(8))
        with pytest.raises(ValueError):
            ap.bearing_observation(None)  # rejected before the capture is touched

    def test_bearing_observation_is_in_the_global_frame(self, ap_setup, environment):
        simulator, ap, _ = ap_setup
        capture = simulator.capture_from_client(8)
        observation = ap.bearing_observation(capture)
        truth = environment.ground_truth_bearing(8)
        assert float(angular_difference(observation.bearing_deg, truth)) <= 6.0
        assert observation.ap_position == ap.position

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AccessPointConfig(bearing_sigma_deg=0.0)
        with pytest.raises(ValueError):
            AccessPointConfig(training_packets=0)


class TestSecureAngleController:
    @pytest.fixture(scope="class")
    def controller_setup(self, environment):
        specs = [("ap-a", environment.ap_position), ("ap-b", Point(20.0, 11.0))]
        simulators = {}
        aps = []
        for index, (name, position) in enumerate(specs):
            array = OctagonalArray()
            simulator = TestbedSimulator(environment, array, ap_position=position,
                                         rng=100 + index)
            ap = SecureAngleAP(name=name, position=position, array=array)
            ap.set_calibration(simulator.calibration_table())
            simulators[name] = simulator
            aps.append(ap)
        fence = VirtualFence(environment.building_boundary, margin_m=1.0)
        controller = SecureAngleController(aps, fence=fence)
        return simulators, controller

    def test_localizes_an_indoor_client(self, controller_setup, environment):
        simulators, controller = controller_setup
        position = environment.client_position(4)
        captures = {name: sim.capture_from_position(position)
                    for name, sim in simulators.items()}
        estimate = controller.localize(captures)
        assert estimate.position.distance_to(position) < 2.5

    def test_fence_admits_indoor_and_drops_outdoor(self, controller_setup, environment):
        simulators, controller = controller_setup
        indoor = environment.client_position(1)
        outdoor = environment.outdoor_positions["street-east"]
        # Majority vote over a few packets, as the fence evaluation does: a
        # single unlucky fading draw must not decide the test.
        indoor_votes = []
        outdoor_votes = []
        for index in range(3):
            indoor_captures = {name: sim.capture_from_position(indoor, elapsed_s=index * 0.5)
                               for name, sim in simulators.items()}
            outdoor_captures = {name: sim.capture_from_position(outdoor, elapsed_s=index * 0.5)
                                for name, sim in simulators.items()}
            indoor_votes.append(controller.fence_check(indoor_captures).decision.value)
            outdoor_votes.append(controller.fence_check(outdoor_captures).decision.value)
        assert indoor_votes.count("inside") >= 2
        assert outdoor_votes.count("outside") >= 2

    def test_policy_step_combines_fence_and_signature(self, controller_setup, environment):
        simulators, controller = controller_setup
        ap = controller.aps["ap-a"]
        victim = MacAddress("02:00:00:00:00:44")
        training = [simulators["ap-a"].capture_from_client(4, elapsed_s=i * 0.5)
                    for i in range(3)]
        ap.train_client(victim, training)
        frame = Dot11Frame(source=victim, destination=MacAddress("02:00:00:00:00:ff"))
        position = environment.client_position(4)
        captures = {name: sim.capture_from_position(position, elapsed_s=10.0)
                    for name, sim in simulators.items()}
        decision = _decide(ap, frame, captures["ap-a"], fence=controller.fence,
                           fence_check=controller.fence_check(captures))
        assert decision.verdict is PacketVerdict.ACCEPT
        assert decision.spoofing_verdict is SpoofingVerdict.MATCH
        assert decision.fence_decision is not None

    def test_controller_validation(self, controller_setup):
        _, controller = controller_setup
        with pytest.raises(ValueError):
            SecureAngleController([])
        with pytest.raises(KeyError):
            controller.collect_bearings({"nope": None})
