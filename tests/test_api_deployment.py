"""The Deployment facade: compilation, streaming sessions, batch equivalence."""

import pytest

from repro.api import (
    AccessPointSpec,
    ArraySpec,
    Deployment,
    ScenarioSpec,
    fence_scenario,
    spoofing_scenario,
    three_ap_scenario,
)
from repro.core.fence import FenceDecision
from repro.core.localization import BearingObservation


@pytest.fixture(scope="module")
def single_ap_deployment():
    return Deployment(ScenarioSpec(name="deployment-test"))


@pytest.fixture(scope="module")
def fenced_deployment():
    return Deployment(fence_scenario())


class TestCompilation:
    def test_default_spec_compiles_one_calibrated_ap(self, single_ap_deployment):
        deployment = single_ap_deployment
        assert list(deployment.aps) == ["ap-main"]
        ap = deployment.ap()
        assert ap.calibration is not None
        assert ap.array.num_elements == 8
        assert deployment.simulator().ap_position == ap.position

    def test_three_ap_spec_compiles_controller(self, fenced_deployment):
        assert len(fenced_deployment.controller) == 3
        assert fenced_deployment.fence is not None
        assert fenced_deployment.ap("ap-east").position.x == pytest.approx(20.0)

    def test_unknown_ap_name_raises(self, single_ap_deployment):
        with pytest.raises(KeyError, match="unknown access point"):
            single_ap_deployment.ap("nope")

    def test_clients_filtered_by_spec(self):
        deployment = Deployment(ScenarioSpec(clients=(1, 5, 7)))
        assert sorted(deployment.clients) == [1, 5, 7]

    def test_attackers_built_from_spec(self):
        deployment = Deployment(spoofing_scenario())
        attackers = deployment.attackers
        assert set(attackers) == {"omni-indoor", "omni-outdoor",
                                  "directional-outdoor", "array-indoor"}
        directional = attackers["directional-outdoor"]
        assert directional.aim_point == deployment.ap().position

    def test_per_ap_estimator_override(self):
        deployment = Deployment(ScenarioSpec(access_points=(
            AccessPointSpec(name="a", array=ArraySpec("octagon")),
            AccessPointSpec(name="b", array=ArraySpec("octagon"),
                            estimator=None),
        )))
        assert deployment.ap("a").config.estimator.method == "music"

    def test_attacker_declarations_never_perturb_lone_ap_captures(self):
        # A lone AP's simulator draws from the master generator; captures
        # are keyed by their ordinals, so they are identical whether
        # attackers are declared, built, or absent entirely.
        spec = spoofing_scenario()
        from dataclasses import replace

        lone = replace(spec, access_points=(
            replace(spec.access_points[0], rng_stream=None),))
        untouched = Deployment(lone)
        touched = Deployment(lone)
        _ = touched.attackers  # build attackers before any capture
        without = Deployment(replace(lone, attackers=()))
        reference = untouched.simulator().capture_from_client(5)
        assert (reference.samples
                == touched.simulator().capture_from_client(5).samples).all()
        assert (reference.samples
                == without.simulator().capture_from_client(5).samples).all()

    def test_ap_configs_are_not_aliased(self):
        deployment = Deployment(three_ap_scenario())
        aps = list(deployment.aps.values())
        assert aps[0].config is not aps[1].config
        assert aps[0].detector is not aps[1].detector


class TestStreaming:
    def test_run_yields_structured_events(self, single_ap_deployment):
        deployment = single_ap_deployment
        client_id = 7
        address = deployment.clients[client_id].address
        deployment.train(address, client_id, num_packets=4)
        events = list(deployment.process(
            deployment.client_packets(client_id, num_packets=3, start_s=30.0)))
        assert [event.index for event in events] == [0, 1, 2]
        truth = deployment.expected_bearing(client_id)
        for event in events:
            assert event.source == address
            assert event.verdict in ("accept", "drop", "flag")
            assert abs(event.bearings_deg["ap-main"] - truth) < 10.0
            assert event.packet_latency_s > 0.0
            assert event.location is None  # one AP cannot triangulate
            assert event.metadata["client_id"] == client_id
        assert sum(event.accepted for event in events) >= 2

    def test_untrained_address_is_flagged(self, single_ap_deployment):
        deployment = single_ap_deployment
        events = list(deployment.process(
            deployment.client_packets(3, num_packets=1),
            update_signatures=False))
        assert events[0].verdict == "flag"
        assert "training needed" in " ".join(events[0].decision.reasons)

    def test_multi_ap_events_localise_and_fence(self, fenced_deployment):
        # Each event carries all three bearings, their triangulation, and the
        # fence's verdict on it.  How often a noisy packet lands near the
        # client is a rate, gated end to end by bearing_within_2p5_frac and
        # by benchmarks/test_bench_accuracy_claim.py.
        deployment = fenced_deployment
        events = deployment.run_batch(
            list(deployment.client_packets(5, num_packets=2)),
            update_signatures=False)
        sigma_deg = deployment.spec.policy.bearing_sigma_deg
        for event in events:
            assert set(event.bearings_deg) == {"ap-main", "ap-east", "ap-south"}
            observations = [
                BearingObservation(deployment.ap(name).position, bearing,
                                   sigma_deg=sigma_deg)
                for name, bearing in event.bearings_deg.items()]
            assert event.fence == deployment.fence.check_bearings(observations)
            assert event.location is event.fence.location
        # Noiseless bearings from the three APs place client 5 inside.
        truth = deployment.environment.client_position(5)
        exact = deployment.fence.check_bearings([
            BearingObservation(ap.position, ap.position.bearing_to(truth),
                               sigma_deg=sigma_deg)
            for ap in deployment.aps.values()])
        assert exact.decision is FenceDecision.INSIDE
        assert exact.location.position.distance_to(truth) < 1e-6

    def test_attacker_packets_are_dropped_outside_the_fence(self):
        # A fresh deployment keeps the simulator rng state (and hence these
        # outcomes) independent of the other tests in this module.
        deployment = Deployment(fence_scenario())
        victim = deployment.clients[5].address
        events = deployment.run_batch(
            list(deployment.attacker_packets("directional-attacker", victim,
                                             num_packets=4, start_s=200.0)),
            update_signatures=False)
        # The directional attacker warps the triangulation geometry, so allow
        # an occasional indeterminate packet — but the fence must evaluate
        # every packet and drop the clear majority.
        assert all(event.fence is not None for event in events)
        dropped = [event for event in events
                   if event.fence.decision is FenceDecision.OUTSIDE]
        assert len(dropped) >= 3
        assert all(event.verdict == "drop" for event in dropped)

    def test_run_and_run_batch_agree_exactly(self, fenced_deployment):
        deployment = fenced_deployment
        packets = list(deployment.client_packets(7, num_packets=3, start_s=200.0))
        streamed = list(deployment.process(packets, update_signatures=False))
        batched = deployment.run_batch(packets, update_signatures=False)
        assert [event.bearings_deg for event in streamed] == \
            [event.bearings_deg for event in batched]
        assert [event.verdict for event in streamed] == \
            [event.verdict for event in batched]
        assert [event.location.position for event in streamed] == \
            [event.location.position for event in batched]
        assert [event.decision.similarity for event in streamed] == \
            [event.decision.similarity for event in batched]

    def test_client_packets_source_override(self, single_ap_deployment):
        deployment = single_ap_deployment
        victim = deployment.clients[9].address
        packets = list(deployment.client_packets(3, num_packets=2, source=victim))
        assert all(packet.frame.source == victim for packet in packets)
        assert [packet.frame.sequence_number for packet in packets] == [0, 1]

    def test_primary_ap_must_hold_a_capture(self, fenced_deployment):
        packets = list(fenced_deployment.client_packets(5, num_packets=1))
        trimmed = [type(packet)(frame=packet.frame,
                                captures={"ap-east": packet.captures["ap-east"]},
                                timestamp_s=packet.timestamp_s)
                   for packet in packets]
        with pytest.raises(ValueError, match="primary AP"):
            list(fenced_deployment.process(trimmed, primary_ap="ap-main"))

    def test_empty_batch_is_empty(self, single_ap_deployment):
        assert single_ap_deployment.run_batch([]) == []


class TestFromJson:
    def test_deployment_from_json_document(self):
        text = ScenarioSpec(name="json-built").to_json()
        deployment = Deployment.from_json(text)
        assert deployment.spec.name == "json-built"
        events = list(deployment.process(deployment.client_packets(5, num_packets=1),
                                     update_signatures=False))
        assert len(events) == 1
