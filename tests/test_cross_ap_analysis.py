"""Cross-AP analysis: every AP's capture of a packet in one engine call.

The controller groups APs whose estimators give bit-identical results and
runs each group's captures through one ``process_batch`` call, each capture
corrected with its own AP's calibration table.  These tests pin that the
grouping changes nothing but the call count: events and estimates are
byte-equal to analysing every AP on its own.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.estimator import AoAEstimator, EstimatorConfig
from repro.api import Deployment, fence_scenario
from repro.arrays.geometry import (
    OctagonalArray,
    UniformCircularArray,
    UniformLinearArray,
)
from repro.core.access_point import AccessPointConfig, SecureAngleAP
from repro.core.controller import SecureAngleController
from repro.core.fence import VirtualFence
from repro.core.signature import signatures_from_pseudospectra
from repro.testbed.environment import figure4_environment
from repro.testbed.scenario import TestbedSimulator

TRAINED_CLIENT = 1


@pytest.fixture(scope="module")
def fence_packets():
    """Client and attacker packets of the fence scenario (plain data)."""
    source = Deployment(fence_scenario())
    victim = source.clients[TRAINED_CLIENT].address
    packets = list(source.client_packets(TRAINED_CLIENT, num_packets=3))
    packets += list(source.client_packets(7, num_packets=2))
    packets += list(source.attacker_packets(
        next(iter(source.attackers)), victim, num_packets=2, start_s=5.0))
    return packets


def _trained_fence():
    deployment = Deployment(fence_scenario())
    deployment.train(deployment.clients[TRAINED_CLIENT].address,
                     TRAINED_CLIENT, num_packets=3)
    return deployment


def _strip(event):
    return replace(event, packet_latency_s=None, batch_latency_s=None).to_json()


def _reference_events(deployment, packets):
    """The per-AP reference: each AP analyses its own capture alone."""
    events = []
    for index, packet in enumerate(packets):
        estimates = {name: deployment.ap(name).analyze(capture)
                     for name, capture in packet.captures.items()}
        primary = next(iter(packet.captures))
        observation = signatures_from_pseudospectra(
            [estimates[primary].pseudospectrum],
            captured_at_s=[packet.captures[primary].timestamp_s])[0]
        events.append(deployment._event(index, packet, primary, estimates,
                                        observation, True))
    return events


@pytest.fixture
def engine_calls(monkeypatch):
    """Record the batch size of every ``BatchAoAEstimator.process_batch`` call."""
    sizes = []
    original = BatchAoAEstimator.process_batch

    def counting(self, captures, calibration=None):
        captures = list(captures)
        sizes.append(len(captures))
        return original(self, captures, calibration=calibration)

    monkeypatch.setattr(BatchAoAEstimator, "process_batch", counting)
    return sizes


class TestDeploymentEvents:
    @pytest.mark.parametrize("mode", ["stream", "batch"])
    def test_fence_events_match_per_ap_reference(self, fence_packets, mode):
        reference = [_strip(event) for event in
                     _reference_events(_trained_fence(), fence_packets)]
        events = _trained_fence().process(fence_packets, mode=mode)
        assert [_strip(event) for event in events] == reference

    def test_stream_mode_calls_the_engine_once_per_packet(self, fence_packets,
                                                          engine_calls):
        deployment = _trained_fence()
        engine_calls.clear()
        events = list(deployment.process(fence_packets, mode="stream"))
        assert len(events) == len(fence_packets)
        assert engine_calls == [3] * len(fence_packets)

    def test_batch_mode_calls_the_engine_once(self, fence_packets, engine_calls):
        deployment = _trained_fence()
        engine_calls.clear()
        deployment.process(fence_packets, mode="batch")
        assert engine_calls == [3 * len(fence_packets)]


class TestControllerBearings:
    def test_ambiguous_array_raises_before_any_analysis(self, engine_calls):
        environment = figure4_environment()
        octagon, octagon_capture = _ap("a", OctagonalArray(), 1)
        linear, linear_capture = _ap("b", UniformLinearArray(), 2)
        controller = SecureAngleController(
            [octagon, linear], fence=VirtualFence(environment.building_boundary))
        engine_calls.clear()
        with pytest.raises(ValueError, match="unambiguous"):
            controller.fence_check({"a": octagon_capture, "b": linear_capture})
        assert engine_calls == []


def _ap(name, array, seed, estimator=None):
    """A calibrated AP over ``array`` plus one raw capture of client 5."""
    simulator = TestbedSimulator(figure4_environment(), array, rng=seed)
    ap = SecureAngleAP(name=name, position=simulator.ap_position, array=array,
                       config=AccessPointConfig(
                           estimator=estimator or EstimatorConfig()))
    ap.set_calibration(simulator.calibration_table())
    return ap, simulator.capture_from_client(5)


def _same(first, second):
    return (first.bearing_deg == second.bearing_deg
            and first.peak_bearings_deg == second.peak_bearings_deg
            and first.num_sources == second.num_sources
            and first.packet_start == second.packet_start
            and np.array_equal(first.pseudospectrum.values,
                               second.pseudospectrum.values)
            and np.array_equal(first.pseudospectrum.angles_deg,
                               second.pseudospectrum.angles_deg))


def _octagon_pair(**first):
    return ((OctagonalArray(), EstimatorConfig(**first)),
            (OctagonalArray(), EstimatorConfig()))


UNGROUPED = {
    "resolution": _octagon_pair(resolution_deg=0.5),
    "array class": ((OctagonalArray(), EstimatorConfig()),
                    (UniformCircularArray(radius_m=OctagonalArray().radius),
                     EstimatorConfig())),
    "carrier": ((OctagonalArray(), EstimatorConfig()),
                (OctagonalArray(carrier_frequency_hz=5.18e9), EstimatorConfig())),
    "subspace tracking": ((OctagonalArray(), EstimatorConfig(subspace_tracking=True)),
                          (OctagonalArray(), EstimatorConfig(subspace_tracking=True))),
    "packet detection": ((OctagonalArray(), EstimatorConfig(detect_packet=True)),
                         (OctagonalArray(), EstimatorConfig(detect_packet=True))),
}


def _build(pair):
    aps, captures = [], {}
    for (name, seed), (array, config) in zip((("a", 11), ("b", 12)), pair):
        ap, capture = _ap(name, array, seed, estimator=config)
        aps.append(ap)
        captures[name] = capture
    return aps, captures


class TestAnalysisGroups:
    def test_array_class_case_has_an_identical_manifold(self):
        octagon, circle = UNGROUPED["array class"][0][0], UNGROUPED["array class"][1][0]
        assert np.array_equal(octagon.steering_matrix(), circle.steering_matrix())

    @pytest.mark.parametrize("case", sorted(UNGROUPED))
    def test_differing_aps_are_not_grouped(self, case, engine_calls):
        aps, captures = _build(UNGROUPED[case])
        controller = SecureAngleController(aps)
        reference_aps, _ = _build(UNGROUPED[case])
        engine_calls.clear()
        # Two packets, so stateful estimators see a history.
        results = controller.analyze_batch([captures, captures])
        assert engine_calls == [2, 2]
        for estimates in results:
            assert list(estimates) == ["a", "b"]
            for ap in reference_aps:
                assert _same(estimates[ap.name], ap.analyze(captures[ap.name]))

    def test_matching_aps_share_one_call(self, engine_calls):
        aps, captures = _build(((OctagonalArray(), EstimatorConfig()),
                                (OctagonalArray(), EstimatorConfig())))
        controller = SecureAngleController(aps)
        engine_calls.clear()
        estimates = controller.analyze_batch([captures])[0]
        assert engine_calls == [2]
        for ap in aps:
            assert _same(estimates[ap.name], ap.analyze(captures[ap.name]))

    def test_results_keep_each_packets_ap_order(self, engine_calls):
        # "a" and "c" share a group; "b" (finer grid) sits between them.
        aps, captures = [], {}
        for name, seed, config in (("a", 11, EstimatorConfig()),
                                   ("b", 12, EstimatorConfig(resolution_deg=0.5)),
                                   ("c", 13, EstimatorConfig())):
            ap, captures[name] = _ap(name, OctagonalArray(), seed, estimator=config)
            aps.append(ap)
        controller = SecureAngleController(aps)
        engine_calls.clear()
        reordered = {name: captures[name] for name in ("c", "b", "a")}
        results = controller.analyze_batch([captures, reordered])
        assert engine_calls == [4, 2]
        assert [list(estimates) for estimates in results] == [["a", "b", "c"],
                                                              ["c", "b", "a"]]
        for estimates in results:
            for ap in aps:
                assert _same(estimates[ap.name], ap.analyze(captures[ap.name]))


class TestPerCaptureCalibration:
    def _grouped(self):
        aps, captures = _build(((OctagonalArray(), EstimatorConfig()),
                                (OctagonalArray(), EstimatorConfig())))
        return SecureAngleController(aps), aps, captures

    def test_tables_differ(self):
        _, (first, second), _ = self._grouped()
        assert not np.array_equal(first.calibration.relative_phase_rad,
                                  second.calibration.relative_phase_rad)

    def test_swapping_tables_changes_the_estimates(self):
        controller, (first, second), captures = self._grouped()
        before = controller.analyze_batch([captures])[0]
        first_table, second_table = first.calibration, second.calibration
        first.set_calibration(second_table)
        second.set_calibration(first_table)
        after = controller.analyze_batch([captures])[0]
        for ap in (first, second):
            assert not np.array_equal(before[ap.name].pseudospectrum.values,
                                      after[ap.name].pseudospectrum.values)
            assert _same(after[ap.name], ap.analyze(captures[ap.name]))

    def test_table_installed_later_is_honoured(self):
        controller, (first, second), captures = self._grouped()
        replacement = _ap("c", OctagonalArray(), 99)[0].calibration
        before = controller.analyze_batch([captures])[0]
        second.set_calibration(replacement)
        after = controller.analyze_batch([captures])[0]
        assert _same(after["a"], before["a"])
        assert not _same(after["b"], before["b"])
        assert _same(after["b"], second.analyze(captures["b"]))

    @pytest.mark.parametrize("engine_type", [BatchAoAEstimator, AoAEstimator])
    def test_table_count_must_match_captures(self, engine_type):
        _, (first, second), captures = self._grouped()
        engine = engine_type(first.array)
        with pytest.raises(ValueError, match="1 calibration tables for 2 captures"):
            engine.process_batch([captures["a"], captures["b"]],
                                 calibration=[first.calibration])

    def test_none_entries_leave_calibrated_captures_alone(self):
        _, (first, second), captures = self._grouped()
        calibrated = first.calibration.apply(captures["a"])
        engine = BatchAoAEstimator(first.array)
        mixed = engine.process_batch([calibrated, captures["b"]],
                                     calibration=[None, second.calibration])
        assert _same(mixed[0], engine.process(calibrated))
        assert _same(mixed[1], second.analyze(captures["b"]))


class TestUnknownNames:
    @pytest.mark.parametrize("mode", ["stream", "batch"])
    def test_deployment_message_lists_known_aps(self, fence_packets, mode):
        deployment = Deployment(fence_scenario())
        packet = fence_packets[0]
        captures = dict(packet.captures)
        captures["nope"] = captures["ap-main"]
        with pytest.raises(KeyError) as excinfo:
            list(deployment.process([replace(packet, captures=captures)],
                                    mode=mode))
        assert excinfo.value.args[0] == (
            "unknown access point 'nope'; known: "
            f"{sorted(deployment.aps)}")

    def test_controller_message(self, fence_packets):
        controller = Deployment(fence_scenario()).controller
        packet = fence_packets[0]
        captures = {"nope": packet.captures["ap-main"]}
        calls = [
            lambda: controller.analyze_batch([captures]),
            lambda: controller.collect_bearings(captures),
            lambda: controller.fence_check(captures),
        ]
        for call in calls:
            with pytest.raises(KeyError) as excinfo:
                call()
            assert excinfo.value.args[0] == "unknown access point 'nope'"
