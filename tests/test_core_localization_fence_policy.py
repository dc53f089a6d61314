"""Tests for triangulation, virtual fences, and the packet policy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fence import FenceDecision, VirtualFence
from repro.core.localization import (
    BearingObservation,
    LocationEstimate,
    triangulate_bearings,
)
from repro.core.policy import PacketVerdict, combine_evidence
from repro.core.spoofing import SpoofingVerdict
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mac.address import MacAddress

coords = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False, allow_infinity=False)


class TestTriangulation:
    def test_two_perpendicular_bearings_intersect_exactly(self):
        target = Point(4.0, 7.0)
        a = BearingObservation(Point(0.0, 7.0), 0.0)     # looking east
        b = BearingObservation(Point(4.0, 0.0), 90.0)    # looking north
        estimate = triangulate_bearings([a, b])
        assert estimate.position.distance_to(target) < 1e-9
        assert estimate.residual_m < 1e-9
        assert estimate.consistent

    def test_three_consistent_bearings(self):
        target = Point(5.0, 5.0)
        aps = [Point(0.0, 0.0), Point(10.0, 0.0), Point(0.0, 10.0)]
        observations = [BearingObservation(ap, ap.bearing_to(target)) for ap in aps]
        estimate = triangulate_bearings(observations)
        assert estimate.position.distance_to(target) < 1e-6
        assert estimate.num_bearings == 3

    def test_noisy_bearings_produce_a_nonzero_residual(self):
        target = Point(5.0, 5.0)
        aps = [Point(0.0, 0.0), Point(10.0, 0.0), Point(0.0, 10.0)]
        observations = [BearingObservation(ap, ap.bearing_to(target) + offset)
                        for ap, offset in zip(aps, (8.0, -8.0, 8.0))]
        estimate = triangulate_bearings(observations)
        assert estimate.residual_m > 0.05
        assert estimate.position.distance_to(target) < 3.0

    def test_parallel_bearings_rejected(self):
        a = BearingObservation(Point(0.0, 0.0), 45.0)
        b = BearingObservation(Point(1.0, 0.0), 45.0)
        with pytest.raises(ValueError):
            triangulate_bearings([a, b])

    def test_single_bearing_rejected(self):
        with pytest.raises(ValueError):
            triangulate_bearings([BearingObservation(Point(0.0, 0.0), 10.0)])

    @given(coords, coords)
    @settings(max_examples=50)
    def test_exact_bearings_recover_arbitrary_targets(self, x, y):
        target = Point(x, y)
        ap_a, ap_b = Point(-50.0, -60.0), Point(55.0, -45.0)
        # Skip targets nearly collinear with the two APs (unstable geometry).
        bearing_a = ap_a.bearing_to(target) if target.distance_to(ap_a) > 1.0 else None
        bearing_b = ap_b.bearing_to(target) if target.distance_to(ap_b) > 1.0 else None
        if bearing_a is None or bearing_b is None:
            return
        if abs(math.sin(math.radians(bearing_a - bearing_b))) < 0.05:
            return
        estimate = triangulate_bearings([
            BearingObservation(ap_a, bearing_a), BearingObservation(ap_b, bearing_b)])
        assert estimate.position.distance_to(target) < 0.1

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            BearingObservation(Point(0.0, 0.0), 0.0, sigma_deg=0.0)


class TestVirtualFence:
    def _fence(self, **kwargs):
        return VirtualFence(Polygon.rectangle(0.0, 0.0, 20.0, 10.0), **kwargs)

    def test_inside_point_is_admitted(self):
        fence = self._fence()
        check = fence.check_point(Point(10.0, 5.0))
        assert check.decision is FenceDecision.INSIDE
        assert fence.admits(check)

    def test_outside_point_is_dropped(self):
        fence = self._fence()
        check = fence.check_point(Point(30.0, 5.0))
        assert check.decision is FenceDecision.OUTSIDE
        assert not fence.admits(check)

    def test_margin_tolerates_small_errors(self):
        fence = self._fence(margin_m=2.0)
        check = fence.check_point(Point(21.0, 5.0))
        assert check.decision is FenceDecision.INSIDE

    def test_inconsistent_localisation_is_indeterminate(self):
        fence = self._fence(max_residual_m=1.0)
        bad = LocationEstimate(position=Point(10.0, 5.0), residual_m=5.0, num_bearings=3)
        check = fence.check_location(bad)
        assert check.decision is FenceDecision.INDETERMINATE
        assert not fence.admits(check)  # fail-closed by default
        open_fence = self._fence(max_residual_m=1.0, fail_open=True)
        assert open_fence.admits(open_fence.check_location(bad))

    def test_check_bearings_end_to_end(self):
        fence = self._fence()
        inside_target = Point(12.0, 6.0)
        observations = [
            BearingObservation(Point(2.0, 2.0), Point(2.0, 2.0).bearing_to(inside_target)),
            BearingObservation(Point(18.0, 2.0), Point(18.0, 2.0).bearing_to(inside_target)),
        ]
        assert fence.check_bearings(observations).decision is FenceDecision.INSIDE

    def test_unlocalisable_bearings_are_indeterminate(self):
        fence = self._fence()
        parallel = [BearingObservation(Point(0.0, 0.0), 30.0),
                    BearingObservation(Point(1.0, 0.0), 30.0)]
        assert fence.check_bearings(parallel).decision is FenceDecision.INDETERMINATE

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self._fence(margin_m=-1.0)
        with pytest.raises(ValueError):
            self._fence(max_residual_m=0.0)


class TestPacketPolicy:
    def _address(self):
        return MacAddress("02:00:00:00:00:11")

    def test_all_clear_is_accepted(self):
        decision = combine_evidence(self._address(), acl_permits=True,
                                    spoofing_verdict=SpoofingVerdict.MATCH,
                                    fence_decision=FenceDecision.INSIDE)
        assert decision.verdict is PacketVerdict.ACCEPT
        assert decision.accepted

    def test_acl_denial_drops(self):
        decision = combine_evidence(self._address(), acl_permits=False,
                                    spoofing_verdict=SpoofingVerdict.MATCH,
                                    fence_decision=None)
        assert decision.dropped
        assert any("ACL" in reason for reason in decision.reasons)

    def test_spoofed_signature_drops(self):
        decision = combine_evidence(self._address(), acl_permits=True,
                                    spoofing_verdict=SpoofingVerdict.SPOOFED,
                                    fence_decision=FenceDecision.INSIDE)
        assert decision.dropped

    def test_outside_fence_drops_even_when_signature_matches(self):
        decision = combine_evidence(self._address(), acl_permits=True,
                                    spoofing_verdict=SpoofingVerdict.MATCH,
                                    fence_decision=FenceDecision.OUTSIDE)
        assert decision.dropped

    def test_unknown_address_is_flagged_not_dropped(self):
        decision = combine_evidence(self._address(), acl_permits=True,
                                    spoofing_verdict=SpoofingVerdict.UNKNOWN_ADDRESS,
                                    fence_decision=None)
        assert decision.verdict is PacketVerdict.FLAG

    def test_indeterminate_fence_follows_fail_mode(self):
        closed = combine_evidence(self._address(), acl_permits=True,
                                  spoofing_verdict=SpoofingVerdict.MATCH,
                                  fence_decision=FenceDecision.INDETERMINATE,
                                  fence_fail_open=False)
        open_ = combine_evidence(self._address(), acl_permits=True,
                                 spoofing_verdict=SpoofingVerdict.MATCH,
                                 fence_decision=FenceDecision.INDETERMINATE,
                                 fence_fail_open=True)
        assert closed.dropped
        assert open_.verdict is PacketVerdict.FLAG

    def test_reasons_are_always_present(self):
        decision = combine_evidence(self._address(), acl_permits=True,
                                    spoofing_verdict=None, fence_decision=None)
        assert decision.reasons
