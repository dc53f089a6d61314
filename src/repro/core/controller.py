"""The multi-AP SecureAngle controller.

The virtual-fence application needs bearings from "more than two access
points ... computing this bearing information" (Section 2.3.1).  The
controller owns the set of APs and the building boundary, analyses every
AP's capture of a packet, collects each AP's direct-path bearing,
triangulates the client, and evaluates the fence.
:class:`repro.api.deployment.Deployment` merges that with the primary AP's
spoofing verdict into the final packet decision.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aoa.estimator import AoAEstimate
from repro.core.access_point import SecureAngleAP
from repro.core.fence import FenceCheck, VirtualFence
from repro.core.localization import BearingObservation, LocationEstimate, triangulate_bearings
from repro.hardware.capture import Capture


def _shares_analysis(leader: SecureAngleAP, ap: SecureAngleAP) -> bool:
    """Whether ``leader``'s engine gives bit-identical results for ``ap``'s captures.

    The estimator configs must be equal and keep no per-engine state (the
    subspace tracker, the lazily built packet detector), and the arrays must
    share their class, carrier, angle grid, and steering matrix.
    """
    config = leader.estimator.config
    if (ap.estimator.config != config or config.subspace_tracking
            or config.detect_packet):
        return False
    first, second = leader.array, ap.array
    if (type(first) is not type(second)
            or first.carrier_frequency_hz != second.carrier_frequency_hz):
        return False
    resolution = config.resolution_deg
    return (np.array_equal(first.angle_grid(resolution), second.angle_grid(resolution))
            and np.array_equal(first.steering_matrix(resolution_deg=resolution),
                               second.steering_matrix(resolution_deg=resolution)))


class SecureAngleController:
    """Coordinate several SecureAngle APs for localisation and fencing."""

    def __init__(self, aps: List[SecureAngleAP], fence: Optional[VirtualFence] = None):
        if not aps:
            raise ValueError("the controller needs at least one access point")
        names = [ap.name for ap in aps]
        if len(set(names)) != len(names):
            raise ValueError("access points must have unique names")
        self.aps: Dict[str, SecureAngleAP] = {ap.name: ap for ap in aps}
        self.fence = fence
        #: AP name -> name of the AP whose engine analyses its captures: the
        #: first AP of its analysis group (see :meth:`analyze_batch`).
        self._analysts: Dict[str, str] = {}
        leaders: List[SecureAngleAP] = []
        for ap in aps:
            leader = next((leader for leader in leaders
                           if _shares_analysis(leader, ap)), None)
            if leader is None:
                leaders.append(ap)
                leader = ap
            self._analysts[ap.name] = leader.name

    def _access_point(self, name: str) -> SecureAngleAP:
        ap = self.aps.get(name)
        if ap is None:
            raise KeyError(f"unknown access point {name!r}")
        return ap

    # ----------------------------------------------------------------- analysis
    def analyze_batch(self, packets: Sequence[Mapping[str, Capture]]
                      ) -> List[Dict[str, AoAEstimate]]:
        """AoA estimates for a batch of packets, one engine call per analysis group.

        ``packets`` is one mapping of AP name to capture per packet; each
        result maps the same names, in the same order, to their estimates.
        APs whose estimators give bit-identical results form one analysis
        group, and every capture of the group — across all APs and packets —
        goes through one ``process_batch`` call, each corrected with its own
        AP's calibration table.  Items of a batch are computed independently,
        so the estimates equal per-AP :meth:`SecureAngleAP.analyze` bit for bit.
        """
        packets = list(packets)
        per_group: Dict[str, List[Tuple[int, str, Capture]]] = {}
        for index, captures in enumerate(packets):
            for name, capture in captures.items():
                if name not in self._analysts:
                    raise KeyError(f"unknown access point {name!r}")
                per_group.setdefault(self._analysts[name], []).append(
                    (index, name, capture))
        collected: List[Dict[str, AoAEstimate]] = [{} for _ in packets]
        for leader, entries in per_group.items():
            estimates = self.aps[leader].estimator.process_batch(
                [capture for _, _, capture in entries],
                calibration=[self.aps[name].calibration for _, name, _ in entries])
            for (index, name, _), estimate in zip(entries, estimates):
                collected[index][name] = estimate
        if len(per_group) == 1:
            return collected  # already in each packet's own AP order
        return [
            {name: collected[index][name] for name in captures}
            for index, captures in enumerate(packets)
        ]

    # ------------------------------------------------------------ localisation
    def collect_bearings(self, captures: Mapping[str, Capture]) -> List[BearingObservation]:
        """One bearing observation per AP that has a capture of the packet."""
        return self.collect_bearings_batch([captures])[0]

    def collect_bearings_batch(self, packets: Sequence[Mapping[str, Capture]]
                               ) -> List[List[BearingObservation]]:
        """Bearing observations for a batch of packets.

        ``packets`` is one mapping of AP name to capture per packet.  Every
        capture is estimated by :meth:`analyze_batch` — one engine call per
        analysis group across the whole batch — and the observations come
        back per packet, in each packet's own AP order.  Raises before any
        analysis when an AP's array cannot give a global bearing.
        """
        packets = list(packets)
        self._require_bearings(packets)
        return [self._bearing_observations(estimates)
                for estimates in self.analyze_batch(packets)]

    def _require_bearings(self, packets: Sequence[Mapping[str, Capture]]) -> None:
        observers = {name: self._access_point(name)
                     for captures in packets for name in captures}
        for ap in observers.values():
            ap.require_unambiguous()

    def _bearing_observations(self, estimates: Mapping[str, AoAEstimate]
                              ) -> List[BearingObservation]:
        return [self.aps[name].bearing_observation_from(estimate)
                for name, estimate in estimates.items()]

    def localize(self, captures: Mapping[str, Capture]) -> LocationEstimate:
        """Triangulate a client from per-AP captures of the same packet."""
        observations = self.collect_bearings(captures)
        return triangulate_bearings(observations)

    def fence_check(self, captures: Mapping[str, Capture]) -> FenceCheck:
        """Evaluate the virtual fence for a packet captured by several APs."""
        if self.fence is None:
            raise ValueError("no virtual fence configured on this controller")
        observations = self.collect_bearings(captures)
        return self.fence.check_bearings(observations)

    def __len__(self) -> int:
        return len(self.aps)
