"""The SecureAngle access point.

``SecureAngleAP`` ties the whole receive-side pipeline together, mirroring the
prototype's data flow (Section 3): a capture arrives from the array receiver,
the per-chain calibration is applied, the AoA estimator produces a
pseudospectrum, the pseudospectrum becomes a signature, and the signature is
checked against the per-MAC database to decide whether the frame is accepted,
dropped, or flagged.  The AP also exposes its direct-path bearings so a
multi-AP controller can run the virtual-fence application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.aoa.estimator import AoAEstimate, AoAEstimator, EstimatorConfig
from repro.arrays.geometry import AntennaArray
from repro.calibration.procedure import calibrate_receiver
from repro.calibration.table import CalibrationTable
from repro.core.database import SignatureDatabase
from repro.core.localization import BearingObservation
from repro.core.policy import PacketDecision, combine_evidence
from repro.core.signature import AoASignature, signatures_from_pseudospectra
from repro.core.spoofing import (
    SpoofingCheck,
    SpoofingDetector,
    SpoofingDetectorConfig,
    SpoofingVerdict,
)
from repro.core.tracker import SignatureTracker, TrackerConfig
from repro.geometry.point import Point
from repro.hardware.capture import Capture
from repro.hardware.receiver import ArrayReceiver
from repro.hardware.reference import CalibrationSource
from repro.mac.acl import AccessControlList
from repro.mac.address import MacAddress


@dataclass(frozen=True)
class AccessPointConfig:
    """Configuration of one SecureAngle access point."""

    # Nested configs use default_factory so two AccessPointConfig instances
    # never alias one shared default object (the class-attribute-default
    # footgun: a single instance shared by every AP built without overrides).
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    spoofing: SpoofingDetectorConfig = field(default_factory=SpoofingDetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    #: Default bearing uncertainty (degrees) attached to localisation observations.
    bearing_sigma_deg: float = 3.0
    #: Number of packets averaged when training a certified signature.
    training_packets: int = 10

    def __post_init__(self) -> None:
        if self.bearing_sigma_deg <= 0:
            raise ValueError("bearing_sigma_deg must be positive")
        if self.training_packets < 1:
            raise ValueError("training_packets must be at least 1")


class SecureAngleAP:
    """One access point: array, receiver, calibration, estimator, and policy."""

    def __init__(self, name: str, position: Point, array: AntennaArray,
                 orientation_deg: float = 0.0,
                 config: Optional[AccessPointConfig] = None,
                 acl: Optional[AccessControlList] = None):
        self.name = name
        self.position = position
        self.array = array
        self.orientation_deg = float(orientation_deg)
        self.config = config = config if config is not None else AccessPointConfig()
        self.acl = acl if acl is not None else AccessControlList(default_allow=True)
        self.estimator = AoAEstimator(array, config.estimator)
        self.database = SignatureDatabase(keep_history=4)
        self.detector = SpoofingDetector(self.database, config.spoofing)
        self.tracker = SignatureTracker(self.database, config.tracker)
        self.calibration: Optional[CalibrationTable] = None

    # -------------------------------------------------------------- calibration
    def calibrate(self, receiver: ArrayReceiver, source: CalibrationSource,
                  num_samples: int = 4096) -> CalibrationTable:
        """Run the Section 2.2 calibration procedure and store the table."""
        self.calibration = calibrate_receiver(receiver, source, num_samples=num_samples)
        return self.calibration

    def set_calibration(self, table: CalibrationTable) -> None:
        """Install an externally measured calibration table."""
        if table.num_chains != self.array.num_elements:
            raise ValueError("calibration table does not match the array size")
        self.calibration = table

    # ----------------------------------------------------------------- analysis
    def analyze(self, capture: Capture) -> AoAEstimate:
        """Run the AoA estimator on a capture (applying calibration if needed)."""
        return self.estimator.process(capture, calibration=self.calibration)

    def analyze_batch(self, captures: Sequence[Capture]) -> List[AoAEstimate]:
        """Run the batched AoA engine on a whole batch of captures."""
        return self.estimator.process_batch(captures, calibration=self.calibration)

    def signatures_from_captures(self, captures: Sequence[Capture]) -> List[AoASignature]:
        """Batched capture -> spectrum -> signature for a batch of captures."""
        captures = list(captures)
        estimates = self.analyze_batch(captures)
        return signatures_from_pseudospectra(
            [estimate.pseudospectrum for estimate in estimates],
            captured_at_s=[capture.timestamp_s for capture in captures])

    def train_client(self, address: MacAddress, captures) -> AoASignature:
        """Train the certified signature for ``address`` from one or more captures."""
        captures = list(captures)
        if not captures:
            raise ValueError("training requires at least one capture")
        observations = self.signatures_from_captures(captures)
        signature = observations[0]
        for observation in observations[1:]:
            signature = signature.merged_with(
                observation, weight=1.0 / (signature.num_packets + 1))
        self.database.train(address, signature, timestamp_s=captures[-1].timestamp_s)
        return signature

    # ------------------------------------------------------------------ packets
    def check_packet(self, source: MacAddress, observation: AoASignature,
                     timestamp_s: float, update_signature: bool = True) -> SpoofingCheck:
        """The shared per-packet policy step: spoofing-check, then track.

        Consults the detector for ``source`` and folds a matching observation
        back into the certified signature (unless tracking is disabled).
        :meth:`repro.api.deployment.Deployment.process` runs exactly this
        step for every packet.  The tracker reuses the
        detector's similarity: both score the same stored signature against
        the same observation.
        """
        check = self.detector.check(source, observation)
        if update_signature and check.verdict is SpoofingVerdict.MATCH:
            self.tracker.observe(source, observation, timestamp_s,
                                 similarity=check.similarity)
        return check

    def decide(self, source: MacAddress, observation: AoASignature,
               check: SpoofingCheck, fence=None,
               fence_check=None) -> PacketDecision:
        """Assemble the final packet decision from the gathered evidence.

        The single home of the ACL + spoofing + fence evidence combination,
        called by :meth:`repro.api.deployment.Deployment.process` for every
        packet.  ``fence_check`` is the
        (optional) evaluated :class:`~repro.core.fence.FenceCheck`; ``fence``
        supplies its fail-open rule.
        """
        fence_decision = fence_check.decision if fence_check is not None else None
        fail_open = fence.fail_open if (fence is not None
                                        and fence_check is not None) else False
        return combine_evidence(
            source=source,
            acl_permits=self.acl.permits(source),
            spoofing_verdict=check.verdict,
            fence_decision=fence_decision,
            fence_fail_open=fail_open,
            similarity=check.similarity,
            bearing_deg=observation.direct_path_bearing_deg,
        )

    # ------------------------------------------------------------- localisation
    def bearing_observation(self, capture: Capture,
                            sigma_deg: Optional[float] = None) -> BearingObservation:
        """The AP's contribution to multi-AP localisation: a global bearing.

        The estimator reports bearings in the array's local frame; adding the
        AP's mounting orientation converts them to the global floor-plan frame
        the controller triangulates in.  Only meaningful for unambiguous
        (circular) arrays — a linear array cannot provide a full 360-degree
        bearing (footnote 1 of the paper).
        """
        return self.bearing_observations([capture], sigma_deg=sigma_deg)[0]

    def bearing_observations(self, captures: Sequence[Capture],
                             sigma_deg: Optional[float] = None) -> List[BearingObservation]:
        """Batched :meth:`bearing_observation` for several captures."""
        self.require_unambiguous()
        return [self.bearing_observation_from(estimate, sigma_deg=sigma_deg)
                for estimate in self.analyze_batch(captures)]

    def bearing_observation_from(self, estimate: AoAEstimate,
                                 sigma_deg: Optional[float] = None) -> BearingObservation:
        """The global bearing observation of an already computed estimate."""
        self.require_unambiguous()
        return BearingObservation(
            ap_position=self.position,
            bearing_deg=(estimate.bearing_deg + self.orientation_deg) % 360.0,
            sigma_deg=self.config.bearing_sigma_deg if sigma_deg is None else sigma_deg,
        )

    def require_unambiguous(self) -> None:
        """Raise unless the array gives full-circle bearings (footnote 1)."""
        if self.array.ambiguous:
            raise ValueError(
                "virtual-fence localisation requires an unambiguous (circular) array")

    def __repr__(self) -> str:
        return (f"SecureAngleAP({self.name!r}, at ({self.position.x:.1f}, {self.position.y:.1f}), "
                f"{self.array.num_elements} antennas)")
