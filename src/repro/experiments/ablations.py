"""Ablations of the design choices DESIGN.md calls out.

* **Calibration on/off** (Section 2.2): without removing the per-chain phase
  offsets the inter-antenna phase comparison is meaningless and bearings are
  essentially random.
* **Estimator comparison** (Section 2.1 and Equation 1): the two-antenna phase
  method versus the Bartlett and Capon beamformers versus MUSIC.
* **SNR sweep**: bearing error as the transmit power (and hence SNR) drops.
* **Packets-per-signature sweep**: how much averaging multiple packets into a
  signature buys for spoofing discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.aoa.estimator import AoAEstimator, EstimatorConfig
from repro.api import AOA_METHODS, Deployment, single_ap_scenario
from repro.campaign.spec import CampaignSpec, ShardSpec
from repro.core.metrics import signature_similarity
from repro.core.signature import AoASignature, certified_signature
from repro.experiments.reporting import format_table
from repro.utils.angles import angular_difference
from repro.utils.serde import JsonSerializable


#: Defaults of the campaign builders, their shards and their merges.
DEFAULT_CALIBRATION_CLIENTS = (1, 3, 5, 7, 9)
DEFAULT_COMPARISON_CLIENTS = (13, 14, 17, 18, 19, 20)
DEFAULT_PACKETS_PER_CLIENT = 3
DEFAULT_TX_POWERS_DBM = (-80.0, -70.0, -60.0, -45.0, -25.0, 0.0, 15.0)
DEFAULT_SNR_CLIENTS = (1, 5, 9)
DEFAULT_TRAINING_SIZES = (1, 2, 5, 10)
DEFAULT_PPS_VICTIM_CLIENT = 5
DEFAULT_PPS_ATTACKER_CLIENT = 9
DEFAULT_PPS_PROBE_PACKETS = 5


# --------------------------------------------------------------------------- E7
@dataclass(frozen=True)
class CalibrationAblation(JsonSerializable):
    """Median bearing error with and without phase calibration."""

    median_error_calibrated_deg: float
    median_error_uncalibrated_deg: float

    def as_table(self) -> str:
        return format_table(
            ["pipeline", "median bearing error (deg)"],
            [("calibrated", self.median_error_calibrated_deg),
             ("uncalibrated", self.median_error_uncalibrated_deg)],
        )


def run_calibration_ablation(rng: int = 42, **params: Any) -> CalibrationAblation:
    """Measure bearing error with the calibration step enabled and disabled.

    :func:`calibration_ablation_campaign` run in-process at one worker;
    ``params`` are its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(calibration_ablation_campaign(seed=rng, **params))


def _calibration_errors(deployment: Deployment,
                        uncalibrated_estimator: AoAEstimator, client_id: int,
                        packets_per_client: int):
    """One client's calibrated/uncalibrated bearing errors."""
    simulator = deployment.simulator()
    calibrated_ap = deployment.ap()
    expected = simulator.expected_client_bearing(client_id)
    calibrated_errors: List[float] = []
    uncalibrated_errors: List[float] = []
    for index in range(packets_per_client):
        capture = simulator.capture_from_client(client_id, elapsed_s=index * 0.5)
        with_cal = calibrated_ap.analyze(capture)
        without_cal = uncalibrated_estimator.process(capture)
        calibrated_errors.append(float(angular_difference(with_cal.bearing_deg, expected)))
        uncalibrated_errors.append(float(angular_difference(without_cal.bearing_deg, expected)))
    return calibrated_errors, uncalibrated_errors


@dataclass(frozen=True)
class CalibrationShard(JsonSerializable):
    """One calibration-ablation shard: a single client's error lists."""

    client_id: int
    calibrated_errors_deg: List[float]
    uncalibrated_errors_deg: List[float]


def calibration_ablation_campaign(client_ids: Sequence[int] = DEFAULT_CALIBRATION_CLIENTS,
                                  packets_per_client: int = DEFAULT_PACKETS_PER_CLIENT,
                                  seed: int = 42,
                                  name: str = "calibration-ablation") -> CampaignSpec:
    """The calibration ablation as a campaign: one shard per client."""
    return CampaignSpec(
        name=name,
        experiment="calibration_ablation",
        seeds=(int(seed),),
        base={"packets_per_client": int(packets_per_client)},
        axes={"client_id": tuple(int(client) for client in client_ids)},
    )


def run_calibration_shard(spec: CampaignSpec, shard: ShardSpec) -> CalibrationShard:
    """One calibration-ablation shard (a single client's packets)."""
    packets_per_client = int(spec.param("packets_per_client",
                                        DEFAULT_PACKETS_PER_CLIENT))
    deployment = Deployment(single_ap_scenario(name="calibration-ablation"),
                            rng=shard.seed)
    uncalibrated_estimator = AoAEstimator(deployment.ap().array,
                                          EstimatorConfig(require_calibrated=False))
    deployment.simulator().skip_captures(shard.point * packets_per_client)
    client_id = int(shard.params["client_id"])
    calibrated, uncalibrated = _calibration_errors(
        deployment, uncalibrated_estimator, client_id, packets_per_client)
    return CalibrationShard(client_id=client_id,
                            calibrated_errors_deg=calibrated,
                            uncalibrated_errors_deg=uncalibrated)


def merge_calibration(spec: CampaignSpec,
                      records: Sequence[CalibrationShard]) -> CalibrationAblation:
    """Reduce per-client error lists into the medians."""
    calibrated = [error for record in records
                  for error in record.calibrated_errors_deg]
    uncalibrated = [error for record in records
                    for error in record.uncalibrated_errors_deg]
    return CalibrationAblation(
        median_error_calibrated_deg=float(np.median(calibrated)),
        median_error_uncalibrated_deg=float(np.median(uncalibrated)),
    )


# --------------------------------------------------------------------------- E8
@dataclass(frozen=True)
class EstimatorComparison(JsonSerializable):
    """Median bearing error per estimation method."""

    median_error_by_method_deg: Dict[str, float]

    def as_table(self) -> str:
        return format_table(
            ["method", "median bearing error (deg)"],
            sorted(self.median_error_by_method_deg.items()),
        )


def run_estimator_comparison(rng: int = 42, **params: Any) -> EstimatorComparison:
    """Compare Equation 1, Bartlett, Capon, and MUSIC on the linear array.

    :func:`estimator_comparison_campaign` run in-process at one worker;
    ``params`` are its keyword arguments, ``rng`` its seed.  Uses the
    linear-arrangement clients so the two-antenna phase method (which
    reports broadside angles) is directly comparable.
    """
    from repro.campaign.engine import run_serial

    return run_serial(estimator_comparison_campaign(seed=rng, **params))


def _comparison_estimators(deployment: Deployment):
    """The named estimator bank the comparison runs (linear array)."""
    array = deployment.ap().array
    return {
        name: AoAEstimator(array, AOA_METHODS.get(name).estimator_config())
        for name in ("music", "capon", "bartlett")
    }


def _comparison_errors(deployment: Deployment, estimators,
                       client_id: int, packets_per_client: int) -> Dict[str, List[float]]:
    """One client's per-method bearing errors (consumes its packets)."""
    simulator = deployment.simulator()
    array = deployment.ap().array
    calibration = deployment.ap().calibration
    two_antenna = AOA_METHODS.get("phase_interferometry")
    expected = simulator.expected_client_bearing(client_id)
    errors: Dict[str, List[float]] = {name: [] for name in estimators}
    errors["two-antenna (eq. 1)"] = []
    for index in range(packets_per_client):
        capture = simulator.capture_from_client(client_id, elapsed_s=index * 0.5)
        calibrated = calibration.apply(capture)
        for name, estimator in estimators.items():
            estimate = estimator.process(calibrated)
            errors[name].append(float(angular_difference(estimate.bearing_deg, expected)))
        bearing = two_antenna.bearings(calibrated.samples, array)[0]
        errors["two-antenna (eq. 1)"].append(float(angular_difference(bearing, expected)))
    return errors


@dataclass(frozen=True)
class EstimatorComparisonShard(JsonSerializable):
    """One estimator-comparison shard: a single client's per-method errors."""

    client_id: int
    errors_by_method_deg: Dict[str, List[float]]


def estimator_comparison_campaign(client_ids: Sequence[int] = DEFAULT_COMPARISON_CLIENTS,
                                  packets_per_client: int = DEFAULT_PACKETS_PER_CLIENT,
                                  seed: int = 42,
                                  name: str = "estimator-comparison") -> CampaignSpec:
    """The estimator comparison as a campaign: one shard per client."""
    return CampaignSpec(
        name=name,
        experiment="estimator_comparison",
        seeds=(int(seed),),
        base={"packets_per_client": int(packets_per_client)},
        axes={"client_id": tuple(int(client) for client in client_ids)},
    )


def run_estimator_comparison_shard(spec: CampaignSpec,
                                   shard: ShardSpec) -> EstimatorComparisonShard:
    """One estimator-comparison shard (a single client's packets)."""
    packets_per_client = int(spec.param("packets_per_client",
                                        DEFAULT_PACKETS_PER_CLIENT))
    deployment = Deployment(single_ap_scenario(
        geometry="linear", num_elements=8, name="estimator-comparison"),
        rng=shard.seed)
    estimators = _comparison_estimators(deployment)
    deployment.simulator().skip_captures(shard.point * packets_per_client)
    client_id = int(shard.params["client_id"])
    return EstimatorComparisonShard(
        client_id=client_id,
        errors_by_method_deg=_comparison_errors(deployment, estimators,
                                                client_id, packets_per_client),
    )


def merge_estimator_comparison(spec: CampaignSpec,
                               records: Sequence[EstimatorComparisonShard]) -> EstimatorComparison:
    """Reduce per-client per-method errors into the medians."""
    errors: Dict[str, List[float]] = {}
    for record in records:
        for name, values in record.errors_by_method_deg.items():
            errors.setdefault(name, []).extend(values)
    return EstimatorComparison(
        median_error_by_method_deg={name: float(np.median(values))
                                    for name, values in errors.items()},
    )


# --------------------------------------------------------------------------- E9
@dataclass(frozen=True)
class SnrSweep(JsonSerializable):
    """Median bearing error versus transmit power."""

    median_error_by_tx_power_deg: Dict[float, float]

    def as_table(self) -> str:
        return format_table(
            ["tx power (dBm)", "median bearing error (deg)"],
            sorted(self.median_error_by_tx_power_deg.items()),
        )


def run_snr_sweep(rng: int = 42, **params: Any) -> SnrSweep:
    """Bearing error as the transmit power (and hence SNR at the AP) is reduced.

    :func:`snr_sweep_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(snr_sweep_campaign(seed=rng, **params))


def _snr_point_error(deployment: Deployment, tx_power: float,
                     client_ids: Sequence[int], packets_per_point: int) -> float:
    """Median bearing error at one transmit power (consumes its packets)."""
    simulator = deployment.simulator()
    ap = deployment.ap()
    errors: List[float] = []
    for client_id in client_ids:
        expected = simulator.expected_client_bearing(client_id)
        for index in range(packets_per_point):
            capture = simulator.capture_from_client(
                client_id, tx_power_dbm=float(tx_power), elapsed_s=index * 0.5)
            estimate = ap.analyze(capture)
            errors.append(float(angular_difference(estimate.bearing_deg, expected)))
    return float(np.median(errors))


@dataclass(frozen=True)
class SnrShard(JsonSerializable):
    """One SNR-sweep shard: the median error at a single transmit power."""

    tx_power_dbm: float
    median_error_deg: float


def snr_sweep_campaign(tx_powers_dbm: Sequence[float] = DEFAULT_TX_POWERS_DBM,
                       client_ids: Sequence[int] = DEFAULT_SNR_CLIENTS,
                       packets_per_point: int = DEFAULT_PACKETS_PER_CLIENT,
                       seed: int = 42,
                       name: str = "snr-sweep") -> CampaignSpec:
    """The SNR sweep as a campaign: one shard per transmit power."""
    return CampaignSpec(
        name=name,
        experiment="snr_sweep",
        seeds=(int(seed),),
        base={"client_ids": [int(client) for client in client_ids],
              "packets_per_point": int(packets_per_point)},
        axes={"tx_power_dbm": tuple(float(power) for power in tx_powers_dbm)},
    )


def run_snr_shard(spec: CampaignSpec, shard: ShardSpec) -> SnrShard:
    """One SNR-sweep shard (a single transmit power's packets)."""
    client_ids = [int(client) for client in
                  spec.param("client_ids", list(DEFAULT_SNR_CLIENTS))]
    packets_per_point = int(spec.param("packets_per_point", DEFAULT_PACKETS_PER_CLIENT))
    deployment = Deployment(single_ap_scenario(name="snr-sweep"), rng=shard.seed)
    deployment.simulator().skip_captures(
        shard.point * len(client_ids) * packets_per_point)
    tx_power = float(shard.params["tx_power_dbm"])
    return SnrShard(
        tx_power_dbm=tx_power,
        median_error_deg=_snr_point_error(deployment, tx_power, client_ids,
                                          packets_per_point),
    )


def merge_snr_sweep(spec: CampaignSpec, records: Sequence[SnrShard]) -> SnrSweep:
    """Reduce per-power medians into the sweep result."""
    return SnrSweep(median_error_by_tx_power_deg={
        record.tx_power_dbm: record.median_error_deg for record in records
    })


# -------------------------------------------------------------------------- E9b
@dataclass(frozen=True)
class PacketsPerSignatureSweep(JsonSerializable):
    """Separation between legitimate and attacker similarity versus training size."""

    legitimate_similarity_by_packets: Dict[int, float]
    attacker_similarity_by_packets: Dict[int, float]

    def separation(self, num_packets: int) -> float:
        """Similarity gap (legitimate minus attacker) for a training size."""
        return (self.legitimate_similarity_by_packets[num_packets]
                - self.attacker_similarity_by_packets[num_packets])

    def as_table(self) -> str:
        rows = []
        for packets in sorted(self.legitimate_similarity_by_packets):
            rows.append((packets,
                         self.legitimate_similarity_by_packets[packets],
                         self.attacker_similarity_by_packets[packets],
                         self.separation(packets)))
        return format_table(
            ["training packets", "legit similarity", "attacker similarity", "separation"],
            rows,
        )


def run_packets_per_signature_sweep(rng: int = 42,
                                    **params: Any) -> PacketsPerSignatureSweep:
    """How training-set size affects legitimate/attacker signature separation.

    :func:`packets_per_signature_campaign` run in-process at one worker;
    ``params`` are its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(packets_per_signature_campaign(seed=rng, **params))


def _training_size_similarity(deployment: Deployment, training_size: int,
                              victim_client_id: int, attacker_client_id: int,
                              num_probe_packets: int):
    """One training size's (legitimate, attacker) mean similarities."""
    simulator = deployment.simulator()
    ap = deployment.ap()

    def signature_of(client_id: int, elapsed_s: float) -> AoASignature:
        capture = simulator.capture_from_client(client_id, elapsed_s=elapsed_s)
        estimate = ap.analyze(capture)
        return AoASignature.from_pseudospectrum(estimate.pseudospectrum, captured_at_s=elapsed_s)

    trained = certified_signature([signature_of(victim_client_id, index * 0.5)
                                   for index in range(training_size)])
    legit_similarities = []
    attacker_similarities = []
    for probe in range(num_probe_packets):
        elapsed = 30.0 + probe * 2.0
        legit_similarities.append(signature_similarity(
            trained, signature_of(victim_client_id, elapsed)))
        attacker_similarities.append(signature_similarity(
            trained, signature_of(attacker_client_id, elapsed)))
    return float(np.mean(legit_similarities)), float(np.mean(attacker_similarities))


@dataclass(frozen=True)
class PacketsPerSignatureShard(JsonSerializable):
    """One packets-per-signature shard: similarities at one training size."""

    training_size: int
    legitimate_similarity: float
    attacker_similarity: float


def packets_per_signature_campaign(training_sizes: Sequence[int] = DEFAULT_TRAINING_SIZES,
                                   victim_client_id: int = DEFAULT_PPS_VICTIM_CLIENT,
                                   attacker_client_id: int = DEFAULT_PPS_ATTACKER_CLIENT,
                                   num_probe_packets: int = DEFAULT_PPS_PROBE_PACKETS,
                                   seed: int = 42,
                                   name: str = "packets-per-signature") -> CampaignSpec:
    """The packets-per-signature sweep as a campaign: one shard per size."""
    return CampaignSpec(
        name=name,
        experiment="packets_per_signature",
        seeds=(int(seed),),
        base={"victim_client_id": int(victim_client_id),
              "attacker_client_id": int(attacker_client_id),
              "num_probe_packets": int(num_probe_packets)},
        axes={"training_size": tuple(int(size) for size in training_sizes)},
    )


def check_packets_per_signature_params(spec: CampaignSpec) -> None:
    """Reject a training size that would train on no packet."""
    if any(int(size) < 1 for size in spec.axes.get("training_size", ())):
        raise ValueError("training sizes must be positive")


def run_packets_per_signature_shard(spec: CampaignSpec,
                                    shard: ShardSpec) -> PacketsPerSignatureShard:
    """One packets-per-signature shard (a single training size)."""
    num_probe = int(spec.param("num_probe_packets", DEFAULT_PPS_PROBE_PACKETS))
    training_size = int(shard.params["training_size"])
    sizes = [int(size) for size in spec.axes["training_size"]]
    deployment = Deployment(single_ap_scenario(name="packets-per-signature",
                                               rng_stream=1), rng=shard.seed)
    # Each earlier training size consumed its training packets plus two
    # probe captures (legitimate + attacker) per probe round.
    deployment.simulator().skip_captures(
        sum(size + 2 * num_probe for size in sizes[:shard.point]))
    legit, adversary = _training_size_similarity(
        deployment, training_size,
        int(spec.param("victim_client_id", DEFAULT_PPS_VICTIM_CLIENT)),
        int(spec.param("attacker_client_id", DEFAULT_PPS_ATTACKER_CLIENT)), num_probe)
    return PacketsPerSignatureShard(training_size=training_size,
                                    legitimate_similarity=legit,
                                    attacker_similarity=adversary)


def merge_packets_per_signature(
        spec: CampaignSpec,
        records: Sequence[PacketsPerSignatureShard]) -> PacketsPerSignatureSweep:
    """Reduce per-size similarities into the sweep result."""
    return PacketsPerSignatureSweep(
        legitimate_similarity_by_packets={
            record.training_size: record.legitimate_similarity for record in records},
        attacker_similarity_by_packets={
            record.training_size: record.attacker_similarity for record in records},
    )
