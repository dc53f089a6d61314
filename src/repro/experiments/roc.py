"""Spoofing-detector operating characteristic (threshold sweep).

Section 2.3.2 requires "a significant difference between the certified
signature and an attacker's signature so that they can be discriminated from
each other".  The operating-characteristic experiment makes that requirement
quantitative: it collects similarity scores for the legitimate client's later
packets and for spoofed packets injected by several attacker types, sweeps the
detector threshold, and reports detection and false-alarm rates per threshold
— the curve an operator would use to pick the deployment threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, single_ap_scenario
from repro.campaign.spec import (
    CampaignSpec,
    ShardSpec,
    estimator_from_params,
    require_param_at_least,
)
from repro.core.metrics import signature_similarity
from repro.core.signature import AoASignature
from repro.experiments.reporting import format_table
from repro.utils.serde import JsonSerializable


#: Defaults of the campaign builder, its shards and its merge.
DEFAULT_VICTIM_CLIENT = 5
DEFAULT_ATTACKER_CLIENTS = (3, 9, 15, 18)
DEFAULT_TRAINING_PACKETS = 10
DEFAULT_PROBE_PACKETS = 10


def default_thresholds() -> np.ndarray:
    """The default detector-threshold ladder of the sweep (0.05 .. 0.95)."""
    return np.round(np.arange(0.05, 1.0, 0.05), 3)


@dataclass(frozen=True)
class RocPoint(JsonSerializable):
    """Detection and false-alarm rates at one similarity threshold."""

    threshold: float
    detection_rate: float
    false_alarm_rate: float


@dataclass(frozen=True)
class SpoofingRoc(JsonSerializable):
    """The full threshold sweep plus the underlying score populations."""

    points: List[RocPoint]
    legitimate_scores: List[float]
    attacker_scores: List[float]

    @property
    def similarity_gap(self) -> float:
        """Gap between the worst legitimate score and the best attacker score."""
        if not self.legitimate_scores or not self.attacker_scores:
            return float("nan")
        return float(min(self.legitimate_scores) - max(self.attacker_scores))

    def best_threshold(self) -> RocPoint:
        """The sweep point maximising detection minus false alarms (Youden's J)."""
        return max(self.points, key=lambda p: p.detection_rate - p.false_alarm_rate)

    def operating_point(self, threshold: float) -> RocPoint:
        """The sweep point closest to a given threshold."""
        return min(self.points, key=lambda p: abs(p.threshold - threshold))

    def as_table(self) -> str:
        """Text rendering of the sweep."""
        return format_table(
            ["threshold", "detection rate", "false-alarm rate"],
            [(p.threshold, p.detection_rate, p.false_alarm_rate) for p in self.points],
        )


def run_spoofing_roc(estimator_config: Optional[EstimatorConfig] = None,
                     rng: int = 42, **params: Any) -> SpoofingRoc:
    """Sweep the similarity threshold of the spoofing detector.

    :func:`roc_campaign` run in-process at one worker; ``params`` are its
    keyword arguments, ``rng`` its seed.  Attackers are modelled as
    transmitters at other client positions spoofing the victim's address
    (the geometry, not the MAC header, is what the detector sees), which
    makes the sweep independent of any particular antenna model.
    """
    from repro.campaign.engine import run_serial

    return run_serial(roc_campaign(seed=rng, **params), estimator_config)


def _sweep_points(thresholds, legitimate_scores, attacker_scores) -> List[RocPoint]:
    """Threshold sweep over the two score populations (shared with merge)."""
    points = []
    for threshold in thresholds:
        detection = float(np.mean([score < threshold for score in attacker_scores]))
        false_alarm = float(np.mean([score < threshold for score in legitimate_scores]))
        points.append(RocPoint(threshold=float(threshold), detection_rate=detection,
                               false_alarm_rate=false_alarm))
    return points


# ------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class RocShardScores(JsonSerializable):
    """One ROC campaign shard: one transmitter population's score list."""

    role: str
    client_id: int
    scores: List[float]

    def __post_init__(self) -> None:
        if self.role not in ("legitimate", "attacker"):
            raise ValueError(f"unknown ROC population role {self.role!r}")


def roc_campaign(victim_client_id: int = DEFAULT_VICTIM_CLIENT,
                 attacker_client_ids: Sequence[int] = DEFAULT_ATTACKER_CLIENTS,
                 num_training_packets: int = DEFAULT_TRAINING_PACKETS,
                 num_probe_packets: int = DEFAULT_PROBE_PACKETS,
                 thresholds: Optional[Sequence[float]] = None,
                 seed: int = 42,
                 name: str = "roc") -> CampaignSpec:
    """The ROC sweep as a campaign: one shard per score population.

    The legitimate population is point 0, the attacker populations follow in
    declaration order.  Every shard replays the training captures, then
    skips the simulator's capture ordinal to its own slice of probes.
    """
    if thresholds is None:
        thresholds = default_thresholds()
    populations = [{"role": "legitimate", "client_id": int(victim_client_id)}]
    populations.extend({"role": "attacker", "client_id": int(client)}
                       for client in attacker_client_ids)
    return CampaignSpec(
        name=name,
        experiment="roc",
        seeds=(int(seed),),
        base={"victim_client_id": int(victim_client_id),
              "num_training_packets": int(num_training_packets),
              "num_probe_packets": int(num_probe_packets),
              "thresholds": [float(threshold) for threshold in thresholds]},
        axes={"population": tuple(populations)},
    )


def check_roc_params(spec: CampaignSpec) -> None:
    """Reject packet counts that would train or probe with nothing."""
    require_param_at_least(spec, "num_training_packets", DEFAULT_TRAINING_PACKETS)
    require_param_at_least(spec, "num_probe_packets", DEFAULT_PROBE_PACKETS)


def run_roc_shard(spec: CampaignSpec, shard: ShardSpec) -> RocShardScores:
    """One ROC campaign shard: train the certified signature, then score
    this shard's probe population against it."""
    num_training = int(spec.param("num_training_packets", DEFAULT_TRAINING_PACKETS))
    num_probe = int(spec.param("num_probe_packets", DEFAULT_PROBE_PACKETS))
    victim = int(spec.param("victim_client_id", DEFAULT_VICTIM_CLIENT))
    deployment = Deployment(single_ap_scenario(
        estimator=estimator_from_params(spec.base), name="roc", rng_stream=1),
        rng=shard.seed)
    simulator = deployment.simulator()
    ap = deployment.ap()

    def signatures_of(client_id: int, elapsed_list: Sequence[float]) -> List[AoASignature]:
        captures = [simulator.capture_from_client(client_id, elapsed_s=elapsed,
                                                  timestamp_s=elapsed)
                    for elapsed in elapsed_list]
        return ap.signatures_from_captures(captures)

    # Training always replays first: every shard scores against the same
    # certified signature, from the same capture draws.
    training = signatures_of(victim,
                             [index * 0.5 for index in range(num_training)])
    certified = training[0]
    for index, observation in enumerate(training[1:], start=1):
        certified = certified.merged_with(observation, weight=1.0 / (index + 1))

    # Jump past the earlier populations' probe captures.
    simulator.skip_captures(shard.point * num_probe)
    population = shard.params["population"]
    role = str(population["role"])
    client_id = int(population["client_id"])
    start_s = 60.0 if role == "legitimate" else 120.0
    scores = [
        signature_similarity(certified, signature)
        for signature in signatures_of(
            client_id, [start_s + 5.0 * index for index in range(num_probe)])
    ]
    return RocShardScores(role=role, client_id=client_id, scores=scores)


def merge_roc(spec: CampaignSpec,
              records: Sequence[RocShardScores]) -> SpoofingRoc:
    """Reduce one replicate's population scores into the ROC."""
    thresholds = spec.param("thresholds")
    if thresholds is None:
        thresholds = default_thresholds()
    legitimate_scores: List[float] = []
    attacker_scores: List[float] = []
    for record in records:
        if record.role == "legitimate":
            legitimate_scores.extend(record.scores)
        else:
            attacker_scores.extend(record.scores)
    return SpoofingRoc(points=_sweep_points(thresholds, legitimate_scores,
                                            attacker_scores),
                       legitimate_scores=legitimate_scores,
                       attacker_scores=attacker_scores)
