"""The address-spoofing evaluation (Sections 2.3.2 and 3.2) and its attack
families.

One experiment, parameterised by scenario.  A legitimate client trains its
certified signature at the access point; each attacker of the scenario then
injects frames carrying the client's MAC address.  The evaluation measures,
over many packets:

* the **detection rate** — how often each attacker's spoofed frames are
  flagged;
* the **false-alarm rate** — how often the legitimate client's own
  subsequent frames are wrongly flagged (the environment keeps evolving
  between packets, so this exercises signature tracking too); and
* the same two numbers for the RSS-signalprint baseline, which the paper
  argues is coarser and subvertible with directional antennas.

The ``spoofing`` scenario holds the paper's threat model (omnidirectional,
directional antenna aimed at the AP, antenna array).  The attack-family
scenarios (``replay``, ``reflector``, ``swarm``, ``cfo_drift``) go through
the attacker seams the same measurement uses: ``transmit_position`` per
packet (swarms), waveform shaping (replay, CFO), and path shaping
(reflectors).  Each scenario is its own campaign experiment,
``<scenario>_eval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import SCENARIOS, Deployment
from repro.api.spec import ScenarioSpec
from repro.attacks.attacker import Attacker
from repro.attacks.spoofing_attack import SpoofingAttack
from repro.baselines.rss_signalprint import RssSignalprint, RssSpoofingDetector
from repro.campaign.spec import (
    CampaignSpec,
    ShardSpec,
    estimator_from_params,
    require_param_at_least,
)
from repro.core.spoofing import SpoofingVerdict
from repro.experiments.reporting import format_table
from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.serde import JsonSerializable

#: Defaults of the campaign builders, their shards and their merge.
DEFAULT_VICTIM_CLIENT = 5
DEFAULT_TRAINING_PACKETS = 10
DEFAULT_TEST_PACKETS = 20

#: The scenario presets this experiment runs (canonical registry names):
#: the paper's threat model, then the attack families.
ATTACK_MATRIX_SCENARIOS = ("spoofing", "replay", "reflector", "swarm", "cfo_drift")


@dataclass(frozen=True)
class AttackOutcome(JsonSerializable):
    """Detection statistics for one attacker of the scenario."""

    attacker_name: str
    attack_type: str
    attacker_position: Point
    detection_rate: float
    rss_detection_rate: float
    mean_similarity: float


@dataclass(frozen=True)
class AttackMatrixResult(JsonSerializable):
    """Results of one spoofing-attack evaluation."""

    scenario: str
    victim_client_id: int
    false_alarm_rate: float
    rss_false_alarm_rate: float
    attackers: List[AttackOutcome]

    @property
    def mean_detection_rate(self) -> float:
        """Mean detection rate across the scenario's attackers."""
        return float(np.mean([outcome.detection_rate
                              for outcome in self.attackers]))

    def as_table(self) -> str:
        """Text rendering of the per-attacker outcomes."""
        rows = [("legitimate client (false alarms)", "-", "-",
                 self.false_alarm_rate, self.rss_false_alarm_rate, "-")]
        rows.extend(
            (outcome.attacker_name, outcome.attack_type,
             f"({outcome.attacker_position.x:.1f}, {outcome.attacker_position.y:.1f})",
             outcome.detection_rate, outcome.rss_detection_rate,
             outcome.mean_similarity)
            for outcome in self.attackers
        )
        return format_table(
            ["transmitter", "attack", "position", "SecureAngle flag rate",
             "RSS flag rate", "mean similarity"],
            rows,
        )


def _resolve_scenario(scenario: str,
                      estimator_config: Optional[EstimatorConfig],
                      seed: int = 42) -> ScenarioSpec:
    builder = SCENARIOS.get(scenario)
    return builder(estimator=estimator_config, seed=seed)


def run_attack_matrix(scenario: str,
                      estimator_config: Optional[EstimatorConfig] = None,
                      rng: int = 42, **params: Any) -> AttackMatrixResult:
    """Run one scenario's attackers against the trained detector.

    :func:`attack_matrix_campaign` run in-process at one worker; ``params``
    are its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(attack_matrix_campaign(scenario, seed=rng, **params),
                      estimator_config)


def _train_and_track(deployment: Deployment, victim_address: MacAddress,
                     victim_client_id: int, num_training_packets: int,
                     num_test_packets: int):
    """Train the certified signature, then stream the victim's later packets.

    Returns ``(false_alarms, rss_false_alarms, rss_detector)``.  Mutates the
    AP's detector/tracker state, which the attacker measurements depend on,
    so every shard replays this before measuring its attacker.  The RSS
    baseline draws no randomness.
    """
    simulator = deployment.simulator()
    ap = deployment.ap()
    rss_detector = RssSpoofingDetector(match_threshold_db=6.0)

    # ----------------------------------------------------------------- training
    training_captures = [
        simulator.capture_from_client(victim_client_id, elapsed_s=index * 0.5,
                                      timestamp_s=index * 0.5)
        for index in range(num_training_packets)
    ]
    ap.train_client(victim_address, training_captures)
    rss_detector.train(victim_address, RssSignalprint.from_capture_power(
        [np.mean([c.power_dbm() for c in training_captures])]))

    # ----------------------------------------------- legitimate client, later on
    false_alarms = 0
    rss_false_alarms = 0
    probe_captures = [
        simulator.capture_from_client(victim_client_id, elapsed_s=60.0 + index * 5.0,
                                      timestamp_s=60.0 + index * 5.0)
        for index in range(num_test_packets)
    ]
    probe_observations = ap.signatures_from_captures(probe_captures)
    for capture, observation in zip(probe_captures, probe_observations):
        check = ap.check_packet(victim_address, observation, capture.timestamp_s)
        if check.verdict is SpoofingVerdict.SPOOFED:
            false_alarms += 1
        if not rss_detector.matches(victim_address,
                                    RssSignalprint.from_capture_power([capture.power_dbm()])):
            rss_false_alarms += 1
    return false_alarms, rss_false_alarms, rss_detector


def _attacker_outcome(deployment: Deployment, attacker: Attacker,
                      victim_address: MacAddress, ap_address: MacAddress,
                      num_test_packets: int,
                      rss_detector: RssSpoofingDetector) -> AttackOutcome:
    """Measure one attacker (consumes its captures; resets the detector).

    Captures go through the attacker seams: the transmit position is asked
    per packet (swarm members rotate) and waveform/path shaping is applied
    by the simulator.
    """
    simulator = deployment.simulator()
    ap = deployment.ap()
    attack = SpoofingAttack(attacker=attacker, victim_address=victim_address,
                            ap_address=ap_address, num_frames=num_test_packets)
    detections = 0
    rss_detections = 0
    similarities: List[float] = []
    attack_captures = [
        simulator.capture_from_position(
            attacker.transmit_position(index),
            elapsed_s=200.0 + index * 5.0,
            timestamp_s=200.0 + index * 5.0,
            attacker=attacker, tx_power_dbm=attacker.tx_power_dbm)
        for index, _frame in enumerate(attack.iter_frames())
    ]
    attack_observations = ap.signatures_from_captures(attack_captures)
    for capture, observation in zip(attack_captures, attack_observations):
        check = ap.detector.check(victim_address, observation)
        similarities.append(check.similarity)
        if check.verdict is SpoofingVerdict.SPOOFED:
            detections += 1
        if not rss_detector.matches(
                victim_address, RssSignalprint.from_capture_power([capture.power_dbm()])):
            rss_detections += 1
    ap.detector.reset(victim_address)
    return AttackOutcome(
        attacker_name=attacker.name,
        attack_type=type(attacker).__name__,
        attacker_position=attacker.position,
        detection_rate=detections / num_test_packets,
        rss_detection_rate=rss_detections / num_test_packets,
        mean_similarity=float(np.mean(similarities)),
    )


# ------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class AttackMatrixShard(JsonSerializable):
    """One attack-matrix shard.

    The ``legitimate`` shard carries the false-alarm rates; each
    ``attacker`` shard carries its attacker's outcome.
    """

    role: str
    false_alarm_rate: Optional[float] = None
    rss_false_alarm_rate: Optional[float] = None
    outcome: Optional[AttackOutcome] = None

    def __post_init__(self) -> None:
        if self.role not in ("legitimate", "attacker"):
            raise ValueError(f"unknown attack-matrix shard role {self.role!r}")


def attack_matrix_campaign(scenario: str,
                           victim_client_id: int = DEFAULT_VICTIM_CLIENT,
                           num_training_packets: int = DEFAULT_TRAINING_PACKETS,
                           num_test_packets: int = DEFAULT_TEST_PACKETS,
                           seed: int = 42,
                           name: Optional[str] = None) -> CampaignSpec:
    """One scenario's evaluation as a campaign: a shard per transmitter.

    Point 0 measures the legitimate client's false alarms; the following
    points measure the scenario's attackers in declaration order, each shard
    skipping to its attacker's slice of captures after replaying the
    training and tracking prefix.
    """
    canonical = SCENARIOS.canonical(scenario)
    spec = _resolve_scenario(canonical, None)
    populations = [{"role": "legitimate"}]
    populations.extend(
        {"role": "attacker", "attacker_index": index,
         "attacker": attacker_spec.effective_name()}
        for index, attacker_spec in enumerate(spec.attackers))
    return CampaignSpec(
        name=name if name is not None else f"{canonical}-eval",
        experiment=f"{canonical}_eval",
        seeds=(int(seed),),
        base={"scenario": canonical,
              "victim_client_id": int(victim_client_id),
              "num_training_packets": int(num_training_packets),
              "num_test_packets": int(num_test_packets)},
        axes={"population": tuple(populations)},
    )


def check_attack_matrix_params(spec: CampaignSpec) -> None:
    """Reject empty packet counts, a population axis without exactly one
    legitimate entry, and a ``scenario`` whose attackers the axis does not
    name.

    The merge reads the false-alarm rates from the one legitimate shard.
    The axis lists the scenario's attackers by index and name, so a
    ``scenario`` override without a matching axis would run some other
    scenario's attackers, or index past them.
    """
    require_param_at_least(spec, "num_training_packets", DEFAULT_TRAINING_PACKETS)
    require_param_at_least(spec, "num_test_packets", DEFAULT_TEST_PACKETS)
    scenario = SCENARIOS.canonical(str(spec.param("scenario", "replay")))
    if scenario not in ATTACK_MATRIX_SCENARIOS:
        raise ValueError(f"scenario={scenario!r} is not an attack-matrix "
                         f"scenario; known: {list(ATTACK_MATRIX_SCENARIOS)}")
    populations = spec.axes.get("population", ())
    legitimate = sum(isinstance(population, dict)
                     and population.get("role") == "legitimate"
                     for population in populations)
    if legitimate != 1:
        raise ValueError("the population axis needs exactly one "
                         f"legitimate entry, not {legitimate}")
    attackers = [attacker_spec.effective_name()
                 for attacker_spec in _resolve_scenario(scenario, None).attackers]
    for population in populations:
        if not isinstance(population, dict) or population.get("role") != "attacker":
            continue
        index = population.get("attacker_index")
        if (index not in range(len(attackers))
                or population.get("attacker") != attackers[int(index)]):
            raise ValueError(
                f"scenario={scenario!r} does not match the population axis: "
                f"its attackers are {attackers}, the axis names "
                f"{population.get('attacker')!r} at index {index!r}")


def run_attack_matrix_shard(spec: CampaignSpec,
                            shard: ShardSpec) -> AttackMatrixShard:
    """One attack-matrix shard (legitimate client or one attacker)."""
    scenario = SCENARIOS.canonical(str(spec.param("scenario", "replay")))
    num_training = int(spec.param("num_training_packets", DEFAULT_TRAINING_PACKETS))
    num_test = int(spec.param("num_test_packets", DEFAULT_TEST_PACKETS))
    victim_client = int(spec.param("victim_client_id", DEFAULT_VICTIM_CLIENT))
    generator = ensure_rng(shard.seed)
    # The deployment compiles the AP from stream 1 of the seed's generator;
    # the addresses come from streams 2 and 3, the attackers' lazily from 4.
    deployment = Deployment(
        _resolve_scenario(scenario, estimator_from_params(spec.base)),
        rng=generator)
    ap_address = MacAddress.random(spawn_rng(generator, 2))
    victim_address = MacAddress.random(spawn_rng(generator, 3))

    false_alarms, rss_false_alarms, rss_detector = _train_and_track(
        deployment, victim_address, victim_client, num_training, num_test)
    population = shard.params["population"]
    if population["role"] == "legitimate":
        return AttackMatrixShard(
            role="legitimate",
            false_alarm_rate=false_alarms / num_test,
            rss_false_alarm_rate=rss_false_alarms / num_test,
        )

    attackers = list(deployment.attackers.values())
    attacker_index = int(population["attacker_index"])
    if attacker_index > 0:
        # Each attacker's measurement resets the victim's mismatch streak
        # when it ends, so every attacker but the first starts from a clean
        # one.
        deployment.ap().detector.reset(victim_address)
    deployment.simulator().skip_captures(attacker_index * num_test)
    outcome = _attacker_outcome(deployment, attackers[attacker_index],
                                victim_address, ap_address, num_test,
                                rss_detector)
    return AttackMatrixShard(role="attacker", outcome=outcome)


def merge_attack_matrix(spec: CampaignSpec,
                        records: Sequence[AttackMatrixShard]) -> AttackMatrixResult:
    """Reduce the per-transmitter shards into the evaluation (the axis has
    one legitimate entry: :func:`check_attack_matrix_params`)."""
    legitimate = next(record for record in records
                      if record.role == "legitimate")
    return AttackMatrixResult(
        scenario=SCENARIOS.canonical(str(spec.param("scenario", "replay"))),
        victim_client_id=int(spec.param("victim_client_id",
                                        DEFAULT_VICTIM_CLIENT)),
        false_alarm_rate=legitimate.false_alarm_rate,
        rss_false_alarm_rate=legitimate.rss_false_alarm_rate,
        attackers=[record.outcome for record in records
                   if record.role == "attacker"],
    )
