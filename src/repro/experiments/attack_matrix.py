"""The extended attack-family evaluation (the scenario diversity engine).

One experiment, parameterised by scenario, measuring every attack family of
:mod:`repro.attacks.families` against the trained SecureAngle detector: a
legitimate client trains its certified signature, then each attacker of the
scenario replays/mirrors/swarms/drifts the victim's address and the
evaluation counts detections.  The wiring deliberately mirrors
:mod:`repro.experiments.spoofing_eval` (same victim, same packet epochs, the
same one-AP stream layout) so the two evaluations are directly comparable —
but it drives captures through the attacker seams: ``transmit_position`` per
packet (swarms), waveform shaping (replay, CFO), and path shaping
(reflectors).

Each family is exposed as its own campaign experiment (``replay_eval``,
``reflector_eval``, ``swarm_eval``, ``cfo_drift_eval``) so the campaign
conformance gate covers all four; they share this module's runner.
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
from repro.campaign.spec import (
    CampaignSpec,
    ShardSpec,
    estimator_from_params,
    require_param_at_least,
)
from repro.core.spoofing import SpoofingVerdict
from repro.experiments.reporting import format_table
from repro.experiments.spoofing_eval import _train_and_track
from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.serde import JsonSerializable

#: Defaults of the campaign builders, their shards and their merge (kept
#: equal to the spoofing evaluation's, for comparability).
DEFAULT_VICTIM_CLIENT = 5
DEFAULT_TRAINING_PACKETS = 10
DEFAULT_TEST_PACKETS = 20

#: The scenario presets this experiment runs (canonical registry names).
ATTACK_MATRIX_SCENARIOS = ("replay", "reflector", "swarm", "cfo_drift")


@dataclass(frozen=True)
class AttackOutcome(JsonSerializable):
    """Detection statistics for one attacker of the scenario."""

    attacker_name: str
    attack_type: str
    attacker_position: Point
    detection_rate: float
    mean_similarity: float


@dataclass(frozen=True)
class AttackMatrixResult(JsonSerializable):
    """Results of one attack-family evaluation."""

    scenario: str
    victim_client_id: int
    false_alarm_rate: float
    attackers: List[AttackOutcome]

    @property
    def mean_detection_rate(self) -> float:
        """Mean detection rate across the scenario's attackers."""
        return float(np.mean([outcome.detection_rate
                              for outcome in self.attackers]))

    def as_table(self) -> str:
        """Text rendering of the per-attacker outcomes."""
        rows = [("legitimate client (false alarms)", "-", "-",
                 self.false_alarm_rate, "-")]
        rows.extend(
            (outcome.attacker_name, outcome.attack_type,
             f"({outcome.attacker_position.x:.1f}, {outcome.attacker_position.y:.1f})",
             outcome.detection_rate, outcome.mean_similarity)
            for outcome in self.attackers
        )
        return format_table(
            ["transmitter", "attack", "position", "flag rate", "mean similarity"],
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
    """Run one attack-family scenario against the trained detector.

    :func:`attack_matrix_campaign` run in-process at one worker; ``params``
    are its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(attack_matrix_campaign(scenario, seed=rng, **params),
                      estimator_config)


def _attacker_outcome(deployment: Deployment, attacker: Attacker,
                      victim_address: MacAddress, ap_address: MacAddress,
                      num_test_packets: int) -> AttackOutcome:
    """Measure one attacker (consumes its captures; resets the detector).

    Unlike the spoofing evaluation's inner loop, captures go through the
    attacker seams: the transmit position is asked per packet (swarm members
    rotate) and waveform/path shaping is applied by the simulator.
    """
    simulator = deployment.simulator()
    ap = deployment.ap()
    attack = SpoofingAttack(attacker=attacker, victim_address=victim_address,
                            ap_address=ap_address, num_frames=num_test_packets)
    detections = 0
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
    for _capture, observation in zip(attack_captures, attack_observations):
        check = ap.detector.check(victim_address, observation)
        similarities.append(check.similarity)
        if check.verdict is SpoofingVerdict.SPOOFED:
            detections += 1
    ap.detector.reset(victim_address)
    return AttackOutcome(
        attacker_name=attacker.name,
        attack_type=type(attacker).__name__,
        attacker_position=attacker.position,
        detection_rate=detections / num_test_packets,
        mean_similarity=float(np.mean(similarities)),
    )


# ------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class AttackMatrixShard(JsonSerializable):
    """One attack-matrix shard: the legitimate client or one attacker."""

    role: str
    false_alarm_rate: Optional[float] = None
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
    """One attack-family evaluation as a campaign: a shard per transmitter.

    Point 0 measures the legitimate client's false alarms; the following
    points measure the scenario's attackers in declaration order, each shard
    skipping to its own slice of captures after replaying the training and
    tracking prefix.
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
    """Reject empty packet counts, and a ``scenario`` whose attackers the
    population axis does not name.

    The axis lists the scenario's attackers by index and name, so a
    ``scenario`` override without a matching axis would run some other
    scenario's attackers, or index past them.
    """
    require_param_at_least(spec, "num_training_packets", DEFAULT_TRAINING_PACKETS)
    require_param_at_least(spec, "num_test_packets", DEFAULT_TEST_PACKETS)
    scenario = SCENARIOS.canonical(str(spec.param("scenario", "replay")))
    if scenario not in ATTACK_MATRIX_SCENARIOS:
        raise ValueError(f"scenario={scenario!r} is not an attack-family "
                         f"scenario; known: {list(ATTACK_MATRIX_SCENARIOS)}")
    attackers = [attacker_spec.effective_name()
                 for attacker_spec in _resolve_scenario(scenario, None).attackers]
    for population in spec.axes.get("population", ()):
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
    deployment = Deployment(
        _resolve_scenario(scenario, estimator_from_params(spec.base)),
        rng=generator)
    # Same address-draw order as the spoofing evaluation: AP from stream 2,
    # victim from stream 3, attacker addresses lazily from stream 4.
    ap_address = MacAddress.random(spawn_rng(generator, 2))
    victim_address = MacAddress.random(spawn_rng(generator, 3))

    false_alarms, _, _ = _train_and_track(deployment, victim_address,
                                          victim_client, num_training, num_test)
    population = shard.params["population"]
    if population["role"] == "legitimate":
        return AttackMatrixShard(role="legitimate",
                                 false_alarm_rate=false_alarms / num_test)

    attackers = list(deployment.attackers.values())
    attacker_index = int(population["attacker_index"])
    if shard.point > 1:
        # Each attacker's measurement resets the victim's mismatch streak
        # when it ends, so every attacker but the first starts from a clean
        # one.
        deployment.ap().detector.reset(victim_address)
    deployment.simulator().skip_captures(attacker_index * num_test)
    outcome = _attacker_outcome(deployment, attackers[attacker_index],
                                victim_address, ap_address, num_test)
    return AttackMatrixShard(role="attacker", outcome=outcome)


def merge_attack_matrix(spec: CampaignSpec,
                        records: Sequence[AttackMatrixShard]) -> AttackMatrixResult:
    """Reduce the per-transmitter shards into the evaluation."""
    legitimate = [record for record in records if record.role == "legitimate"]
    if len(legitimate) != 1:
        raise ValueError(
            "an attack-matrix campaign needs exactly one legitimate shard")
    return AttackMatrixResult(
        scenario=SCENARIOS.canonical(str(spec.param("scenario", "replay"))),
        victim_client_id=int(spec.param("victim_client_id",
                                        DEFAULT_VICTIM_CLIENT)),
        false_alarm_rate=legitimate[0].false_alarm_rate,
        attackers=[record.outcome for record in records
                   if record.role == "attacker"],
    )


# ------------------------------------------------- per-family campaign wiring
# The campaign registry, the CLI, and the conformance gate all key on the
# experiment name, so each family gets thin named wrappers over the shared
# runner.  (The wrappers — not functools.partial — keep the signatures
# introspectable and the registry entries picklable for process backends.)
def replay_eval_campaign(**kwargs: object) -> CampaignSpec:
    """The replay evaluation's default campaign spec."""
    return attack_matrix_campaign("replay", **kwargs)  # type: ignore[arg-type]


def reflector_eval_campaign(**kwargs: object) -> CampaignSpec:
    """The reflector evaluation's default campaign spec."""
    return attack_matrix_campaign("reflector", **kwargs)  # type: ignore[arg-type]


def swarm_eval_campaign(**kwargs: object) -> CampaignSpec:
    """The swarm evaluation's default campaign spec."""
    return attack_matrix_campaign("swarm", **kwargs)  # type: ignore[arg-type]


def cfo_drift_eval_campaign(**kwargs: object) -> CampaignSpec:
    """The CFO-drift evaluation's default campaign spec."""
    return attack_matrix_campaign("cfo_drift", **kwargs)  # type: ignore[arg-type]


def run_replay_eval(**kwargs: object) -> AttackMatrixResult:
    """The replay evaluation at one worker (see :func:`run_attack_matrix`)."""
    return run_attack_matrix("replay", **kwargs)  # type: ignore[arg-type]


def run_reflector_eval(**kwargs: object) -> AttackMatrixResult:
    """The reflector evaluation at one worker (see :func:`run_attack_matrix`)."""
    return run_attack_matrix("reflector", **kwargs)  # type: ignore[arg-type]


def run_swarm_eval(**kwargs: object) -> AttackMatrixResult:
    """The swarm evaluation at one worker (see :func:`run_attack_matrix`)."""
    return run_attack_matrix("swarm", **kwargs)  # type: ignore[arg-type]


def run_cfo_drift_eval(**kwargs: object) -> AttackMatrixResult:
    """The CFO-drift evaluation at one worker (see :func:`run_attack_matrix`)."""
    return run_attack_matrix("cfo_drift", **kwargs)  # type: ignore[arg-type]
