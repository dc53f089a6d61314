"""The virtual-fence evaluation (Section 2.3.1).

Three SecureAngle access points with circular arrays are placed in the
building.  Each packet is transmitted once and every AP captures it; each AP
computes the packet's direct-path bearing from its own capture, and the
controller triangulates the transmitter and checks it against the building
boundary.  The evaluation covers three populations:

* the twenty legitimate indoor clients (should be admitted),
* transmitters at outdoor positions just outside the building (should be
  dropped), and
* a directional-antenna attacker outdoors aiming at one of the APs — the
  strong attacker of the threat model.

The metrics are the admit rate for insiders, the drop rate for outsiders, and
the localisation error for the indoor clients (whose ground-truth positions
are known).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, fence_scenario
from repro.campaign.spec import (
    CampaignSpec,
    ShardSpec,
    estimator_from_params,
    require_param_at_least,
)
from repro.core.fence import FenceDecision
from repro.experiments.reporting import format_table
from repro.geometry.point import Point
from repro.testbed.scenario import CaptureRequest
from repro.utils.serde import JsonSerializable


#: Defaults of the campaign builder and its shards.
DEFAULT_PACKETS_PER_TRANSMITTER = 3
DEFAULT_MARGIN_M = 1.0
#: The fence scenario's strong attacker (declared by ``fence_scenario``).
ATTACKER_NAME = "directional-attacker"


@dataclass(frozen=True)
class FenceCase(JsonSerializable):
    """One transmitter's outcome."""

    label: str
    true_position: Point
    truly_inside: bool
    decision: FenceDecision
    admitted: bool
    localization_error_m: Optional[float]


@dataclass(frozen=True)
class FenceEvaluation(JsonSerializable):
    """Outcomes for every transmitter in the evaluation."""

    cases: List[FenceCase]

    @property
    def insider_admit_rate(self) -> float:
        """Fraction of genuinely-inside transmitters that were admitted."""
        insiders = [case for case in self.cases if case.truly_inside]
        if not insiders:
            return float("nan")
        return float(np.mean([case.admitted for case in insiders]))

    @property
    def outsider_drop_rate(self) -> float:
        """Fraction of genuinely-outside transmitters that were dropped."""
        outsiders = [case for case in self.cases if not case.truly_inside]
        if not outsiders:
            return float("nan")
        return float(np.mean([not case.admitted for case in outsiders]))

    @property
    def median_localization_error_m(self) -> float:
        """Median localisation error over the transmitters with known positions."""
        errors = [case.localization_error_m for case in self.cases
                  if case.localization_error_m is not None]
        if not errors:
            return float("nan")
        return float(np.median(errors))

    def as_table(self) -> str:
        """Text rendering of the per-transmitter outcomes."""
        return format_table(
            ["transmitter", "truly inside", "decision", "admitted", "loc error (m)"],
            [
                (case.label, case.truly_inside, case.decision.value, case.admitted,
                 "-" if case.localization_error_m is None else case.localization_error_m)
                for case in self.cases
            ],
        )


def _transmitter_population(environment,
                            client_ids: Optional[Sequence[int]] = None,
                            outdoor_labels: Optional[Sequence[str]] = None,
                            include_attacker: bool = True) -> List[Dict[str, Any]]:
    """The evaluation's transmitters, in capture order.

    Each descriptor is a plain JSON-able dictionary so the same list can be a
    campaign axis: the indoor clients, then the outdoor probe positions, then
    (optionally) the strong directional attacker.
    """
    transmitters: List[Dict[str, Any]] = []
    if client_ids is None:
        client_ids = environment.client_ids
    for client_id in client_ids:
        transmitters.append({"kind": "client", "client_id": int(client_id)})
    if outdoor_labels is None:
        outdoor_labels = list(environment.outdoor_positions)
    for label in outdoor_labels:
        transmitters.append({"kind": "outdoor", "label": str(label)})
    if include_attacker:
        transmitters.append({"kind": "attacker", "name": ATTACKER_NAME})
    return transmitters


def _evaluate_transmitter(deployment: Deployment, transmitter: Dict[str, Any],
                          packets_per_transmitter: int) -> FenceCase:
    """One transmitter's fence outcome.

    Its ``packets_per_transmitter`` packets go through
    :meth:`Deployment.capture` in one call: each is transmitted once and
    every AP captures it, so every AP simulator consumes that many capture
    ordinals.
    """
    environment = deployment.environment
    kind = str(transmitter["kind"])
    attacker = None
    if kind == "client":
        client_id = int(transmitter["client_id"])
        label = f"client-{client_id}"
        position = environment.client_position(client_id)
    elif kind == "outdoor":
        outdoor = str(transmitter["label"])
        label = f"outdoor-{outdoor}"
        position = environment.outdoor_positions[outdoor]
    elif kind == "attacker":
        # The strong attacker: outdoors, directional antenna aimed at the
        # main AP.  Building it draws only from the deployment's attacker
        # address stream, never from the capture streams.
        attacker = deployment.attackers[str(transmitter["name"])]
        label = attacker.name
        position = attacker.position
    else:
        raise ValueError(f"unknown fence transmitter kind {kind!r}")

    captures_by_ap = deployment.capture([
        CaptureRequest(position=position, elapsed_s=packet_index * 0.5,
                       attacker=attacker)
        for packet_index in range(packets_per_transmitter)
    ])
    votes: List[FenceDecision] = []
    errors: List[float] = []
    for packet_index in range(packets_per_transmitter):
        check = deployment.controller.fence_check(
            {name: captures[packet_index]
             for name, captures in captures_by_ap.items()})
        votes.append(check.decision)
        if check.location is not None and check.decision is not FenceDecision.INDETERMINATE:
            errors.append(check.location.position.distance_to(position))
    # Majority vote across the packets of one transmitter.
    admits = sum(1 for vote in votes if vote is FenceDecision.INSIDE)
    final = FenceDecision.INSIDE if admits > len(votes) / 2 else (
        FenceDecision.OUTSIDE if any(v is FenceDecision.OUTSIDE for v in votes)
        else FenceDecision.INDETERMINATE)
    truly_inside = environment.is_inside_building(position)
    return FenceCase(
        label=label,
        true_position=position,
        truly_inside=truly_inside,
        decision=final,
        admitted=final is FenceDecision.INSIDE,
        localization_error_m=float(np.median(errors)) if errors else None,
    )


def run_fence_evaluation(estimator_config: Optional[EstimatorConfig] = None,
                         rng: int = 42, **params: Any) -> FenceEvaluation:
    """Run the multi-AP virtual-fence evaluation on the simulated testbed.

    :func:`fence_eval_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(fence_eval_campaign(seed=rng, **params), estimator_config)


# ------------------------------------------------------------------- campaign
def fence_eval_campaign(packets_per_transmitter: int = DEFAULT_PACKETS_PER_TRANSMITTER,
                        margin_m: float = DEFAULT_MARGIN_M,
                        client_ids: Optional[Sequence[int]] = None,
                        outdoor_labels: Optional[Sequence[str]] = None,
                        include_attacker: bool = True,
                        seed: int = 42,
                        name: str = "fence_eval") -> CampaignSpec:
    """The fence evaluation as a campaign: one shard per transmitter.

    Three APs, per Section 2.3.1's "more than two access points", plus the
    fence and the strong attacker, all declared by the fence scenario spec.
    ``client_ids``/``outdoor_labels``/``include_attacker`` restrict the
    transmitter population (defaults cover everything, as the paper does).
    Each shard rebuilds the fence deployment from the seed, skips every AP
    simulator's capture ordinal past the earlier transmitters' packets, and
    evaluates its own transmitter.
    """
    from repro.api import ENVIRONMENTS

    environment = ENVIRONMENTS.get("figure4")()
    transmitters = _transmitter_population(
        environment, client_ids=client_ids, outdoor_labels=outdoor_labels,
        include_attacker=include_attacker)
    return CampaignSpec(
        name=name,
        experiment="fence_eval",
        seeds=(int(seed),),
        base={"packets_per_transmitter": int(packets_per_transmitter),
              "margin_m": float(margin_m)},
        axes={"transmitter": tuple(transmitters)},
    )


def check_fence_eval_params(spec: CampaignSpec) -> None:
    """Reject a packet count that would leave every transmitter undecided."""
    require_param_at_least(spec, "packets_per_transmitter",
                           DEFAULT_PACKETS_PER_TRANSMITTER)


def run_fence_shard(spec: CampaignSpec, shard: ShardSpec) -> FenceCase:
    """One fence-evaluation campaign shard: a single transmitter's case."""
    packets = int(spec.param("packets_per_transmitter",
                             DEFAULT_PACKETS_PER_TRANSMITTER))
    deployment = Deployment(
        fence_scenario(estimator=estimator_from_params(spec.base),
                       margin_m=float(spec.param("margin_m", DEFAULT_MARGIN_M))),
        rng=shard.seed)
    # Jump every AP's simulator to this transmitter's slice of the capture
    # sequence (each transmitter consumes ``packets`` captures per AP).
    for simulator in deployment.simulators.values():
        simulator.skip_captures(shard.point * packets)
    return _evaluate_transmitter(deployment, dict(shard.params["transmitter"]),
                                 packets_per_transmitter=packets)


def merge_fence_eval(spec: CampaignSpec,
                     cases: Sequence[FenceCase]) -> FenceEvaluation:
    """Reduce one replicate's shard cases into the evaluation."""
    return FenceEvaluation(cases=list(cases))
