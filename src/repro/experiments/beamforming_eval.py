"""Downlink beamforming evaluation (Section 5, future work).

For each client, the AP estimates the uplink AoA from one packet and then
transmits downlink either (a) omnidirectionally from a single antenna,
(b) steered at the estimated direct-path bearing, or (c) along the dominant
eigenvector of the uplink covariance (maximum ratio transmission).  The
experiment reports the delivered-power gain of (b) and (c) over (a): the
paper's claim is that uplink AoA enables "high efficiency downlink directional
transmission ... resulting in higher throughput and better reliability".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.aoa.covariance import correlation_matrix
from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, single_ap_scenario
from repro.campaign.spec import CampaignSpec, ShardSpec, estimator_from_params
from repro.core.beamforming import (
    beamforming_gain_db,
    downlink_channel_vector,
    eigen_weights,
    steering_weights,
)
from repro.experiments.reporting import format_table
from repro.utils.serde import JsonSerializable


@dataclass(frozen=True)
class BeamformingResult(JsonSerializable):
    """Per-client downlink gains of AoA-steered and eigen beamforming."""

    steering_gain_db_by_client: Dict[int, float]
    eigen_gain_db_by_client: Dict[int, float]

    @property
    def median_steering_gain_db(self) -> float:
        """Median gain of steering at the estimated direct-path bearing."""
        return float(np.median(list(self.steering_gain_db_by_client.values())))

    @property
    def median_eigen_gain_db(self) -> float:
        """Median gain of eigen (MRT) beamforming."""
        return float(np.median(list(self.eigen_gain_db_by_client.values())))

    def as_table(self) -> str:
        """Text rendering: one row per client."""
        rows = []
        for client_id in sorted(self.steering_gain_db_by_client):
            rows.append((client_id,
                         self.steering_gain_db_by_client[client_id],
                         self.eigen_gain_db_by_client[client_id]))
        return format_table(
            ["client", "AoA-steered gain (dB)", "eigen/MRT gain (dB)"], rows)


def _client_gains(deployment: Deployment, client_id: int) -> Tuple[float, float]:
    """One client's (steering, eigen) downlink gains in dB.

    Consumes exactly one capture from the AP's simulator (the shard-skip
    unit); everything else — ray tracing, weight computation — is
    deterministic arithmetic.
    """
    simulator = deployment.simulator()
    ap = deployment.ap()
    capture = simulator.capture_from_client(client_id)
    calibrated = ap.calibration.apply(capture)
    estimate = ap.analyze(calibrated)

    paths = simulator.raytracer.trace(
        deployment.environment.client_position(client_id), simulator.ap_position)
    channel = downlink_channel_vector(ap.array, paths,
                                      orientation_deg=simulator.orientation_deg)

    steered = steering_weights(ap.array, estimate.bearing_deg)
    mrt = eigen_weights(correlation_matrix(calibrated.samples))
    return (beamforming_gain_db(steered, channel),
            beamforming_gain_db(mrt, channel))


def run_beamforming_evaluation(estimator_config: Optional[EstimatorConfig] = None,
                               rng: int = 42, **params: Any) -> BeamformingResult:
    """Evaluate downlink beamforming gains derived from uplink AoA.

    :func:`beamforming_campaign` run in-process at one worker; ``params``
    are its keyword arguments, ``rng`` its seed.
    """
    from repro.campaign.engine import run_serial

    return run_serial(beamforming_campaign(seed=rng, **params), estimator_config)


# ------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class BeamformingShard(JsonSerializable):
    """One beamforming campaign shard: a single client's downlink gains."""

    client_id: int
    steering_gain_db: float
    eigen_gain_db: float


def beamforming_campaign(client_ids: Optional[Sequence[int]] = None,
                         seed: int = 42,
                         name: str = "beamforming") -> CampaignSpec:
    """The beamforming evaluation as a campaign: one shard per client.

    Each shard rebuilds the deployment from the seed and skips the
    simulator's capture ordinal past the earlier clients' packets (one
    capture each).
    """
    if client_ids is None:
        from repro.api import ENVIRONMENTS

        client_ids = ENVIRONMENTS.get("figure4")().client_ids
    return CampaignSpec(
        name=name,
        experiment="beamforming",
        seeds=(int(seed),),
        axes={"client_id": tuple(int(client) for client in client_ids)},
    )


def run_beamforming_shard(spec: CampaignSpec,
                          shard: ShardSpec) -> BeamformingShard:
    """One beamforming campaign shard."""
    deployment = Deployment(single_ap_scenario(
        estimator=estimator_from_params(spec.base), name="beamforming"),
        rng=shard.seed)
    # Jump to this client's slice (one capture per earlier client).
    deployment.simulator().skip_captures(shard.point)
    client_id = int(shard.params["client_id"])
    steering_gain, eigen_gain = _client_gains(deployment, client_id)
    return BeamformingShard(client_id=client_id,
                            steering_gain_db=steering_gain,
                            eigen_gain_db=eigen_gain)


def merge_beamforming(spec: CampaignSpec,
                      shards: Sequence[BeamformingShard]) -> BeamformingResult:
    """Reduce one replicate's shard gains into the evaluation."""
    return BeamformingResult(
        steering_gain_db_by_client={shard.client_id: shard.steering_gain_db
                                    for shard in shards},
        eigen_gain_db_by_client={shard.client_id: shard.eigen_gain_db
                                 for shard in shards},
    )
