"""Figure 5: measured versus ground-truth bearings for the testbed clients.

The paper computes, for each of the 20 Soekris clients and with the circular
(octagonal) antenna arrangement, ten pseudospectra from ten different packets,
takes the bearing of each pseudospectrum's maximum, and plots the mean bearing
with a 99 % confidence interval against the ground-truth bearing.  The text
quotes a mean 99 % confidence interval of roughly 7 degrees and notes that the
blocked (11, 12) and far (6) clients show the largest variance.

``run_figure5`` reproduces that procedure on the simulated testbed and
returns one row per client (ground truth, mean estimate, confidence interval,
error) plus the summary statistics the accuracy claim (Section 2.3.1) is built
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.experiments.reporting import format_table
from repro.utils.angles import angular_difference, circular_mean, confidence_interval_halfwidth
from repro.utils.serde import JsonSerializable


#: Defaults of the campaign builder, its shards and its merge.
DEFAULT_NUM_PACKETS = 10
DEFAULT_INTER_PACKET_GAP_S = 0.5
DEFAULT_CONFIDENCE = 0.99


@dataclass(frozen=True)
class ClientBearingRow(JsonSerializable):
    """One client's row of the Figure 5 data."""

    client_id: int
    ground_truth_deg: float
    mean_estimate_deg: float
    confidence_halfwidth_deg: float
    error_deg: float
    per_packet_bearings_deg: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Figure5Result(JsonSerializable):
    """The full Figure 5 dataset plus its summary statistics."""

    rows: List[ClientBearingRow]
    num_packets: int
    confidence: float

    @property
    def mean_confidence_halfwidth_deg(self) -> float:
        """Mean 99 % confidence-interval half-width across clients (paper: ~7 deg)."""
        return float(np.mean([row.confidence_halfwidth_deg for row in self.rows]))

    @property
    def errors_deg(self) -> np.ndarray:
        """Per-client bearing errors of the mean estimates."""
        return np.array([row.error_deg for row in self.rows])

    def fraction_within(self, threshold_deg: float) -> float:
        """Fraction of clients whose mean bearing error is within ``threshold_deg``."""
        if threshold_deg <= 0:
            raise ValueError("threshold_deg must be positive")
        return float(np.mean(self.errors_deg <= threshold_deg))

    def as_table(self) -> str:
        """Text rendering of the per-client rows (what the benchmark prints)."""
        return format_table(
            ["client", "truth (deg)", "mean est (deg)", "99% CI (deg)", "error (deg)"],
            [
                (row.client_id, row.ground_truth_deg, row.mean_estimate_deg,
                 row.confidence_halfwidth_deg, row.error_deg)
                for row in self.rows
            ],
        )


def run_figure5(estimator_config: Optional[EstimatorConfig] = None,
                rng: int = 42, **params: Any) -> Figure5Result:
    """Reproduce Figure 5 on the simulated testbed.

    :func:`figure5_campaign` run in-process at one worker; ``params`` are
    its keyword arguments, ``rng`` its seed.  ``estimator_config``
    overrides the default MUSIC pipeline configuration.
    """
    from repro.campaign.engine import run_serial

    return run_serial(figure5_campaign(seed=rng, **params), estimator_config)


# ------------------------------------------------------------------- campaign
def figure5_campaign(num_packets: int = DEFAULT_NUM_PACKETS,
                     client_ids: Optional[Sequence[int]] = None,
                     inter_packet_gap_s: float = DEFAULT_INTER_PACKET_GAP_S,
                     confidence: float = DEFAULT_CONFIDENCE,
                     seed: int = 42,
                     name: str = "figure5") -> CampaignSpec:
    """Figure 5 as a campaign: one shard per client, seed pinned to 42.

    Each shard rebuilds the figure's deployment from the seed, skips the
    simulator's capture ordinal past the earlier clients' captures, and
    measures its own client.

    Parameters
    ----------
    num_packets:
        Pseudospectra per client (the paper uses 10).
    client_ids:
        Which clients to measure; defaults to all twenty.
    inter_packet_gap_s:
        Spacing between the packets of one client's burst.
    confidence:
        Confidence level of the interval (the paper plots 99 %).
    seed:
        Seed controlling every stochastic part of the simulation.
    """
    if client_ids is None:
        from repro.api import ENVIRONMENTS

        client_ids = ENVIRONMENTS.get("figure4")().client_ids
    return CampaignSpec(
        name=name,
        experiment="figure5",
        seeds=(int(seed),),
        base={"num_packets": int(num_packets),
              "inter_packet_gap_s": float(inter_packet_gap_s),
              "confidence": float(confidence)},
        axes={"client_id": tuple(int(client) for client in client_ids)},
    )


def check_figure5_params(spec: CampaignSpec) -> None:
    """Reject a packet count the shards would measure nothing with."""
    require_param_at_least(spec, "num_packets", DEFAULT_NUM_PACKETS)


def run_figure5_shard(spec: CampaignSpec, shard: ShardSpec) -> ClientBearingRow:
    """One Figure 5 campaign shard: a single client's row."""
    num_packets = int(spec.param("num_packets", DEFAULT_NUM_PACKETS))
    gap_s = float(spec.param("inter_packet_gap_s", DEFAULT_INTER_PACKET_GAP_S))
    client_id = int(shard.params["client_id"])
    deployment = Deployment(single_ap_scenario(
        estimator=estimator_from_params(spec.base), name="figure5"),
        rng=shard.seed)
    simulator = deployment.simulator()
    # Jump to this client's slice of the capture sequence.
    simulator.skip_captures(shard.point * num_packets)
    expected = simulator.expected_client_bearing(client_id)
    captures = [
        simulator.capture_from_client(client_id, elapsed_s=index * gap_s,
                                      timestamp_s=index * gap_s)
        for index in range(num_packets)
    ]
    bearings = [estimate.bearing_deg
                for estimate in deployment.ap().analyze_batch(captures)]
    mean_bearing = circular_mean(bearings)
    halfwidth = confidence_interval_halfwidth(
        bearings, confidence=float(spec.param("confidence", DEFAULT_CONFIDENCE)))
    return ClientBearingRow(
        client_id=client_id,
        ground_truth_deg=float(expected),
        mean_estimate_deg=float(mean_bearing),
        confidence_halfwidth_deg=float(halfwidth),
        error_deg=float(angular_difference(mean_bearing, expected)),
        per_packet_bearings_deg=bearings,
    )


def merge_figure5(spec: CampaignSpec,
                  rows: Sequence[ClientBearingRow]) -> Figure5Result:
    """Reduce one replicate's shard rows into the figure's result."""
    return Figure5Result(rows=list(rows),
                         num_packets=int(spec.param("num_packets", DEFAULT_NUM_PACKETS)),
                         confidence=float(spec.param("confidence", DEFAULT_CONFIDENCE)))
