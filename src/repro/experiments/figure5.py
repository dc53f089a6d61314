"""Figure 5: measured versus ground-truth bearings for the testbed clients.

The paper computes, for each of the 20 Soekris clients and with the circular
(octagonal) antenna arrangement, ten pseudospectra from ten different packets,
takes the bearing of each pseudospectrum's maximum, and plots the mean bearing
with a 99 % confidence interval against the ground-truth bearing.  The text
quotes a mean 99 % confidence interval of roughly 7 degrees and notes that the
blocked (11, 12) and far (6) clients show the largest variance.

``run_figure5`` reproduces exactly that procedure on the simulated testbed and
returns one row per client (ground truth, mean estimate, confidence interval,
error) plus the summary statistics the accuracy claim (Section 2.3.1) is built
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, single_ap_scenario
from repro.campaign.spec import CampaignSpec, ShardSpec, estimator_from_params
from repro.experiments.reporting import format_table
from repro.utils.angles import angular_difference, circular_mean, confidence_interval_halfwidth
from repro.utils.rng import RngLike
from repro.utils.serde import JsonSerializable


#: Defaults shared by the serial runner and the campaign adapter.
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


def run_figure5(num_packets: int = DEFAULT_NUM_PACKETS,
                client_ids: Optional[Sequence[int]] = None,
                inter_packet_gap_s: float = DEFAULT_INTER_PACKET_GAP_S,
                confidence: float = DEFAULT_CONFIDENCE,
                estimator_config: Optional[EstimatorConfig] = None,
                rng: RngLike = 42) -> Figure5Result:
    """Reproduce Figure 5 on the simulated testbed.

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
    estimator_config:
        Overrides the default MUSIC pipeline configuration.
    rng:
        Seed controlling every stochastic part of the simulation.
    """
    if num_packets < 1:
        raise ValueError("num_packets must be at least 1")
    deployment = Deployment(single_ap_scenario(estimator=estimator_config,
                                               name="figure5"), rng=rng)
    if client_ids is None:
        client_ids = deployment.environment.client_ids

    rows: List[ClientBearingRow] = []
    for client_id in client_ids:
        rows.append(_client_row(deployment, client_id, num_packets=num_packets,
                                inter_packet_gap_s=inter_packet_gap_s,
                                confidence=confidence))
    return Figure5Result(rows=rows, num_packets=num_packets, confidence=confidence)


def _client_row(deployment: Deployment, client_id: int, num_packets: int,
                inter_packet_gap_s: float, confidence: float) -> ClientBearingRow:
    """One client's Figure 5 row (consumes ``num_packets`` captures)."""
    simulator = deployment.simulator()
    ap = deployment.ap()
    expected = simulator.expected_client_bearing(client_id)
    captures = [
        simulator.capture_from_client(
            client_id, elapsed_s=index * inter_packet_gap_s,
            timestamp_s=index * inter_packet_gap_s)
        for index in range(num_packets)
    ]
    estimates = ap.analyze_batch(captures)
    bearings = [estimate.bearing_deg for estimate in estimates]
    mean_bearing = circular_mean(bearings)
    halfwidth = confidence_interval_halfwidth(bearings, confidence=confidence)
    error = float(angular_difference(mean_bearing, expected))
    return ClientBearingRow(
        client_id=client_id,
        ground_truth_deg=float(expected),
        mean_estimate_deg=float(mean_bearing),
        confidence_halfwidth_deg=float(halfwidth),
        error_deg=error,
        per_packet_bearings_deg=bearings,
    )


# ------------------------------------------------------------------- campaign
def figure5_campaign(num_packets: int = DEFAULT_NUM_PACKETS,
                     client_ids: Optional[Sequence[int]] = None,
                     inter_packet_gap_s: float = DEFAULT_INTER_PACKET_GAP_S,
                     confidence: float = DEFAULT_CONFIDENCE,
                     seed: int = 42,
                     name: str = "figure5") -> CampaignSpec:
    """Figure 5 as a campaign: one shard per client, seed pinned to 42.

    The lone replicate reproduces :func:`run_figure5` bit-for-bit: each shard
    rebuilds the figure's deployment from the same seed, skips the
    simulator's capture ordinal past the earlier clients' captures, and
    measures its own client exactly as the serial loop would.
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


def run_figure5_shard(spec: CampaignSpec, shard: ShardSpec) -> ClientBearingRow:
    """One Figure 5 campaign shard: a single client's row."""
    num_packets = int(spec.param("num_packets", DEFAULT_NUM_PACKETS))
    deployment = Deployment(single_ap_scenario(
        estimator=estimator_from_params(spec.base), name="figure5"),
        rng=shard.seed)
    # Jump to this client's slice of the serial capture sequence.
    deployment.simulator().skip_captures(shard.point * num_packets)
    return _client_row(deployment, int(shard.params["client_id"]),
                       num_packets=num_packets,
                       inter_packet_gap_s=float(
                           spec.param("inter_packet_gap_s", DEFAULT_INTER_PACKET_GAP_S)),
                       confidence=float(spec.param("confidence", DEFAULT_CONFIDENCE)))


def merge_figure5(spec: CampaignSpec,
                  rows: Sequence[ClientBearingRow]) -> Figure5Result:
    """Reduce one replicate's shard rows into the serial result dataclass."""
    return Figure5Result(rows=list(rows),
                         num_packets=int(spec.param("num_packets", DEFAULT_NUM_PACKETS)),
                         confidence=float(spec.param("confidence", DEFAULT_CONFIDENCE)))
