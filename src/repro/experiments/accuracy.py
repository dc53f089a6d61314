"""The headline accuracy claim of Section 2.3.1.

"After overhearing just one packet, it is possible to measure approximately
three quarters of our clients' bearings to the access point to within 2.5
degrees and all clients' bearings to within 14 degrees with 95 % confidence."

``evaluate_accuracy_claim`` measures exactly that statistic on the simulated
testbed: for every client it takes the per-packet (single-packet) bearing
errors of Figure 5's bursts, each client's 95th-percentile error, and reports
what fraction of clients stay within 2.5 degrees and within 14 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.campaign.spec import CampaignSpec
from repro.experiments.figure5 import figure5_campaign
from repro.experiments.reporting import format_table
from repro.utils.angles import angular_difference
from repro.utils.serde import JsonSerializable


@dataclass(frozen=True)
class AccuracyClaim(JsonSerializable):
    """Per-client single-packet accuracy at a given confidence level."""

    per_client_quantile_error_deg: Dict[int, float]
    confidence: float
    num_packets: int

    @property
    def fraction_within_2_5_deg(self) -> float:
        """Fraction of clients within 2.5 degrees (paper: about three quarters)."""
        errors = np.array(list(self.per_client_quantile_error_deg.values()))
        return float(np.mean(errors <= 2.5))

    @property
    def fraction_within_14_deg(self) -> float:
        """Fraction of clients within 14 degrees (paper: all clients)."""
        errors = np.array(list(self.per_client_quantile_error_deg.values()))
        return float(np.mean(errors <= 14.0))

    @property
    def worst_client_error_deg(self) -> float:
        """The largest per-client quantile error."""
        return float(max(self.per_client_quantile_error_deg.values()))

    def as_table(self) -> str:
        """Text rendering of the per-client quantile errors."""
        return format_table(
            ["client", f"{int(self.confidence * 100)}th pct error (deg)"],
            sorted(self.per_client_quantile_error_deg.items()),
        )


def accuracy_campaign(num_packets: int = 10, confidence: float = 0.95,
                      client_ids: Optional[Sequence[int]] = None,
                      seed: int = 42) -> CampaignSpec:
    """The Figure 5 campaign whose per-packet bearings the claim reduces."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return figure5_campaign(num_packets=num_packets, client_ids=client_ids,
                            seed=seed)


def evaluate_accuracy_claim(num_packets: int = 10,
                            confidence: float = 0.95,
                            client_ids: Optional[Sequence[int]] = None,
                            estimator_config: Optional[EstimatorConfig] = None,
                            rng: int = 42) -> AccuracyClaim:
    """Measure the Section 2.3.1 single-packet bearing-accuracy claim.

    A reduction of :func:`run_figure5`'s per-packet bearings: each client's
    ``confidence`` quantile of its single-packet bearing errors.
    """
    from repro.campaign.engine import run_serial

    figure5 = run_serial(
        accuracy_campaign(num_packets, confidence, client_ids, seed=rng),
        estimator_config)
    per_client: Dict[int, float] = {
        row.client_id: float(np.quantile(
            [float(angular_difference(bearing, row.ground_truth_deg))
             for bearing in row.per_packet_bearings_deg], confidence))
        for row in figure5.rows
    }
    return AccuracyClaim(per_client_quantile_error_deg=per_client,
                         confidence=confidence, num_packets=num_packets)
