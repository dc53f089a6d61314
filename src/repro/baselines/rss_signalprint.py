"""RSS "signalprints" (Faria & Cheriton, ACM WiSe 2006).

The related-work section of the paper notes that "the most widely used
physical layer information is received signal strength (RSS) ... very coarse
compared to physical-layer [phase] information, so is prone to error if few
packets are available.  Furthermore, attackers with directional antennas can
subvert RSS-based systems."  To make that comparison concrete, this module
implements an RSS-based identity check in the style of signalprints: the
fingerprint of a client is the vector of received signal strengths observed
by a set of access points (or, at a single AP, its antennas); identity checks
threshold the per-entry differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.mac.address import MacAddress


@dataclass(frozen=True)
class RssSignalprint:
    """A vector of RSS values (dBm), one per observation point (AP or antenna)."""

    rss_dbm: np.ndarray

    def __post_init__(self) -> None:
        rss = np.asarray(self.rss_dbm, dtype=float).ravel()
        if rss.size < 1:
            raise ValueError("a signalprint needs at least one RSS value")
        if not np.all(np.isfinite(rss)):
            raise ValueError("RSS values must be finite")
        object.__setattr__(self, "rss_dbm", rss)

    @staticmethod
    def from_capture_power(per_antenna_power_dbm) -> "RssSignalprint":
        """Build a signalprint from per-antenna received powers."""
        return RssSignalprint(np.asarray(per_antenna_power_dbm, dtype=float))

    def max_difference_db(self, other: "RssSignalprint") -> float:
        """Largest absolute per-entry difference (dB) against another print."""
        if other.rss_dbm.size != self.rss_dbm.size:
            raise ValueError("signalprints cover a different number of observation points")
        return float(np.max(np.abs(self.rss_dbm - other.rss_dbm)))

    def mean_difference_db(self, other: "RssSignalprint") -> float:
        """Mean absolute per-entry difference (dB) against another print."""
        if other.rss_dbm.size != self.rss_dbm.size:
            raise ValueError("signalprints cover a different number of observation points")
        return float(np.mean(np.abs(self.rss_dbm - other.rss_dbm)))


class RssSpoofingDetector:
    """Identity checks based on signalprint differences.

    A packet matches the trained identity when the maximum per-entry RSS
    difference stays below ``match_threshold_db`` (Faria & Cheriton use
    5–10 dB).  This is the baseline the spoofing benchmark compares
    SecureAngle against.
    """

    def __init__(self, match_threshold_db: float = 6.0):
        if match_threshold_db <= 0:
            raise ValueError("match_threshold_db must be positive")
        self.match_threshold_db = float(match_threshold_db)
        self._prints: Dict[MacAddress, RssSignalprint] = {}

    def train(self, address: MacAddress, signalprint: RssSignalprint) -> None:
        """Store the certified signalprint for ``address``."""
        self._prints[address] = signalprint

    def lookup(self, address: MacAddress) -> Optional[RssSignalprint]:
        """Return the stored signalprint, or ``None``."""
        return self._prints.get(address)

    def matches(self, address: MacAddress, observation: RssSignalprint) -> bool:
        """True when ``observation`` is consistent with the stored identity."""
        trained = self._prints.get(address)
        if trained is None:
            return False
        return trained.max_difference_db(observation) <= self.match_threshold_db

    def difference_db(self, address: MacAddress, observation: RssSignalprint) -> float:
        """The decision statistic (max per-entry difference) for ROC sweeps."""
        trained = self._prints.get(address)
        if trained is None:
            return float("inf")
        return trained.max_difference_db(observation)

    def __len__(self) -> int:
        return len(self._prints)
