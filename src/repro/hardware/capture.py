"""Sample captures.

A :class:`Capture` is the unit of data flowing through the SecureAngle
pipeline: a buffer of complex baseband samples, one row per antenna, plus the
metadata needed to interpret it (sampling rate, carrier frequency, whether the
per-chain phase offsets have been calibrated out, and arbitrary annotations
such as the transmitting client's MAC address or ground-truth position).

The prototype buffers 0.4 ms of 20 MHz samples per capture and ships them to
Matlab over Ethernet; our Capture is that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.constants import DEFAULT_CARRIER_FREQUENCY_HZ, DEFAULT_SAMPLE_RATE_HZ


@dataclass(frozen=True)
class Capture:
    """A buffered multi-antenna sample capture.

    Parameters
    ----------
    samples:
        Complex array of shape (num_antennas, num_samples).
    sample_rate_hz:
        Sampling rate of the capture.
    carrier_frequency_hz:
        RF carrier the capture was downconverted from.
    timestamp_s:
        Capture time on the access point's clock (seconds).
    calibrated:
        True once per-chain phase offsets have been removed.
    metadata:
        Free-form annotations (source MAC, ground-truth bearing, etc.).
    """

    samples: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ
    timestamp_s: float = 0.0
    calibrated: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2:
            raise ValueError(
                f"samples must be (num_antennas, num_samples), got shape {samples.shape}")
        if samples.shape[0] < 1 or samples.shape[1] < 1:
            raise ValueError("capture must contain at least one antenna and one sample")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier_frequency_hz must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def num_antennas(self) -> int:
        """Number of antenna rows in the capture."""
        return int(self.samples.shape[0])

    @property
    def num_samples(self) -> int:
        """Number of time samples per antenna."""
        return int(self.samples.shape[1])

    @property
    def duration_s(self) -> float:
        """Capture duration in seconds."""
        return self.num_samples / self.sample_rate_hz

    def power_dbm(self) -> float:
        """Mean per-antenna power of the capture, in dBm (samples are in volts

        across a 1-ohm reference, i.e. sample power is watts)."""
        mean_power_w = float(np.mean(np.abs(self.samples) ** 2))
        if mean_power_w <= 0:
            return float("-inf")
        return 10.0 * np.log10(mean_power_w * 1e3)

    def with_samples(self, samples: np.ndarray, calibrated: Optional[bool] = None) -> "Capture":
        """Return a copy of the capture with different samples."""
        return replace(self, samples=samples,
                       calibrated=self.calibrated if calibrated is None else calibrated)

    def with_metadata(self, **entries: Any) -> "Capture":
        """Return a copy with extra metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(entries)
        return replace(self, metadata=merged)

    def slice_time(self, start: int, stop: int) -> "Capture":
        """Return a copy containing samples ``start:stop`` (all antennas)."""
        if not 0 <= start < stop <= self.num_samples:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for a capture of {self.num_samples} samples")
        return self.with_samples(self.samples[:, start:stop])

    def select_antennas(self, indices) -> "Capture":
        """Return a copy containing only the given antenna rows."""
        indices = list(indices)
        if len(indices) < 1:
            raise ValueError("at least one antenna index is required")
        for index in indices:
            if not 0 <= index < self.num_antennas:
                raise IndexError(f"antenna index {index} out of range")
        return self.with_samples(self.samples[indices])

    def __repr__(self) -> str:
        state = "calibrated" if self.calibrated else "raw"
        return (f"Capture({self.num_antennas} antennas x {self.num_samples} samples, "
                f"{state}, t={self.timestamp_s:.3f} s)")
