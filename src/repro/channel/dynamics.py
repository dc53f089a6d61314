"""Temporal dynamics of the multipath channel.

Figure 6 of the paper shows pseudospectra of the same client recorded 0, 1,
10, 100 and 1000 seconds, one hour, and one day apart: the direct-path peak is
stable, while the weaker reflection peaks wander as people and objects in the
environment move.  Section 3.2 also cites coherence-time measurements of
25 ms (walking receiver) to 125 ms (stationary receiver).

``EnvironmentDynamics`` reproduces both effects on top of a static ray-traced
path set:

* **Fast fading / packet-to-packet jitter** — every path receives a small
  random phase and amplitude perturbation per packet, scaled by how much of a
  coherence time has elapsed since the previous packet.
* **Slow environmental drift** — reflected paths drift in angle and gain with
  a magnitude that grows (logarithmically, saturating) with the elapsed time
  since the reference capture; the direct path's angle never drifts because
  the client and AP do not move, only its amplitude breathes slightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.path import PathKind, PropagationPath
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_finite_non_negative


@dataclass(frozen=True)
class DynamicsConfig:
    """Tunable parameters of the environment dynamics model.

    Defaults are chosen so that the Figure 6 reproduction shows the paper's
    qualitative behaviour: reflection peaks move by a few degrees over
    minutes and by a couple of tens of degrees over a day, while the direct
    path stays within a degree.
    """

    #: Median channel coherence time for a stationary client (seconds); the
    #: Beach et al. measurements the paper cites report ~125 ms.
    coherence_time_s: float = 0.125
    #: Maximum angular drift (degrees) of a reflected path after ~1 day.
    max_reflection_drift_deg: float = 25.0
    #: Maximum gain drift (dB) of a reflected path after ~1 day.
    max_reflection_gain_drift_db: float = 6.0
    #: Amplitude breathing of the direct path (dB) at saturation.
    max_direct_gain_drift_db: float = 1.5
    #: Angular jitter (degrees) of the direct path at saturation.  Small but
    #: non-zero: client oscillators and measurement noise move the peak by a
    #: fraction of a degree even when nothing in the room changes.
    max_direct_drift_deg: float = 0.8
    #: Elapsed time (seconds) at which the slow drift saturates; defaults to a
    #: day, the longest interval Figure 6 examines.
    saturation_time_s: float = 86_400.0
    #: Per-packet fast-fading phase jitter (radians RMS) at full decorrelation.
    fast_phase_jitter_rad: float = 0.5
    #: Per-packet fast-fading amplitude jitter (dB RMS) at full decorrelation.
    fast_gain_jitter_db: float = 1.0

    def __post_init__(self) -> None:
        for name in ("coherence_time_s", "saturation_time_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_reflection_drift_deg", "max_reflection_gain_drift_db",
                     "max_direct_gain_drift_db", "max_direct_drift_deg",
                     "fast_phase_jitter_rad", "fast_gain_jitter_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class EnvironmentDynamics:
    """Evolve a static path set over elapsed time.

    The evolution is deterministic for a given seed and elapsed time, so an
    experiment can ask for the channel "1000 seconds later" repeatedly and
    obtain the same answer — matching how a figure is regenerated.
    """

    def __init__(self, config: Optional[DynamicsConfig] = None, rng: RngLike = None):
        self.config = config if config is not None else DynamicsConfig()
        self._rng = ensure_rng(rng)
        # One base seed per instance so per-elapsed-time draws are reproducible
        # without sharing state across calls.
        self._base_seed = int(self._rng.integers(0, 2**31 - 1))

    # ------------------------------------------------------------------ public
    def paths_at(self, paths: Sequence[PropagationPath], elapsed_s: float
                 ) -> List[PropagationPath]:
        """Return the path set as it would look ``elapsed_s`` seconds later."""
        require_finite_non_negative(elapsed_s, "elapsed_s")
        paths = list(paths)
        if elapsed_s == 0:
            return paths
        severity = self._drift_severity(elapsed_s)
        rng = np.random.default_rng(self._base_seed ^ _time_key(elapsed_s))
        config = self.config
        # Per path, the standard deviations of its angle and gain offsets, in
        # draw order.  One standard_normal draw scaled as 0 + sigma * z is
        # the stream and arithmetic of one scalar normal(0, sigma) per value.
        scales = []
        for path in paths:
            if path.kind is PathKind.DIRECT:
                drift_deg, drift_db = (config.max_direct_drift_deg,
                                       config.max_direct_gain_drift_db)
            else:
                drift_deg, drift_db = (config.max_reflection_drift_deg,
                                       config.max_reflection_gain_drift_db)
            scales.append(severity * drift_deg / 2.0)
            scales.append(severity * drift_db / 2.0)
        offsets = (0.0 + np.array(scales) * rng.standard_normal(len(scales))).tolist()
        return [
            PropagationPath(aoa_deg=path.aoa_deg + offsets[2 * index],
                            length_m=path.length_m,
                            gain_db=path.gain_db + offsets[2 * index + 1],
                            kind=path.kind, reflector=path.reflector,
                            points=path.points)
            for index, path in enumerate(paths)
        ]

    def decorrelation(self, inter_packet_gap_s: float) -> float:
        """Fraction (0..1) of fast-fading decorrelation between two packets.

        Packets closer together than a coherence time see highly correlated
        channels; packets further apart see essentially independent small-scale
        fading.  Modelled as ``1 - exp(-gap / coherence_time)``.
        """
        if inter_packet_gap_s < 0:
            raise ValueError("inter_packet_gap_s must be non-negative")
        return 1.0 - math.exp(-inter_packet_gap_s / self.config.coherence_time_s)

    def fast_fading_jitter(self, num_paths: int, decorrelation: float,
                           rng: RngLike = None) -> np.ndarray:
        """Per-path complex fading factors for one packet.

        Returns a length-``num_paths`` complex array with unit-mean amplitude
        and phase jitter scaled by ``decorrelation`` (0 = identical channel,
        1 = fully independent small-scale fading).
        """
        if num_paths <= 0:
            raise ValueError("num_paths must be positive")
        if not 0.0 <= decorrelation <= 1.0:
            raise ValueError("decorrelation must be in [0, 1]")
        generator = ensure_rng(rng) if rng is not None else self._rng
        phase = generator.normal(0.0, self.config.fast_phase_jitter_rad * decorrelation,
                                 size=num_paths)
        gain_db = generator.normal(0.0, self.config.fast_gain_jitter_db * decorrelation,
                                   size=num_paths)
        return (10.0 ** (gain_db / 20.0)) * np.exp(1j * phase)

    # ---------------------------------------------------------------- internals
    def _drift_severity(self, elapsed_s: float) -> float:
        """Map elapsed time to a drift severity in [0, 1] (log-scaled, saturating)."""
        if elapsed_s <= 0:
            return 0.0
        numerator = math.log10(1.0 + elapsed_s)
        denominator = math.log10(1.0 + self.config.saturation_time_s)
        return min(numerator / denominator, 1.0)


def _time_key(elapsed_s: float) -> int:
    """Stable integer key for an elapsed time, used to seed per-time draws."""
    # Quantise to milliseconds so float noise does not change the draw.
    return hash(round(float(elapsed_s) * 1000.0)) & 0x7FFFFFFF
