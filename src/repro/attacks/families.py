"""The extended attack families of the scenario diversity engine.

The paper evaluates the threat model on three antenna choices
(:mod:`repro.attacks.attacker`); these families cover the evasion axes the
ROADMAP's scenario-diversity item calls out, each plugging into one of the
:class:`~repro.attacks.attacker.Attacker` seams:

* :class:`ReplayAttacker` — records a victim's real over-the-air waveform and
  retransmits it from a new position (``shape_waveform``: the replayed copy
  carries finite-SNR recording noise and playback amplifier gain).  The
  waveform is genuinely the victim's; what betrays the attack is geometry —
  the paths from the playback position, which the attacker cannot forge.
* :class:`ReflectorAttacker` — multipath-mirror spoofing: a tuned specular
  bounce is boosted and everything else (the direct path included) is
  suppressed, so the attacker's *dominant* arrival mimics a chosen bearing
  (``shape_paths``).  This is the strongest geometry forgery the channel
  allows: the mimicked bearing must still correspond to a real reflector.
* :class:`CoordinatedSwarmAttacker` — K transmitters spoofing one victim on a
  shared round-robin schedule (``transmit_position``), smearing the spatial
  signature across the member positions.
* :class:`CfoDriftAttacker` — a transmitter whose carrier-frequency offset
  walks over the packet stream (``shape_waveform``), smearing the fine
  per-path phase structure signatures are built from (cf. the ESPARGOS
  CFO-viewer demo, which shows exactly this drift on real hardware).

All four are registered in :data:`repro.api.components.ATTACK_TYPES` and are
constructible from :class:`~repro.api.spec.AttackerSpec` via their declared
:attr:`~repro.attacks.attacker.Attacker.spec_knobs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from repro.attacks.attacker import Attacker
from repro.channel.path import PropagationPath
from repro.geometry.point import Point
from repro.utils.angles import angular_difference
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "CfoDriftAttacker",
    "CoordinatedSwarmAttacker",
    "ReflectorAttacker",
    "ReplayAttacker",
]


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class ReplayAttacker(Attacker):
    """Replays a recording of the victim's real waveform from a new position.

    Parameters
    ----------
    recording_snr_db:
        SNR of the captured recording; the replayed waveform carries complex
        Gaussian recording noise at this level (drawn from the per-packet
        shaping substream), modelling the attacker's finite-quality receiver.
    playback_gain_db:
        Amplifier gain applied on playback (attackers typically overdrive the
        replay to dominate the victim's own transmissions).
    """

    recording_snr_db: float = 30.0
    playback_gain_db: float = 0.0
    name: str = "replay-attacker"

    spec_knobs: ClassVar[Tuple[str, ...]] = (
        "recording_snr_db", "playback_gain_db")

    def __post_init__(self) -> None:
        _require_finite(self.recording_snr_db, "recording_snr_db")
        _require_finite(self.playback_gain_db, "playback_gain_db")

    def shape_waveform(self, waveform: np.ndarray, sample_rate_hz: float,
                       elapsed_s: float, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        signal_power = float(np.mean(np.abs(waveform) ** 2))
        noise_power = signal_power * 10.0 ** (-self.recording_snr_db / 10.0)
        scale = math.sqrt(noise_power / 2.0)
        noise = scale * (generator.standard_normal(waveform.size)
                         + 1j * generator.standard_normal(waveform.size))
        gain = 10.0 ** (self.playback_gain_db / 20.0)
        return ((waveform + noise) * gain).astype(waveform.dtype, copy=False)


@dataclass
class ReflectorAttacker(Attacker):
    """Multipath-mirror spoofing via a tuned specular reflection.

    The attacker boosts the single reflected path arriving closest to
    ``mirror_bearing_deg`` (the bearing it wants the access point to see —
    usually the victim's) and suppresses every other path, the direct one
    included.  With ``mirror_bearing_deg`` unset the strongest reflection is
    boosted instead, the best mimicry available without knowing the victim's
    bearing.  A position with no reflected paths leaves the attacker with its
    bare geometry: the paths pass through unshaped.

    Parameters
    ----------
    mirror_bearing_deg:
        Arrival bearing (degrees, global convention) the boosted reflection
        should be closest to; ``None`` picks the strongest reflection.
    mirror_gain_db:
        Gain added to the chosen mirror path.
    leak_suppression_db:
        Attenuation applied to every other path (how well the attacker's
        absorber rig mutes its direct leakage).
    """

    mirror_bearing_deg: Optional[float] = None
    mirror_gain_db: float = 12.0
    leak_suppression_db: float = 20.0
    name: str = "reflector-attacker"

    spec_knobs: ClassVar[Tuple[str, ...]] = (
        "mirror_bearing_deg", "mirror_gain_db", "leak_suppression_db")

    def __post_init__(self) -> None:
        if self.mirror_bearing_deg is not None:
            _require_finite(self.mirror_bearing_deg, "mirror_bearing_deg")
        _require_finite(self.mirror_gain_db, "mirror_gain_db")
        if not (math.isfinite(self.leak_suppression_db)
                and self.leak_suppression_db >= 0):
            raise ValueError("leak_suppression_db must be non-negative")

    def shape_paths(self, paths: List[PropagationPath]) -> List[PropagationPath]:
        reflected = [path for path in paths if not path.is_direct]
        if not reflected:
            return list(paths)
        if self.mirror_bearing_deg is None:
            mirror = max(reflected, key=lambda path: path.gain_db)
        else:
            mirror = min(reflected, key=lambda path: float(
                angular_difference(path.aoa_deg, self.mirror_bearing_deg)))
        return [
            path.with_gain_offset(self.mirror_gain_db) if path is mirror
            else path.with_gain_offset(-self.leak_suppression_db)
            for path in paths
        ]


@dataclass
class CoordinatedSwarmAttacker(Attacker):
    """K coordinated transmitters spoofing one victim on a shared schedule.

    :attr:`position` anchors the swarm; each member sits at ``position +
    member_offsets[k]`` and the members take turns transmitting round-robin
    (packet ``i`` comes from member ``i % K``).  One spoofed stream therefore
    arrives from K different geometries, smearing the spatial signature the
    detector compares against.

    Parameters
    ----------
    member_offsets:
        (dx, dy) offsets of the members from :attr:`position`, in metres.
        ``(0, 0)`` keeps a member at the anchor itself.
    """

    member_offsets: Tuple[Tuple[float, float], ...] = (
        (0.0, 0.0), (2.0, 0.0), (0.0, 2.0))
    name: str = "swarm-attacker"

    spec_knobs: ClassVar[Tuple[str, ...]] = ("member_offsets",)

    def __post_init__(self) -> None:
        offsets = tuple(
            tuple(float(coordinate) for coordinate in offset)
            for offset in self.member_offsets)
        if not offsets:
            raise ValueError("a swarm needs at least one member offset")
        for offset in offsets:
            if len(offset) != 2:
                raise ValueError(
                    f"member offsets must be (dx, dy) pairs, got {offset!r}")
            if not all(math.isfinite(coordinate) for coordinate in offset):
                raise ValueError(
                    f"member offsets must be finite, got {offset!r}")
        self.member_offsets = offsets

    def members(self) -> List[Point]:
        """The members' absolute positions, in schedule order."""
        return [Point(self.position.x + dx, self.position.y + dy)
                for dx, dy in self.member_offsets]

    def transmit_position(self, packet_index: int) -> Point:
        dx, dy = self.member_offsets[packet_index % len(self.member_offsets)]
        return Point(self.position.x + dx, self.position.y + dy)


@dataclass
class CfoDriftAttacker(Attacker):
    """A transmitter whose carrier-frequency offset drifts over the stream.

    Each packet is mixed with a carrier offset evaluated at its transmit
    epoch, ``cfo_start_hz + cfo_drift_hz_per_s * elapsed_s`` (packets are
    microseconds long, so the intra-packet drift is negligible and the offset
    is held constant within one packet).  The walking offset perturbs the
    per-path phase relationships packet by packet, smearing the signature the
    detector tries to track — the evasion axis the ESPARGOS CFO-viewer demo
    shows on real hardware.

    Parameters
    ----------
    cfo_start_hz:
        Carrier offset at epoch zero.
    cfo_drift_hz_per_s:
        Drift rate of the offset over elapsed time.
    """

    cfo_start_hz: float = 200.0
    cfo_drift_hz_per_s: float = 50.0
    name: str = "cfo-attacker"

    spec_knobs: ClassVar[Tuple[str, ...]] = (
        "cfo_start_hz", "cfo_drift_hz_per_s")

    def __post_init__(self) -> None:
        _require_finite(self.cfo_start_hz, "cfo_start_hz")
        _require_finite(self.cfo_drift_hz_per_s, "cfo_drift_hz_per_s")

    def cfo_at(self, elapsed_s: float) -> float:
        """The carrier offset (Hz) applied to a packet at ``elapsed_s``."""
        return self.cfo_start_hz + self.cfo_drift_hz_per_s * elapsed_s

    def shape_waveform(self, waveform: np.ndarray, sample_rate_hz: float,
                       elapsed_s: float, rng: RngLike = None) -> np.ndarray:
        # Deterministic: the shaping substream goes unused — drift is a
        # function of time.
        cfo_hz = self.cfo_at(elapsed_s)
        sample_times = np.arange(waveform.size) / float(sample_rate_hz)
        ramp = np.exp(2j * np.pi * cfo_hz * sample_times)
        return (waveform * ramp).astype(waveform.dtype, copy=False)
