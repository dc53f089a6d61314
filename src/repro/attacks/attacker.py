"""Attacker transmitter models.

The paper's threat model (Section 1): "an attacker equipped with an
omnidirectional antenna, directional antenna (as the attackers were equipped
in the TJ Maxx attacks of 2006), or antenna array, and who has successfully
penetrated the protocol-based security in use at the access point."

From the access point's perspective an attacker is just another transmitter
at some position; what the antenna choice changes is *which propagation paths
carry energy*:

* an **omnidirectional** attacker illuminates every path the ray tracer finds
  from its position — exactly like a legitimate client;
* a **directional-antenna** attacker concentrates energy in a beam, so paths
  leaving the attacker outside the beam are attenuated by the antenna's
  front-to-side ratio.  Pointing the beam at the AP boosts the direct path
  and suppresses most reflections (this is the interesting case for RSS
  baselines, which the paper notes directional attackers can subvert);
* an **antenna-array** attacker is modelled as a directional attacker with a
  narrower, higher-gain beam that it can also point at a *reflector*, trying
  to mimic a reflected-path geometry.

None of these manipulations change the geometry of the paths that do arrive —
the attacker cannot move the walls — which is precisely the paper's argument
for why AoA signatures are hard to forge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from repro.channel.path import PropagationPath
from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.utils.angles import angular_difference
from repro.utils.rng import RngLike


@dataclass
class Attacker:
    """Base attacker: a transmitter at a position with a MAC address of its own.

    Attack behaviour plugs into the capture synthesis through three seams:

    * :meth:`shape_paths` — the antenna pattern: reweight the ray-traced
      propagation paths (directional beams, tuned reflections);
    * :meth:`shape_waveform` — the transmit chain: distort the modulated
      baseband waveform (replayed recordings, carrier-frequency offset);
    * :meth:`transmit_position` — the geometry: attackers made of several
      transmitters (coordinated swarms) pick a member per packet.
    """

    position: Point
    address: MacAddress
    tx_power_dbm: float = 15.0
    name: str = "attacker"

    #: :class:`~repro.api.spec.AttackerSpec` knob fields this attack type
    #: accepts.  The spec validates declared knobs against this at
    #: construction and forwards them to the constructor in ``build``.
    spec_knobs: ClassVar[Tuple[str, ...]] = ()

    def shape_paths(self, paths: List[PropagationPath]) -> List[PropagationPath]:
        """Apply the attacker's antenna pattern to ray-traced paths.

        The base (omnidirectional) attacker transmits equally in all
        directions, so the paths are returned unchanged.
        """
        return list(paths)

    def shape_waveform(self, waveform: np.ndarray, sample_rate_hz: float,
                       elapsed_s: float, rng: RngLike = None) -> np.ndarray:
        """Apply the attacker's transmit-chain impairments to a waveform.

        Called by the simulator on the modulated baseband waveform before
        propagation, with the packet's transmit epoch (``elapsed_s``) and a
        dedicated per-packet generator.  The base attacker transmits the
        waveform untouched.
        """
        return waveform

    def transmit_position(self, packet_index: int) -> Point:
        """Where packet ``packet_index`` of an attack is transmitted from.

        Single-transmitter attackers always answer :attr:`position`;
        coordinated swarms rotate through their members on a shared schedule.
        """
        return self.position


class OmnidirectionalAttacker(Attacker):
    """An attacker with a plain omnidirectional antenna."""


@dataclass
class DirectionalAntennaAttacker(Attacker):
    """An attacker with a directional antenna aimed at ``aim_point``.

    Parameters
    ----------
    aim_point:
        Where the main beam is pointed (usually the access point).
    beamwidth_deg:
        Full width of the main beam; departure directions within half this
        angle of the aim direction get the full ``boresight_gain_db``.
    boresight_gain_db:
        Gain added to paths leaving within the main beam.
    sidelobe_suppression_db:
        Attenuation applied to paths leaving outside the main beam.
    """

    aim_point: Optional[Point] = None
    beamwidth_deg: float = 30.0
    boresight_gain_db: float = 9.0
    sidelobe_suppression_db: float = 15.0
    name: str = "directional-attacker"

    spec_knobs: ClassVar[Tuple[str, ...]] = (
        "beamwidth_deg", "boresight_gain_db", "sidelobe_suppression_db")

    def __post_init__(self) -> None:
        if self.beamwidth_deg <= 0 or self.beamwidth_deg > 360:
            raise ValueError("beamwidth_deg must be in (0, 360]")
        if self.sidelobe_suppression_db < 0:
            raise ValueError("sidelobe_suppression_db must be non-negative")

    def shape_paths(self, paths: List[PropagationPath]) -> List[PropagationPath]:
        if self.aim_point is None:
            return list(paths)
        aim_bearing = self.position.bearing_to(self.aim_point)
        shaped: List[PropagationPath] = []
        for path in paths:
            departure_bearing = self._departure_bearing(path)
            offset = float(angular_difference(departure_bearing, aim_bearing))
            if offset <= self.beamwidth_deg / 2.0:
                shaped.append(path.with_gain_offset(self.boresight_gain_db))
            else:
                shaped.append(path.with_gain_offset(-self.sidelobe_suppression_db))
        return shaped

    def _departure_bearing(self, path: PropagationPath) -> float:
        """Bearing at which the path leaves the attacker."""
        if len(path.points) >= 2:
            return path.points[0].bearing_to(path.points[1])
        # Without the geometric polyline, fall back to the reverse of the AoA,
        # which is exact for the direct path.
        return (path.aoa_deg + 180.0) % 360.0


@dataclass
class AntennaArrayAttacker(DirectionalAntennaAttacker):
    """An attacker with a steerable antenna array: a narrow, high-gain beam."""

    beamwidth_deg: float = 12.0
    boresight_gain_db: float = 15.0
    sidelobe_suppression_db: float = 25.0
    name: str = "array-attacker"

    def aim_at_reflector(self, reflector_point: Point) -> None:
        """Steer the beam towards a reflecting surface instead of the AP.

        This is the strongest forgery attempt the threat model allows: the
        attacker tries to make a *reflected* path dominate so the AP sees an
        arrival angle different from the attacker's true bearing.  The arrival
        angle is still dictated by the reflector's position, not chosen freely
        by the attacker.
        """
        self.aim_point = reflector_point
