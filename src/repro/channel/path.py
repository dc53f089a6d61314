"""Propagation paths.

A path is one copy of the transmitted signal arriving at the access point: the
direct (line-of-sight or through-obstacle) path, or a single-bounce reflection
off a wall or obstacle face.  SecureAngle's signature is precisely the set of
angles these paths arrive from, so the path abstraction carries the angle of
arrival, the geometric length (which sets delay and carrier phase), and the
accumulated gain.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.constants import SPEED_OF_LIGHT
from repro.geometry.point import Point


class PathKind(enum.Enum):
    """How a propagation path reached the access point."""

    DIRECT = "direct"
    REFLECTED = "reflected"


@dataclass(frozen=True)
class PropagationPath:
    """One propagation path from a transmitter to the access point.

    Parameters
    ----------
    aoa_deg:
        Angle of arrival at the access point, degrees, global floor-plan
        convention (0 = +x, counter-clockwise).
    length_m:
        Total geometric path length in metres (sets both delay and carrier
        phase, the quantity Figure 1(a) of the paper illustrates).
    gain_db:
        Total power gain of the path in dB (path loss plus any reflection or
        penetration losses); always negative in practice.
    kind:
        Direct or reflected.
    reflector:
        Optional label of the surface the path bounced off.
    points:
        The geometric polyline of the path (transmitter, optional bounce
        point, access point), useful for plotting and debugging.
    """

    aoa_deg: float
    length_m: float
    gain_db: float
    kind: PathKind = PathKind.DIRECT
    reflector: str = ""
    points: Tuple[Point, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not math.isfinite(self.aoa_deg):
            raise ValueError(f"aoa_deg must be finite, got {self.aoa_deg!r}")
        if not (math.isfinite(self.length_m) and self.length_m > 0):
            raise ValueError(f"length_m must be positive and finite, got {self.length_m!r}")
        if not math.isfinite(self.gain_db):
            raise ValueError(f"gain_db must be finite, got {self.gain_db!r}")

    @property
    def delay_s(self) -> float:
        """Propagation delay in seconds."""
        return self.length_m / SPEED_OF_LIGHT

    @property
    def amplitude(self) -> float:
        """Linear amplitude gain of the path."""
        return 10.0 ** (self.gain_db / 20.0)

    def carrier_phase_rad(self, wavelength_m: float) -> float:
        """Carrier phase accumulated along the path, radians in [0, 2*pi).

        The phase advances by 2*pi every wavelength travelled — the principle
        of operation shown in Figure 1(a) of the paper.
        """
        if wavelength_m <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_m!r}")
        return (2.0 * math.pi * self.length_m / wavelength_m) % (2.0 * math.pi)

    @property
    def is_direct(self) -> bool:
        """True for the direct (possibly obstructed) path."""
        return self.kind is PathKind.DIRECT

    def with_gain_offset(self, offset_db: float) -> "PropagationPath":
        """Return a copy of the path with ``offset_db`` added to its gain."""
        return replace(self, gain_db=self.gain_db + offset_db)

    def __repr__(self) -> str:
        label = self.kind.value
        if self.reflector:
            label += f" via {self.reflector}"
        return (f"PropagationPath({label}, aoa={self.aoa_deg:.1f} deg, "
                f"length={self.length_m:.2f} m, gain={self.gain_db:.1f} dB)")


def direct_path(paths) -> Optional[PropagationPath]:
    """Return the direct path from a path list, or ``None`` if absent."""
    for path in paths:
        if path.is_direct:
            return path
    return None
