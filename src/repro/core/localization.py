"""Multi-AP localisation from direct-path bearings.

"In an environment where more than two access points are computing this
bearing information, the intersection point of the direct path AoA is
identified as the location of client" (Section 2.3.1).  With exactly two APs
the two bearing lines intersect at a point; with more, the bearing lines
generally do not meet exactly and the least-squares point closest to all of
them is used.  The residual of that fit doubles as a consistency check: false
direct-path peaks (strong reflections mistaken for the direct path) from
different APs "may not intersect with each other" (Section 3.1), showing up as
a large residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point


@dataclass(frozen=True)
class BearingObservation:
    """One access point's direct-path bearing towards a client."""

    ap_position: Point
    bearing_deg: float
    #: Optional 1-sigma bearing uncertainty (degrees) used to weight the fit.
    sigma_deg: float = 3.0

    def __post_init__(self) -> None:
        if self.sigma_deg <= 0:
            raise ValueError("sigma_deg must be positive")

    @property
    def direction(self) -> Tuple[float, float]:
        """Unit direction vector of the bearing line."""
        theta = math.radians(self.bearing_deg)
        return (math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class LocationEstimate:
    """The triangulated client position."""

    position: Point
    #: RMS perpendicular distance (metres) of the position from the bearing lines.
    residual_m: float
    #: Number of bearing observations used.
    num_bearings: int

    @property
    def consistent(self) -> bool:
        """True when the bearing lines (nearly) agree on a single point."""
        return self.residual_m < 1.5


def triangulate_bearings(observations: Sequence[BearingObservation]) -> LocationEstimate:
    """Least-squares intersection of two or more bearing lines.

    Each observation constrains the client to lie on a ray from the AP along
    the measured bearing.  Writing the perpendicular distance from a candidate
    point to each bearing line gives a linear least-squares problem; the
    weights are the inverse bearing variances.

    Raises
    ------
    ValueError
        If fewer than two observations are supplied or the bearing lines are
        (nearly) parallel so no unique intersection exists.
    """
    observations = list(observations)
    if len(observations) < 2:
        raise ValueError("triangulation requires at least two bearing observations")

    rows: List[List[float]] = []
    rhs: List[float] = []
    for obs in observations:
        dx, dy = obs.direction
        # The normal to the bearing direction; the line is n . (p - ap) = 0.
        nx, ny = -dy, dx
        weight = 1.0 / obs.sigma_deg
        rows.append([nx * weight, ny * weight])
        rhs.append((nx * obs.ap_position.x + ny * obs.ap_position.y) * weight)

    aw = np.asarray(rows, dtype=float)
    bw = np.asarray(rhs, dtype=float)
    try:
        solution, residuals, rank, _ = np.linalg.lstsq(aw, bw, rcond=None)
    except np.linalg.LinAlgError as error:  # pragma: no cover - defensive
        raise ValueError(f"triangulation failed: {error}") from error
    if rank < 2:
        raise ValueError("bearing lines are parallel; cannot triangulate")
    position = Point(float(solution[0]), float(solution[1]))

    # Residual: RMS perpendicular distance from the solution to each line.
    distances = []
    for obs in observations:
        dx, dy = obs.direction
        nx, ny = -dy, dx
        distance = abs(nx * (position.x - obs.ap_position.x)
                       + ny * (position.y - obs.ap_position.y))
        distances.append(distance)
    residual = float(np.sqrt(np.mean(np.square(distances))))
    return LocationEstimate(position=position, residual_m=residual,
                            num_bearings=len(observations))
