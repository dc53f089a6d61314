"""Pseudospectra.

The output of the AoA estimators is a *pseudospectrum*: a continuous plot of
likelihood versus angle (Section 2.1).  SecureAngle uses the pseudospectrum
directly as the client signature, so the container offers both estimation
conveniences (peak extraction, the bearing of the maximum) and the
normalisation / resampling operations the signature layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.aoa.peaks import find_peaks
from repro.utils.validation import require_positive

#: Default peak-search parameters shared by the scalar
#: :meth:`Pseudospectrum.peak_bearings` and the batched engine / signature
#: builder, so tuning them cannot silently diverge the two paths.
PEAK_MIN_RELATIVE_HEIGHT = 0.05
PEAK_MIN_SEPARATION_DEG = 5.0


def grid_peak_params(angles_deg: np.ndarray,
                     min_separation_deg: float = PEAK_MIN_SEPARATION_DEG):
    """Wrap flag and minimum index separation for a uniform angle grid.

    Mirrors :attr:`Pseudospectrum.wraps_around` and
    :meth:`Pseudospectrum._separation_samples` for callers (the batched
    engine) that search peaks on raw value stacks before building spectra.
    """
    require_positive(min_separation_deg, "min_separation_deg")
    step = float(angles_deg[1] - angles_deg[0])
    wrap = (angles_deg[-1] - angles_deg[0]) + step >= 360.0 - 1e-9
    return wrap, max(int(round(min_separation_deg / step)), 1)


@dataclass(frozen=True)
class Pseudospectrum:
    """A sampled likelihood-versus-angle curve.

    Parameters
    ----------
    angles_deg:
        Monotonically increasing evaluation grid (degrees).
    values:
        Non-negative likelihood values on the grid (linear scale, not dB).
    metadata:
        Free-form annotations (estimator name, number of sources, etc.).
    """

    angles_deg: np.ndarray
    values: np.ndarray
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: The full peak search of ``values`` with the default parameters
    #: (:data:`PEAK_MIN_RELATIVE_HEIGHT`, :func:`grid_peak_params`), strongest
    #: first, when the builder already ran it (the AoA engine does), so the
    #: signature layer need not search again; ``None`` when not searched.
    #: Derived spectra start without it: dividing by the peak in
    #: :meth:`normalized` can round two unequal values to equal.
    peak_indices: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_deg, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if angles.size != values.size:
            raise ValueError("angles and values must have the same length")
        if angles.size < 2:
            raise ValueError("a pseudospectrum needs at least two grid points")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("the angle grid must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("pseudospectrum values must be finite and non-negative")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "values", values)

    # ----------------------------------------------------------------- queries
    @property
    def wraps_around(self) -> bool:
        """True when the grid spans a full circle (circular-array convention)."""
        span = self.angles_deg[-1] - self.angles_deg[0]
        step = self.angles_deg[1] - self.angles_deg[0]
        return span + step >= 360.0 - 1e-9

    def peak_bearing(self) -> float:
        """Angle (degrees) of the global maximum — the paper's bearing estimate."""
        return float(self.angles_deg[int(np.argmax(self.values))])

    def peak_bearings(self, max_peaks: Optional[int] = None,
                      min_relative_height: float = PEAK_MIN_RELATIVE_HEIGHT,
                      min_separation_deg: float = PEAK_MIN_SEPARATION_DEG) -> List[float]:
        """Angles of local maxima, strongest first."""
        indices = find_peaks(self.values, wrap=self.wraps_around,
                             min_relative_height=min_relative_height,
                             min_separation=self._separation_samples(min_separation_deg))
        bearings = [float(self.angles_deg[i]) for i in indices]
        if max_peaks is not None:
            bearings = bearings[:max_peaks]
        return bearings

    def value_at(self, angle_deg: float) -> float:
        """Linear interpolation of the pseudospectrum at an arbitrary angle."""
        if self.wraps_around:
            angle_deg = (angle_deg - self.angles_deg[0]) % 360.0 + self.angles_deg[0]
        return float(np.interp(angle_deg, self.angles_deg, self.values))

    def to_db(self, floor_db: float = -60.0) -> np.ndarray:
        """Values in dB relative to the maximum, floored at ``floor_db``.

        This is the normalisation the paper's Figures 6 and 7 plot (peak at
        0 dB).
        """
        peak = float(self.values.max())
        if peak <= 0:
            return np.full_like(self.values, floor_db)
        db = 10.0 * np.log10(np.maximum(self.values / peak, 10.0 ** (floor_db / 10.0)))
        return db

    # ------------------------------------------------------------- transforms
    def normalized(self) -> "Pseudospectrum":
        """Return a copy scaled so the maximum value is 1."""
        peak = float(self.values.max())
        if peak <= 0:
            raise ValueError("cannot normalise an all-zero pseudospectrum")
        # Dividing finite non-negative values by a positive peak keeps them
        # valid, so the copy skips re-validation.
        return Pseudospectrum.from_validated(self.angles_deg.copy(), self.values / peak,
                                             dict(self.metadata))

    def resampled(self, angles_deg: np.ndarray) -> "Pseudospectrum":
        """Return a copy interpolated onto a different angle grid."""
        angles_deg = np.asarray(angles_deg, dtype=float).ravel()
        query = angles_deg
        if self.wraps_around:
            query = (angles_deg - self.angles_deg[0]) % 360.0 + self.angles_deg[0]
        values = np.interp(query, self.angles_deg, self.values)
        return Pseudospectrum(angles_deg.copy(), values, dict(self.metadata))

    def on_grid(self, angles_deg: np.ndarray) -> "Pseudospectrum":
        """This spectrum on ``angles_deg``: itself when that is already its
        grid, else :meth:`resampled`.

        ``np.interp`` at its own knots returns the values unchanged, so
        skipping the resample is exact.  A wrapping grid that does not start
        at 0 shifts its query through ``% 360`` in floating point, so it still
        interpolates.
        """
        own = self.angles_deg
        same_grid = angles_deg is own or np.array_equal(angles_deg, own)
        if same_grid and (own[0] == 0.0 or not self.wraps_around):
            return self
        return self.resampled(angles_deg)

    def with_metadata(self, **entries: Any) -> "Pseudospectrum":
        """Return a copy with extra metadata merged in."""
        merged = dict(self.metadata)
        merged.update(entries)
        return Pseudospectrum(self.angles_deg.copy(), self.values.copy(), merged)

    @classmethod
    def from_validated(cls, angles_deg: np.ndarray, values: np.ndarray,
                       metadata: Dict[str, Any], *,
                       peak_indices: Optional[Tuple[int, ...]] = None,
                       ) -> "Pseudospectrum":
        """Construct without re-running the ``__post_init__`` validation.

        For the batched estimation engine, which evaluates many spectra on the
        same already-validated (cached) angle grid and produces values that are
        finite and non-negative by construction, and for spectra derived from
        already-validated ones (:meth:`normalized`, the signature blend).  The
        caller guarantees the invariants ``__post_init__`` normally checks:
        1-D float arrays of equal length >= 2, strictly increasing angles,
        finite non-negative values.  ``peak_indices`` is the builder's own
        default-parameter peak search of ``values``, if it ran one.
        """
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "angles_deg", angles_deg)
        object.__setattr__(spectrum, "values", values)
        object.__setattr__(spectrum, "metadata", metadata)
        object.__setattr__(spectrum, "peak_indices", peak_indices)
        return spectrum

    # -------------------------------------------------------------- internals
    def _separation_samples(self, separation_deg: float) -> int:
        require_positive(separation_deg, "min_separation_deg")
        step = float(self.angles_deg[1] - self.angles_deg[0])
        return max(int(round(separation_deg / step)), 1)

    def __len__(self) -> int:
        return int(self.angles_deg.size)

    def __repr__(self) -> str:
        return (f"Pseudospectrum({self.angles_deg[0]:.0f}..{self.angles_deg[-1]:.0f} deg, "
                f"{len(self)} points, peak at {self.peak_bearing():.1f} deg)")
