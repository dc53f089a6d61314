"""AoA signatures.

"We use the pseudospectrum as our client signature" (Section 2.1).  The
signature is therefore a normalised pseudospectrum sampled on a canonical
angle grid, plus the set of significant peaks (direct path and multipath
reflections).  The direct-path peak is the most stable part of the signature
(Section 3.2), so it is kept separately accessible for the virtual-fence and
localisation applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.aoa.peaks import find_peaks_batch
from repro.aoa.spectrum import (
    PEAK_MIN_RELATIVE_HEIGHT,
    Pseudospectrum,
    grid_peak_params,
)


@dataclass(frozen=True)
class AoASignature:
    """A client's angle-of-arrival signature.

    Parameters
    ----------
    spectrum:
        The (normalised) pseudospectrum on the array's angle grid.
    peaks_deg:
        Significant peak bearings, strongest first.  The first entry is
        normally the direct path.
    captured_at_s:
        Timestamp of the capture that produced the signature.
    num_packets:
        Number of packets averaged into the signature (signatures built from
        more packets are smoother and more trustworthy).
    """

    spectrum: Pseudospectrum
    peaks_deg: List[float] = field(default_factory=list)
    captured_at_s: float = 0.0
    num_packets: int = 1

    def __post_init__(self) -> None:
        if self.num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        peaks = [float(p) for p in self.peaks_deg]
        object.__setattr__(self, "peaks_deg", peaks)
        object.__setattr__(self, "spectrum", self.spectrum.normalized())

    @staticmethod
    def from_pseudospectrum(spectrum: Pseudospectrum, captured_at_s: float = 0.0,
                            max_peaks: int = 4, num_packets: int = 1) -> "AoASignature":
        """Build a signature from a pseudospectrum, extracting its peaks."""
        peaks = spectrum.peak_bearings(max_peaks=max_peaks)
        if not peaks:
            peaks = [spectrum.peak_bearing()]
        return AoASignature(spectrum=spectrum, peaks_deg=peaks,
                            captured_at_s=captured_at_s, num_packets=num_packets)

    @property
    def direct_path_bearing_deg(self) -> float:
        """Bearing of the strongest peak — the direct path in most cases."""
        if self.peaks_deg:
            return self.peaks_deg[0]
        return self.spectrum.peak_bearing()

    @property
    def multipath_bearings_deg(self) -> List[float]:
        """Bearings of the secondary (reflection) peaks."""
        return list(self.peaks_deg[1:])

    @property
    def angles_deg(self) -> np.ndarray:
        """The signature's angle grid."""
        return self.spectrum.angles_deg

    @property
    def values(self) -> np.ndarray:
        """The signature's normalised pseudospectrum values."""
        return self.spectrum.values

    def merged_with(self, other: "AoASignature", weight: float = 0.5) -> "AoASignature":
        """Blend two signatures on the same grid (used by the tracker).

        ``weight`` is the weight of ``other``; 0 returns (a copy of) this
        signature, 1 returns ``other`` resampled onto this signature's grid.
        """
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        other_values = other.spectrum.on_grid(self.spectrum.angles_deg).values
        blended_values = (1.0 - weight) * self.spectrum.values + weight * other_values
        # A convex blend of two valid spectra on a valid grid is valid.
        blended = Pseudospectrum.from_validated(self.spectrum.angles_deg.copy(), blended_values,
                                                dict(self.spectrum.metadata))
        return AoASignature.from_pseudospectrum(
            blended,
            captured_at_s=max(self.captured_at_s, other.captured_at_s),
            num_packets=self.num_packets + other.num_packets,
        )

    def __repr__(self) -> str:
        peaks = ", ".join(f"{p:.1f}" for p in self.peaks_deg)
        return (f"AoASignature(peaks=[{peaks}] deg, packets={self.num_packets}, "
                f"t={self.captured_at_s:.1f} s)")


def certified_signature(observations: Sequence[AoASignature]) -> AoASignature:
    """Fold per-packet observations, in order, into one certified signature;
    each enters with weight ``1 / (packets already folded + 1)``."""
    if not observations:
        raise ValueError("training requires at least one capture")
    signature = observations[0]
    for observation in observations[1:]:
        signature = signature.merged_with(
            observation, weight=1.0 / (signature.num_packets + 1))
    return signature


def signatures_from_pseudospectra(spectra: Sequence[Pseudospectrum],
                                  captured_at_s: Optional[Sequence[float]] = None,
                                  max_peaks: int = 4,
                                  num_packets: int = 1) -> List[AoASignature]:
    """Batched signature construction from a batch of pseudospectra.

    Equivalent to calling :meth:`AoASignature.from_pseudospectrum` per
    spectrum.  A spectrum from the batched estimation engine carries the
    engine's peak search (:attr:`Pseudospectrum.peak_indices`), which is
    reused; the others are searched here, vectorised over the whole (B, A)
    value stack when they share one angle grid.
    """
    spectra = list(spectra)
    if captured_at_s is None:
        captured_at_s = [0.0] * len(spectra)
    timestamps = [float(t) for t in captured_at_s]
    if len(timestamps) != len(spectra):
        raise ValueError("captured_at_s must match the number of spectra")
    peak_indices = [spectrum.peak_indices for spectrum in spectra]
    unsearched = [index for index, found in enumerate(peak_indices) if found is None]
    if unsearched:
        grid = spectra[unsearched[0]].angles_deg
        shared_grid = all(spectra[index].angles_deg is grid
                          or np.array_equal(spectra[index].angles_deg, grid)
                          for index in unsearched[1:])
        groups = [unsearched] if shared_grid else [[index] for index in unsearched]
        for group in groups:
            wrap, min_separation = grid_peak_params(spectra[group[0]].angles_deg)
            values = np.stack([spectra[index].values for index in group])
            found = find_peaks_batch(values, wrap=wrap,
                                     min_relative_height=PEAK_MIN_RELATIVE_HEIGHT,
                                     min_separation=min_separation)
            for index, indices in zip(group, found):
                peak_indices[index] = indices
    signatures: List[AoASignature] = []
    for spectrum, indices, timestamp in zip(spectra, peak_indices, timestamps):
        peaks = [float(spectrum.angles_deg[i]) for i in indices[:max_peaks]]
        if not peaks:
            peaks = [spectrum.peak_bearing()]
        signatures.append(AoASignature(spectrum=spectrum, peaks_deg=peaks,
                                       captured_at_s=timestamp, num_packets=num_packets))
    return signatures
