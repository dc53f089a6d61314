"""Signature similarity metrics.

The spoofing-prevention application hinges on "a significant difference
between the certified signature and an attacker's signature so that they can
be discriminated from each other" (Section 2.3.2).  These metrics quantify
that difference:

* ``spectral_correlation`` / ``cosine_similarity`` — shape similarity of the
  two pseudospectra over the whole angle grid.
* ``peak_set_distance_deg`` — how far apart the two signatures' peak sets are,
  in degrees (a greedy matching of peaks).
* ``signature_similarity`` — the combined score the detector thresholds: the
  spectral correlation, discounted when the direct-path peaks disagree.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.signature import AoASignature
from repro.utils.angles import angular_difference


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two non-negative vectors, in [0, 1]."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vectors must have the same shape, got {a.shape} and {b.shape}")
    # sqrt(x . x) is exactly what np.linalg.norm computes for a real 1-D
    # vector, without its per-call dispatch; the [0, 1] clamp is on floats.
    norm = math.sqrt(a.dot(a)) * math.sqrt(b.dot(b))
    if norm == 0:
        return 0.0
    return min(max(float(np.dot(a, b) / norm), 0.0), 1.0)


def spectral_correlation(a: AoASignature, b: AoASignature) -> float:
    """Cosine similarity of two signatures' pseudospectra on a common grid.

    Pseudospectra are compared in the dB domain (relative to their own peaks,
    floored) so that secondary multipath peaks — tens of dB below the direct
    path — still contribute to the comparison instead of being swamped by the
    dominant peak.
    """
    spectrum_b = b.spectrum.on_grid(a.spectrum.angles_deg)
    a_db = a.spectrum.to_db(floor_db=-30.0)
    b_db = spectrum_b.to_db(floor_db=-30.0)
    # Shift so the floor maps to zero; correlation then emphasises peak shape.
    return cosine_similarity(a_db + 30.0, b_db + 30.0)


def peak_set_distance_deg(peaks_a: Sequence[float], peaks_b: Sequence[float]) -> float:
    """Mean angular distance (degrees) between two peak sets under greedy matching.

    Each peak of the smaller set is matched to the closest unmatched peak of
    the larger set; unmatched extra peaks do not contribute.  Returns 180 (the
    maximum possible bearing error) when either set is empty.
    """
    peaks_a = [float(p) for p in peaks_a]
    peaks_b = [float(p) for p in peaks_b]
    if not peaks_a or not peaks_b:
        return 180.0
    if len(peaks_a) > len(peaks_b):
        peaks_a, peaks_b = peaks_b, peaks_a
    remaining = list(peaks_b)
    distances = []
    for peak in peaks_a:
        best_index = int(np.argmin([angular_difference(peak, other) for other in remaining]))
        distances.append(float(angular_difference(peak, remaining[best_index])))
        remaining.pop(best_index)
    return float(np.mean(distances))


def direct_path_distance_deg(a: AoASignature, b: AoASignature) -> float:
    """Angular distance between two signatures' direct-path (strongest) peaks."""
    return float(angular_difference(a.direct_path_bearing_deg, b.direct_path_bearing_deg))


def signature_similarity(a: AoASignature, b: AoASignature,
                         direct_path_scale_deg: float = 10.0,
                         direct_error_deg: Optional[float] = None) -> float:
    """Combined similarity score in [0, 1] used by the spoofing detector.

    The spectral correlation is multiplied by a factor that decays with the
    direct-path bearing disagreement (scale ``direct_path_scale_deg``): two
    signatures whose whole-spectrum shapes happen to correlate but whose
    direct paths point in different directions are *not* the same client,
    because the direct path is the stable, hard-to-forge component
    (Section 3.1–3.2).  A caller that already holds
    ``direct_path_distance_deg(a, b)`` passes it as ``direct_error_deg``.
    """
    if direct_path_scale_deg <= 0:
        raise ValueError("direct_path_scale_deg must be positive")
    correlation = spectral_correlation(a, b)
    direct_error = (direct_path_distance_deg(a, b) if direct_error_deg is None
                    else direct_error_deg)
    direct_factor = float(np.exp(-direct_error / direct_path_scale_deg))
    return min(max(correlation * direct_factor, 0.0), 1.0)
