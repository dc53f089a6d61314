"""The AoA estimator's configuration and result types.

The estimator strings together the steps Section 3 of the paper describes:
take a capture, (optionally) locate the packet with Schmidl–Cox, form the
correlation matrix over the whole packet, condition it, pick the number of
sources, and run the chosen spectral estimator.  :class:`EstimatorConfig`
selects those steps; an :class:`AoAEstimate` bundles the pseudospectrum (the
SecureAngle signature input) with the bearing of its strongest peak (the
paper's bearing estimate).

``AoAEstimator`` is :class:`repro.aoa.batch.BatchAoAEstimator` itself: one
class serves single captures (``process``, a batch of one) and whole batches,
so the scalar and batched paths cannot diverge.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.calibration.table import CalibrationTable
from repro.aoa.source_count import SOURCE_COUNT_METHODS
from repro.aoa.spectrum import Pseudospectrum

#: Calibration for a batch: one table for every capture, or one table (or
#: ``None``) per capture.
CalibrationArg = Union[None, CalibrationTable, Sequence[Optional[CalibrationTable]]]

#: Grid-scanning estimators the pipeline can run end to end (they produce the
#: pseudospectra SecureAngle signatures are built from).
SPECTRAL_METHODS = ("music", "bartlett", "capon")

#: Search-free estimators that return bearings directly (no pseudospectrum);
#: available through :data:`repro.api.AOA_METHODS` rather than this config.
PARAMETRIC_METHODS = ("root_music", "esprit", "phase_interferometry")

#: Streaming estimators built on incremental subspace tracking.  They produce
#: MUSIC pseudospectra but are selected with the ``subspace_tracking`` flag
#: (``method`` stays "music"); :data:`repro.api.AOA_METHODS` registers them
#: under their own names for discoverability.
STREAMING_METHODS = ("subspace",)


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of the AoA estimation pipeline."""

    #: Spectral estimator: "music", "bartlett", or "capon".
    method: str = "music"
    #: Angle-grid resolution in degrees.
    resolution_deg: float = 1.0
    #: Fixed number of sources; ``None`` estimates it per capture.
    num_sources: Optional[int] = None
    #: Source-count criterion when ``num_sources`` is ``None``: "gap", "mdl", or "aic".
    source_count_method: str = "gap"
    #: Cap on the estimated number of sources.  Overestimating the signal
    #: subspace on a calibrated-but-imperfect array produces spurious
    #: near-endfire peaks, so the default stays conservative.
    max_sources: int = 3
    #: Apply forward-backward averaging to the correlation matrix.  Only valid
    #: (and only applied) for uniform linear arrays, whose manifold satisfies
    #: the conjugate-symmetry the technique relies on.
    forward_backward: bool = True
    #: Spatial-smoothing subarray size (uniform linear arrays only); ``None`` disables.
    smoothing_subarray: Optional[int] = None
    #: Diagonal loading factor applied before eigendecomposition.
    loading_factor: float = 1e-6
    #: Run Schmidl–Cox packet detection and restrict processing to the packet.
    detect_packet: bool = False
    #: Refuse to process captures whose per-chain phase offsets have not been
    #: calibrated out.  The calibration ablation sets this to False.
    require_calibrated: bool = True
    #: Replace the per-packet eigendecomposition with an incremental
    #: (PAST-style) subspace tracker on the streaming path.  MUSIC only; see
    #: :class:`repro.aoa.subspace.SubspaceTracker` for the warm-up and
    #: re-orthonormalisation policy.
    subspace_tracking: bool = False

    def __post_init__(self) -> None:
        if self.method not in SPECTRAL_METHODS:
            message = f"unknown estimator method {self.method!r}"
            if self.method in PARAMETRIC_METHODS:
                message += (f"; {self.method!r} is search-free (no pseudospectrum) — "
                            "use it via repro.api.AOA_METHODS instead")
            else:
                message += _did_you_mean(self.method, SPECTRAL_METHODS + PARAMETRIC_METHODS)
            raise ValueError(message)
        if self.source_count_method not in SOURCE_COUNT_METHODS:
            raise ValueError(
                f"unknown source-count method {self.source_count_method!r}"
                + _did_you_mean(self.source_count_method, SOURCE_COUNT_METHODS))
        if self.resolution_deg <= 0:
            raise ValueError("resolution_deg must be positive")
        if self.num_sources is not None and self.num_sources < 1:
            raise ValueError("num_sources must be positive")
        if self.max_sources < 1:
            raise ValueError("max_sources must be positive")
        if self.smoothing_subarray is not None and self.smoothing_subarray < 2:
            raise ValueError("smoothing_subarray must be at least 2")
        if self.loading_factor < 0:
            raise ValueError("loading_factor must be non-negative")
        if self.subspace_tracking:
            if self.method != "music":
                raise ValueError(
                    "subspace_tracking replaces the MUSIC eigendecomposition "
                    "and requires method='music'")
            if self.smoothing_subarray is not None:
                raise ValueError(
                    "subspace_tracking does not support spatial smoothing")


@dataclass(frozen=True)
class AoAEstimate:
    """Result of processing one capture."""

    #: The pseudospectrum (the SecureAngle signature input).
    pseudospectrum: Pseudospectrum
    #: Bearing of the strongest peak, degrees (the paper's bearing estimate).
    bearing_deg: float
    #: All significant peaks, strongest first.
    peak_bearings_deg: List[float] = field(default_factory=list)
    #: Number of sources the estimator assumed.
    num_sources: int = 1
    #: Sample index where the packet was found (if detection ran).
    packet_start: Optional[int] = None


def _did_you_mean(value: object, choices: Tuple[str, ...]) -> str:
    """``"; did you mean 'x'?"`` for the closest ``choices``, or ``""``."""
    close = difflib.get_close_matches(str(value), choices, n=2, cutoff=0.5)
    if not close:
        return ""
    return "; did you mean " + " or ".join(repr(c) for c in close) + "?"


# The engine imports the types above, so it is bound last.
from repro.aoa.batch import BatchAoAEstimator as AoAEstimator  # noqa: E402
