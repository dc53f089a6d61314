"""Angle-of-arrival estimation: correlation matrices, MUSIC, and baselines.

:class:`BatchAoAEstimator` (also exported as :class:`AoAEstimator`) is the one
spectral estimator: it conditions correlation matrices, picks the model order,
evaluates MUSIC (or the Bartlett and Capon baselines) and extracts peaks, for
one capture or a whole batch.  :class:`SubspaceTracker` reuses it for the
streaming path.  Root-MUSIC, ESPRIT and the two-antenna phase method are the
search-free alternatives.
"""

from repro.aoa.covariance import correlation_matrix
from repro.aoa.spectrum import Pseudospectrum
from repro.aoa.peaks import find_peaks
from repro.aoa.source_count import estimate_num_sources
from repro.aoa.root_music import root_music_bearings
from repro.aoa.esprit import esprit_bearings
from repro.aoa.phase_interferometry import two_antenna_bearing
from repro.aoa.estimator import AoAEstimator, AoAEstimate, EstimatorConfig
from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.subspace import SubspaceTracker
from repro.aoa.peaks import find_peaks_batch

__all__ = [
    "correlation_matrix",
    "Pseudospectrum",
    "find_peaks",
    "estimate_num_sources",
    "root_music_bearings",
    "esprit_bearings",
    "two_antenna_bearing",
    "find_peaks_batch",
    "AoAEstimator",
    "AoAEstimate",
    "EstimatorConfig",
    "BatchAoAEstimator",
    "SubspaceTracker",
]
