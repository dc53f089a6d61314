"""Spatial correlation (covariance) matrix estimation.

Section 2.1 of the paper: "The best known AoA estimation algorithms are based
on eigenstructure analysis of a correlation matrix formed by samplewise-
multiplying the raw signal from the l-th antenna with the raw signal from the
m-th antenna, then computing the mean of the result."  ``correlation_matrix``
is exactly that computation, and ``signal_noise_subspaces`` splits one matrix
for the search-free estimators (root-MUSIC, ESPRIT) and beamforming.  The
conditioning the spectral pipeline applies before its eigendecomposition
(calibration, forward–backward averaging, spatial smoothing, diagonal
loading) lives in :class:`repro.aoa.batch.BatchAoAEstimator`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import kernels
from repro.utils.validation import require_positive_int


def correlation_matrix(samples: np.ndarray) -> np.ndarray:
    """Sample spatial correlation matrix ``R = X X^H / T``.

    Parameters
    ----------
    samples:
        Complex array of shape (num_antennas, num_samples) — one packet's raw
        samples from every antenna.

    Returns
    -------
    numpy.ndarray
        Hermitian (num_antennas, num_antennas) matrix whose (l, m) entry is
        the mean of antenna l's samples times the conjugate of antenna m's.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_antennas, num_samples), got {samples.shape}")
    num_antennas, num_samples = samples.shape
    if num_antennas < 1 or num_samples < 1:
        raise ValueError("samples must contain at least one antenna and one sample")
    return samples @ samples.conj().T / num_samples


def signal_noise_subspaces(matrix: np.ndarray, num_sources: int):
    """Eigendecompose a correlation matrix into signal and noise subspaces.

    Returns ``(eigenvalues, signal_subspace, noise_subspace)`` with eigenvalues
    sorted in descending order; the signal subspace holds the ``num_sources``
    dominant eigenvectors as columns.
    """
    matrix = _check_square(matrix)
    num_antennas = matrix.shape[0]
    num_sources = require_positive_int(num_sources, "num_sources")
    if num_sources >= num_antennas:
        raise ValueError(
            f"num_sources ({num_sources}) must be smaller than the number of "
            f"antennas ({num_antennas})")
    # Routed through the kernel module so the ledger times the scalar path
    # too; kernels.eigh is literally np.linalg.eigh (bit-identical).
    eigenvalues, eigenvectors = kernels.eigh(matrix)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    signal = eigenvectors[:, :num_sources]
    noise = eigenvectors[:, num_sources:]
    return eigenvalues, signal, noise


def _check_square(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix
