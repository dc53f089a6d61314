"""Spatial correlation (covariance) matrix estimation.

Section 2.1 of the paper: "The best known AoA estimation algorithms are based
on eigenstructure analysis of a correlation matrix formed by samplewise-
multiplying the raw signal from the l-th antenna with the raw signal from the
m-th antenna, then computing the mean of the result."  ``correlation_matrix``
is exactly that computation; the other helpers are the standard conditioning
steps (forward–backward averaging, spatial smoothing for coherent multipath on
linear arrays, diagonal loading) used before eigendecomposition.
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


def forward_backward_average(matrix: np.ndarray) -> np.ndarray:
    """Forward–backward averaging of a correlation matrix.

    Averages ``R`` with its rotated conjugate ``J R* J`` (J the exchange
    matrix).  For linear arrays this doubles the effective number of looks and
    helps decorrelate a pair of coherent paths.
    """
    matrix = _check_square(matrix)
    n = matrix.shape[0]
    exchange = np.fliplr(np.eye(n))
    return 0.5 * (matrix + exchange @ matrix.conj() @ exchange)


def spatial_smoothing(samples: np.ndarray, subarray_size: int) -> np.ndarray:
    """Forward spatial smoothing for uniform linear arrays.

    Splits the array into overlapping subarrays of ``subarray_size`` elements
    and averages their correlation matrices.  This restores the rank of the
    signal subspace when paths are coherent, at the cost of reducing the
    effective aperture to ``subarray_size`` elements.  Only meaningful for
    uniform linear arrays (the shift invariance it relies on does not hold for
    circular geometries).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_antennas, num_samples), got {samples.shape}")
    num_antennas = samples.shape[0]
    subarray_size = require_positive_int(subarray_size, "subarray_size")
    if subarray_size > num_antennas:
        raise ValueError(
            f"subarray_size {subarray_size} exceeds the number of antennas {num_antennas}")
    num_subarrays = num_antennas - subarray_size + 1
    accumulator = np.zeros((subarray_size, subarray_size), dtype=complex)
    for start in range(num_subarrays):
        block = samples[start:start + subarray_size]
        accumulator += correlation_matrix(block)
    return accumulator / num_subarrays


def diagonal_loading(matrix: np.ndarray, loading_factor: float = 1e-3) -> np.ndarray:
    """Add a small multiple of the average diagonal power to the diagonal.

    Keeps matrix inversions (Capon) and eigendecompositions well conditioned
    when the capture is short or nearly noiseless.
    """
    matrix = _check_square(matrix)
    if loading_factor < 0:
        raise ValueError("loading_factor must be non-negative")
    average_power = float(np.real(np.trace(matrix))) / matrix.shape[0]
    return (matrix
            + loading_factor * max(average_power, np.finfo(float).tiny) * np.eye(matrix.shape[0]))


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
