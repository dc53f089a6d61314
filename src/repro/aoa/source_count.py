"""Estimating the number of incident signals.

MUSIC needs to know how many signal eigenvectors to exclude from the noise
subspace.  The classical information-theoretic criteria (AIC and MDL,
Wax & Kailath 1985) pick the model order that best explains the eigenvalue
spread of the correlation matrix; both are implemented here, plus a simple
eigenvalue-gap heuristic that is robust at the very high SNRs the cabled
prototype sees.  :func:`source_counts` is the one rule that dispatches on
them, for a whole stack of matrices at once.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

#: The model-order criteria :func:`source_counts` dispatches on.
SOURCE_COUNT_METHODS = ("gap", "mdl", "aic")

#: The gap rule counts eigenvalues above this fraction of the largest one.
GAP_THRESHOLD = 0.05


def _criterion_terms(eigenvalues: np.ndarray, k: int, num_samples: int):
    """Log-likelihood term shared by AIC and MDL for model order ``k``."""
    n = eigenvalues.size
    tail = eigenvalues[k:]
    geometric = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
    arithmetic = float(np.mean(tail))
    if arithmetic <= 0:
        return 0.0
    ratio = geometric / arithmetic
    ratio = min(max(ratio, 1e-300), 1.0)
    return -num_samples * (n - k) * math.log(ratio)


def _information_criterion(eigenvalues: Sequence[float], num_samples: int, penalty: str) -> int:
    """AIC (``penalty="aic"``) or MDL (``"mdl"``) model order of one matrix."""
    eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if eigenvalues.size < 2:
        raise ValueError("need at least two eigenvalues")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    eigenvalues = np.maximum(eigenvalues, 1e-300)
    n = eigenvalues.size
    best_k, best_score = 0, float("inf")
    for k in range(n):
        likelihood = _criterion_terms(eigenvalues, k, num_samples) if k < n else 0.0
        free_params = k * (2 * n - k)
        if penalty == "aic":
            score = likelihood + free_params
        else:
            score = likelihood + 0.5 * free_params * math.log(num_samples)
        if score < best_score:
            best_score = score
            best_k = k
    return max(best_k, 1) if n > 1 else 1


def source_counts(eigenvalues: np.ndarray, num_samples: Sequence[int],
                  method: str = "mdl", max_sources: Optional[int] = None) -> List[int]:
    """Estimate the number of incident signals for each row of a (B, N) stack.

    Parameters
    ----------
    eigenvalues:
        Eigenvalues of each (possibly smoothed) correlation matrix, one row
        per matrix, in any order.
    num_samples:
        Number of time samples each matrix was averaged over.
    method:
        One of :data:`SOURCE_COUNT_METHODS`.  ``"gap"`` counts eigenvalues
        above :data:`GAP_THRESHOLD` times the row's largest, a blunt but
        effective heuristic at high SNR where signal eigenvalues tower over
        the noise floor; it runs vectorised over the stack.
    max_sources:
        Optional cap; defaults to one less than the number of antennas, the
        largest count MUSIC can handle.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 2 or eigenvalues.shape[1] < 2:
        raise ValueError("need a (batch, num_antennas) stack of at least two eigenvalues")
    if method == "gap":
        largest = np.max(eigenvalues, axis=1)
        orders = np.sum(eigenvalues > GAP_THRESHOLD * largest[:, None], axis=1)
        orders[largest <= 0] = 1
    elif method in ("mdl", "aic"):
        orders = [_information_criterion(row, count, penalty=method)
                  for row, count in zip(eigenvalues, num_samples)]
    else:
        raise ValueError(f"unknown source-count method {method!r}")
    n = eigenvalues.shape[1]
    cap = n - 1 if max_sources is None else min(max_sources, n - 1)
    return [max(1, min(int(order), cap)) for order in orders]


def estimate_num_sources(eigenvalues: Sequence[float], num_samples: int,
                         method: str = "mdl", max_sources: Optional[int] = None) -> int:
    """:func:`source_counts` for one matrix's eigenvalues (a batch of one)."""
    return source_counts(np.asarray(eigenvalues, dtype=float)[None, :], [num_samples],
                         method=method, max_sources=max_sources)[0]
