"""Peak finding on pseudospectra.

A small, dependency-light peak finder: local maxima above a relative height
threshold, separated by a minimum distance, optionally treating the grid as
circular (for full-360-degree pseudospectra).  Returned indices are sorted by
descending peak value so callers can take "the strongest peak" (the paper's
bearing estimate) or "all significant peaks" (the multipath signature).

Candidate detection is vectorised with numpy over a (B, A) stack of rows.
Each sample is compared with its neighbours as slices of one padded copy of
the stack (the wrap-around neighbours sit in the padding), not through
``np.roll``, whose wrapper costs more than the comparisons on a 360-point
row.  :func:`find_peaks` is a batch of one over :func:`find_peaks_batch`, so
the per-packet and per-batch paths cannot diverge.

The AoA engine searches every spectrum it builds once and hands the full
index list on with the spectrum, so the signature layer does not search the
same row again; only spectra built elsewhere (a blended tracker signature,
say) are searched when their signature is made.
"""

from __future__ import annotations

from typing import List

import numpy as np


def _candidate_masks(values: np.ndarray, wrap: bool,
                     min_relative_height: float) -> np.ndarray:
    """Boolean (B, A) mask of local maxima above the per-row threshold.

    ``values`` is a (B, A) stack of pseudospectrum rows.  A sample is a
    candidate when it is at least as large as its left neighbour, strictly
    larger than its right neighbour, and at least ``min_relative_height``
    times the row maximum.  On a non-wrapping grid the two end samples count
    as peaks when they dominate their single neighbour, which keeps bearings
    near +/-90 degrees on linear arrays from being silently dropped.
    """
    maxima = np.max(values, axis=-1)
    thresholds = maxima * min_relative_height
    # Column j of the padded stack is sample j - 1 of the row, circularly, so
    # its slices [:-2] and [2:] are the left and right neighbours.
    padded = np.concatenate((values[:, -1:], values, values[:, :1]), axis=1)
    mask = ((values >= thresholds[:, None]) & (values >= padded[:, :-2])
            & (values > padded[:, 2:]))
    if not wrap:
        mask[:, 0] = (values[:, 0] >= thresholds) & (values[:, 0] > values[:, 1])
        mask[:, -1] = (values[:, -1] >= thresholds) & (values[:, -1] > values[:, -2])
    # Rows whose maximum is not positive have no meaningful peaks.
    mask[maxima <= 0, :] = False
    return mask


def _select_separated(values: np.ndarray, masks: np.ndarray, wrap: bool,
                      min_separation: int) -> List[List[int]]:
    """Enforce minimum separation on every row's candidates, stronger first.

    ``values`` is the (B, A) stack and ``masks`` its candidate mask.  The
    candidates of all rows are ordered at once: by row, then by descending
    value, then by ascending index, which keeps the original tie-breaking
    (lower index wins on equal values).  Each row then greedily keeps the
    candidates at least ``min_separation`` samples from every kept one.
    """
    n = values.shape[1]
    positions = masks.ravel().nonzero()[0]  # row-major: row * n + index
    order = np.lexsort((positions, -values.ravel()[positions], positions // n))
    selected: List[List[int]] = [[] for _ in range(values.shape[0])]
    for position in positions[order].tolist():
        row, index = divmod(position, n)
        kept_peaks = selected[row]
        for kept in kept_peaks:
            distance = abs(index - kept)
            if wrap:
                distance = min(distance, n - distance)
            if distance < min_separation:
                break
        else:
            kept_peaks.append(index)
    return selected


def _validate(min_relative_height: float, min_separation: int) -> None:
    if not 0.0 <= min_relative_height <= 1.0:
        raise ValueError("min_relative_height must be in [0, 1]")
    if min_separation < 1:
        raise ValueError("min_separation must be at least 1")


def find_peaks(values: np.ndarray, wrap: bool = False,
               min_relative_height: float = 0.05,
               min_separation: int = 3) -> List[int]:
    """Indices of significant local maxima in ``values``, strongest first.

    Parameters
    ----------
    values:
        1-D non-negative array.
    wrap:
        Treat the array as circular (last sample adjacent to the first).
    min_relative_height:
        Peaks smaller than this fraction of the global maximum are ignored.
    min_separation:
        Minimum index separation between reported peaks; of two close peaks,
        only the stronger is kept.
    """
    values = np.asarray(values, dtype=float).ravel()
    return find_peaks_batch(values[None, :], wrap=wrap,
                            min_relative_height=min_relative_height,
                            min_separation=min_separation)[0]


def find_peaks_batch(values: np.ndarray, wrap: bool = False,
                     min_relative_height: float = 0.05,
                     min_separation: int = 3) -> List[List[int]]:
    """Batched :func:`find_peaks` over a (B, A) stack of pseudospectrum rows.

    Candidate detection and the strength ordering run vectorised over the
    whole stack; only the greedy separation walk over the handful of
    candidates remains a Python loop.  Each returned list is the
    :func:`find_peaks` result of the corresponding row.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a (batch, num_angles) array, got {values.shape}")
    _validate(min_relative_height, min_separation)
    if values.shape[1] < 3:
        return [[] for _ in range(values.shape[0])]
    masks = _candidate_masks(values, wrap, min_relative_height)
    return _select_separated(values, masks, wrap, min_separation)
