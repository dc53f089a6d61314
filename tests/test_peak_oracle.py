"""An independent oracle for the peak finder (hypothesis).

:func:`repro.aoa.peaks.find_peaks` and :func:`~repro.aoa.peaks.find_peaks_batch`
share one vectorised kernel: neighbours come from slices of a padded copy,
candidates are ordered for the whole stack at once.  The reference below is
written from the contract alone, one sample at a time in plain Python:

* a candidate is at least the row maximum times ``min_relative_height``, at
  least its left neighbour and strictly above its right neighbour, where
  neighbours wrap around on a circular grid;
* on a non-wrapping grid an end sample is a candidate when it is strictly
  above its single neighbour;
* a row whose maximum is not positive has no peaks;
* candidates are kept greedily, strongest first (lower index first on equal
  values), unless closer than ``min_separation`` samples (circular distance on
  a wrapping grid) to one already kept.

The inputs favour the cases where a vectorised kernel goes wrong: plateaus and
exact ties (values drawn from a few levels), all-equal and all-zero rows, both
ends of the row, and short rows.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.aoa.peaks import find_peaks, find_peaks_batch  # noqa: E402


def reference_peaks(values: Sequence[float], wrap: bool, min_relative_height: float,
                    min_separation: int) -> List[int]:
    """Plain-Python peak search, written from the contract above."""
    values = [float(value) for value in values]
    n = len(values)
    top = max(values)
    if top <= 0:
        return []
    threshold = top * min_relative_height
    candidates = []
    for index, value in enumerate(values):
        if value < threshold:
            continue
        if wrap or 0 < index < n - 1:
            left = values[index - 1]  # index 0 wraps to the last sample
            right = values[(index + 1) % n]
            is_peak = value >= left and value > right
        elif index == 0:
            is_peak = value > values[1]
        else:
            is_peak = value > values[n - 2]
        if is_peak:
            candidates.append(index)

    def distance(a: int, b: int) -> int:
        gap = abs(a - b)
        return min(gap, n - gap) if wrap else gap

    kept: List[int] = []
    for index in sorted(candidates, key=lambda i: (-values[i], i)):
        if all(distance(index, other) >= min_separation for other in kept):
            kept.append(index)
    return kept


LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0, 3.0]


@st.composite
def peak_problems(draw):
    """A (B, A) stack of rows sharing one length, plus search parameters."""
    length = draw(st.integers(min_value=3, max_value=400))
    num_rows = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(num_rows):
        kind = draw(st.sampled_from(["levels", "levels", "floats", "constant", "zero"]))
        if kind == "levels":
            # Few distinct values: long plateaus and exact ties everywhere.
            row = draw(st.lists(st.sampled_from(LEVELS), min_size=length, max_size=length))
        elif kind == "floats":
            row = draw(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                                          allow_infinity=False, allow_subnormal=False),
                                min_size=length, max_size=length))
        elif kind == "constant":
            row = [draw(st.sampled_from(LEVELS[1:]))] * length
        else:
            row = [0.0] * length
        rows.append(row)
    wrap = draw(st.booleans())
    min_relative_height = draw(st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]))
    min_separation = draw(st.integers(min_value=1, max_value=12))
    return np.asarray(rows, dtype=float), wrap, min_relative_height, min_separation


@given(peak_problems())
@settings(max_examples=300)  # cheap per example; the profile sets the rest
def test_scalar_batch_and_reference_agree(problem):
    values, wrap, min_relative_height, min_separation = problem
    kwargs = dict(wrap=wrap, min_relative_height=min_relative_height,
                  min_separation=min_separation)
    batched = find_peaks_batch(values, **kwargs)
    assert len(batched) == values.shape[0]
    for row, row_peaks in zip(values, batched):
        expected = reference_peaks(row, wrap, min_relative_height, min_separation)
        assert find_peaks(row, **kwargs) == expected
        assert row_peaks == expected


@pytest.mark.parametrize("wrap", [False, True])
def test_reference_edge_cases(wrap):
    """Pinned cases of the contract, for both grid kinds."""
    ends = [1.0, 0.0, 0.0, 0.0, 0.9]
    # Wrapping, sample 0's left neighbour is 0.9 and sample 4's right is 1.0.
    assert find_peaks(ends, wrap=wrap, min_separation=1) == (
        [0] if wrap else [0, 4])
    plateau = [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    # A plateau peaks at its last sample (>= left, > right).
    assert find_peaks(plateau, wrap=wrap, min_separation=1) == [3]
    for row in (ends, plateau, [2.0] * 7, [0.0] * 7):
        assert find_peaks(row, wrap=wrap, min_separation=1) == reference_peaks(
            row, wrap, 0.05, 1)
