"""The hot numerical kernels, in one numpy/BLAS implementation.

The pipeline's inner loops — batched covariance accumulation, stacked
eigendecompositions, steering-manifold evaluation, the MUSIC spectrum
contraction, FFT-domain fractional delays, phase random walks, and the OFDM
payload IFFT — all call the module-level :data:`kernels` instance of
:class:`NumpyBackend` instead of bare ``np.*`` calls.  Each kernel but the
phase walk is *literally the code the callers used to inline*, so routing
through it is bit-identical to the inline pipeline (the batch/scalar and
campaign bit-identity suites prove it).  Keeping the kernels in one module
gives the stage ledger one place to time them and the ``seam-bypass`` lint
rule one place to allow them.
"""

from __future__ import annotations

import mmap
from collections import OrderedDict
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import zherk

from repro.arrays.steering import plane_wave_response, validated_positions

__all__ = ["DELAY_EPSILON_SAMPLES", "DelayRampStore", "NumpyBackend",
           "PHASE_WALK_KNOT_SPACING", "delay_ramps", "kernels"]

#: Delays smaller than this (in samples) skip the FFT delay filter entirely,
#: so the undelayed reference path is returned untouched rather than put
#: through a lossless-but-rounding FFT round trip.
DELAY_EPSILON_SAMPLES = 1e-12

#: Samples between the knots of a path's phase walk: it is drawn at the knots
#: and linear in between (see :meth:`NumpyBackend.phase_walk`).
PHASE_WALK_KNOT_SPACING = 16


@lru_cache(maxsize=None)
def _hermitian_fill(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, n) constants that finish a ``zherk`` triangle.

    The masks of the entries strictly below the diagonal and of the rest,
    and the complex ``offset`` added to every entry: +0.0 to each part
    (which turns a -0.0 into +0.0) except the imaginary parts below the
    diagonal, which add -0.0 (which changes nothing).  Built once per matrix
    size, read-only.
    """
    below = np.tri(n, n, k=-1, dtype=bool)
    offset = np.zeros((n, n), dtype=complex)
    offset.imag[below] = -0.0
    constants = (below, ~below, offset)
    for constant in constants:
        constant.flags.writeable = False
    return constants


# --------------------------------------------------------------------- numpy
class NumpyBackend:
    """The pipeline's numpy/BLAS kernels (use the shared :data:`kernels`).

    Each method body but ``phase_walk`` is the exact code the call sites used
    to inline, which keeps the kernel path bit-identical to that pipeline.
    Kernels are coarse-grained — one call per batched operation — and are
    ordinary methods so a profiler can wrap them on the class.
    """

    def eigh(self, matrices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked Hermitian eigendecomposition (eigenvalues ascending)."""
        return np.linalg.eigh(matrices)

    def inv(self, matrices: np.ndarray) -> np.ndarray:
        """Stacked matrix inverse."""
        return np.linalg.inv(matrices)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched matrix product (``np.matmul`` semantics)."""
        return np.matmul(a, b)

    def correlation_stack(self, samples_list: Sequence[np.ndarray]) -> np.ndarray:
        """Per-item ``X X^H / T`` into one (B, N, N) stack.

        An explicit loop of per-item BLAS calls on views beats stacking the
        raw samples first: it avoids two (B, N, T)-sized copies (stack +
        conj).  ``zherk`` computes the Hermitian product writing one
        triangle only (half the gemm flops, no materialised conjugate);
        ``trans=2`` feeds the C-ordered samples as their Fortran-ordered
        transpose view, yielding ``(X^T)^H X^T = (X X^H)^T = conj(X X^H)`` —
        undone by mirroring the upper triangle below and then conjugating
        the upper triangle, all in place.  The result is exactly
        ``conj(triu(Z)) + triu(Z, 1)^T``, down to signed zeros and NaN signs:
        the cached offset adds +0.0 (a -0.0 becomes +0.0) wherever that sum
        added a zero, and -0.0 (no change) to the mirrored imaginary parts,
        so the diagonal's zero imaginary part comes out +0.0.  The lengths
        are complex, so the division is the same complex division without a
        cast per call.
        """
        n = samples_list[0].shape[0]
        matrices = np.empty((len(samples_list), n, n), dtype=complex)
        for index, samples in enumerate(samples_list):
            matrices[index] = zherk(1.0, samples.T, trans=2, lower=0)
        below, on_or_above, offset = _hermitian_fill(n)
        np.copyto(matrices, matrices.transpose(0, 2, 1), where=below)
        np.conjugate(matrices, out=matrices, where=on_or_above)
        matrices += offset
        lengths = np.array([samples.shape[1] for samples in samples_list], dtype=complex)
        matrices /= lengths[:, None, None]
        return matrices

    def music_projection_power(self, signal: np.ndarray,
                               steering: np.ndarray) -> np.ndarray:
        """Signal-subspace power ``sum_k |v_k^H a(theta)|^2``, shape (B, A)."""
        projections = signal.conj().transpose(0, 2, 1) @ steering
        return np.sum(np.abs(projections) ** 2, axis=1)

    def beamscan_numerator(self, matrices: np.ndarray,
                           steering: np.ndarray) -> np.ndarray:
        """Quadratic form ``a(theta)^H M a(theta)`` per item, shape (B, A)."""
        return np.sum((steering.conj() * (matrices @ steering)).real, axis=1)

    def steering_stack(self, positions: np.ndarray, angles_deg: Sequence[float],
                       wavelength_m: float) -> np.ndarray:
        """Steering vectors for several arrival angles, shape (P, N)."""
        # Each row is steering_vector's arithmetic for its angle, exactly
        # like the channel's original loop: the length-2 projection keeps its
        # scalar GEMV rounding, which the synthesis bit-identity suites pin.
        # Only the argument checks are made once instead of per angle.
        positions = validated_positions(positions, wavelength_m)
        phase_per_metre = -1j * 2.0 * np.pi / wavelength_m
        return np.stack([
            plane_wave_response(positions, angle, phase_per_metre)
            for angle in np.asarray(angles_deg, dtype=float).reshape(-1)
        ])

    def fractional_delay(self, spectra: np.ndarray, waveforms: np.ndarray,
                         delays: np.ndarray, out_shape: Tuple[int, ...],
                         stores: Optional[Sequence[Optional[DelayRampStore]]] = None,
                         ) -> np.ndarray:
        """FFT-domain fractional delays of transformed waveforms; see
        ``fractional_delay_batch``.

        ``spectra`` are the waveforms' forward FFTs (:meth:`fft`), taken once
        per waveform however many rows delay it; ``spectra`` and
        ``waveforms`` broadcast to ``out_shape``.  ``stores`` names, for each
        row of ``delays`` (leading dimensions flattened), the store that
        keeps that row's ramps (see :func:`delay_ramps`).
        """
        ramp = _row_ramps(delays, out_shape[-1], stores)
        # The ramp is a named array, never an anonymous temporary: numpy would
        # elide a >256 KB temporary into an in-place complex multiply, whose
        # rounding differs in the last ulp from the out-of-place loop and
        # would break bit-exactness between batch sizes.
        shifted = np.broadcast_to(spectra, out_shape) * ramp
        delayed = np.fft.ifft(shifted, axis=-1)
        passthrough = np.abs(delays) < DELAY_EPSILON_SAMPLES
        if np.any(passthrough):
            delayed[passthrough] = np.broadcast_to(waveforms, out_shape)[passthrough]
        return delayed

    def phase_walk(self, initials: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Unit-magnitude walks through knots ``exp(1j*(initial + cumsum(steps)))``.

        Knot ``j`` is sample ``j*K``, ``K`` = :data:`PHASE_WALK_KNOT_SPACING`;
        the walks end at the last knot.  Sample ``r`` past knot ``j`` is the
        knot times ``exp(1j*steps[j+1]/K)**r`` (linear phase), the powers
        built by doubling multiplies.
        """
        spacing = PHASE_WALK_KNOT_SPACING
        phases = initials[:, None] + np.cumsum(steps, axis=1)
        angles = np.zeros(phases.shape)  # 0 past the last knot: cut off below
        angles[:, :-1] = steps[:, 1:] / spacing
        # Row r holds sample r past every knot, so each multiply runs over
        # contiguous rows.  cos + 1j*sin of a real phase is bit-identical to
        # exp(1j*phase) and roughly twice as fast.
        block = np.empty((spacing,) + phases.shape, dtype=complex)
        block[0].real, block[0].imag = np.cos(phases), np.sin(phases)
        rotation = np.empty(phases.shape, dtype=complex)
        rotation.real, rotation.imag = np.cos(angles), np.sin(angles)
        filled = 1
        while filled < spacing:
            count = min(filled, spacing - filled)
            np.multiply(block[:count], rotation, out=block[filled:filled + count])
            rotation = rotation * rotation
            filled += count
        walks = block.transpose(1, 2, 0).reshape(len(initials), -1)
        return walks[:, :(phases.shape[1] - 1) * spacing + 1]

    def fft(self, a: np.ndarray) -> np.ndarray:
        """Forward FFT along the last axis."""
        return np.fft.fft(a, axis=-1)

    def ifft(self, a: np.ndarray) -> np.ndarray:
        """Inverse FFT along the last axis."""
        return np.fft.ifft(a, axis=-1)


def _row_ramps(delays: np.ndarray, n: int,
               stores: Optional[Sequence[Optional["DelayRampStore"]]]) -> np.ndarray:
    """:func:`delay_ramps` with each row of ``delays`` looked up in its own
    store: rows of several links are gathered per store, so each store sees
    its rows exactly as in a call of its own."""
    if stores is None:
        return delay_ramps(delays, n)
    owners = {id(store): store for store in stores}
    if len(owners) == 1:
        return delay_ramps(delays, n, stores[0])
    rows = delays.reshape(-1, delays.shape[-1])
    ramps = np.empty(rows.shape + (n,), dtype=complex)
    for key, store in owners.items():
        picked = [index for index, owner in enumerate(stores) if id(owner) == key]
        ramps[picked] = delay_ramps(rows[picked], n, store)
    return ramps.reshape(delays.shape + (n,))


def delay_ramps(delays: np.ndarray, n: int,
                store: Optional["DelayRampStore"] = None) -> np.ndarray:
    """Linear-phase delay ramps ``exp(-2j*pi*f*d)`` for a stack of delays.

    A burst from a static client repeats the same per-path delays for every
    packet, so the ramps are computed once per *unique* trailing row and
    gathered back — the transcendentals are the expensive part.  The phase is
    evaluated with the same operand grouping as ``fractional_delay``
    (``(-2*pi*f) * d``), and ``cos + 1j*sin`` of a real phase is bit-identical
    to ``exp`` of the equivalent purely imaginary argument, so every row
    matches the scalar helper exactly.

    Only bins ``0..n//2`` are evaluated; the rest are their conjugate
    mirror images, ``ramp[n-k] = conj(ramp[k])``.  That is exact:
    ``fftfreq``'s negative bins are exact negations of the positive ones, the
    phase is a product (so it negates exactly), and cosine and sine are even
    and odd bitwise.  With a ``store``, each unique row's half-spectrum
    ramps come from (or go into) that :class:`DelayRampStore`.
    """
    rows = delays.reshape(-1, delays.shape[-1]) if delays.ndim > 1 else \
        delays.reshape(1, -1)
    if rows.shape[0] == 1:
        # A batch of one packet has nothing to deduplicate; np.unique would
        # only add its sort to every scalar capture.
        unique, inverse = rows, None
    else:
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    slopes = _half_phase_slopes(n)
    half = np.empty(unique.shape + slopes.shape, dtype=complex)
    if store is None:
        _half_ramps(unique, slopes, half)
    else:
        for row, out in zip(unique, half):
            store.half_ramps(row, slopes, out)
    ramps = np.empty(unique.shape + (n,), dtype=half.dtype)
    ramps[..., :slopes.size] = half
    np.conjugate(half[..., n - slopes.size:0:-1], out=ramps[..., slopes.size:])
    if inverse is None:
        return ramps.reshape(delays.shape + (n,))
    if unique.shape[0] == 1:
        # Static-client bursts repeat one delay row; broadcast a read-only
        # view instead of materialising B copies.
        return np.broadcast_to(ramps[0], delays.shape + (n,))
    gathered = ramps[inverse.reshape(-1)]
    return gathered.reshape(delays.shape + (n,))


@lru_cache(maxsize=16)
def _half_phase_slopes(n: int) -> np.ndarray:
    """``-2*pi*f`` for the ``n//2 + 1`` non-mirrored FFT bins (read-only)."""
    frequencies = np.fft.fftfreq(n)[:n // 2 + 1]
    slopes = -2.0 * np.pi * frequencies
    slopes.flags.writeable = False
    return slopes


def _half_ramps(rows: np.ndarray, slopes: np.ndarray, out: np.ndarray) -> None:
    """Write the half-spectrum ramps of ``rows`` (..., P) into ``out``."""
    phases = slopes * rows[..., None]
    out.real = np.cos(phases)
    out.imag = np.sin(phases)


def _mapped_block(shape: Tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A writable array over a fresh anonymous memory map (zero-filled)."""
    mapping = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(dtype).itemsize)
    return np.frombuffer(mapping, dtype=dtype).reshape(shape)


class DelayRampStore:
    """Half-spectrum delay ramps of the delay rows one channel meets again.

    A link's relative path delays are pure geometry — environment dynamics
    move only angles and gains, attackers only gains — so one channel meets
    the same few delay rows packet after packet, and their ramps (a cosine
    and a sine per path and bin) are the costly part of a fractional delay.

    A row's key is its exact bytes, dtype and length, so a changed geometry
    simply misses.  A row takes slots the second time it is seen: one-off
    geometries (a training burst, a moving transmitter) then cost no memory
    and never displace the rows that recur.  The ramps live in one block of
    ``slots`` path rows, allocated at the first stored row for its sample
    count and afterwards only written in place; when it is full, the least
    recently used rows are overwritten.  Rows of another sample count, and
    rows with more paths than ``slots``, bypass it.

    The block is an anonymous memory map, outside the malloc heap: a
    long-lived block inside the heap would pin it, and every later
    allocation of the synthesis temporaries would land elsewhere (measured
    with ``perfbench/run.py --workload burst-1ap`` on a 2-vCPU VM: 13-15 MB
    more peak resident memory and 5-10% fewer packets per second).  Its
    pages become resident only as rows are written.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("slots must be at least 1")
        self.slots = slots
        self._block: Optional[np.ndarray] = None
        self._rows: "OrderedDict[Tuple[str, int, bytes], np.ndarray]" = OrderedDict()
        self._free: List[int] = []
        #: Keys seen once and not stored, oldest first (at most ``slots``).
        self._seen: "OrderedDict[Tuple[str, int, bytes], None]" = OrderedDict()

    def __len__(self) -> int:
        """Number of delay rows held."""
        return len(self._rows)

    @property
    def block(self) -> Optional[np.ndarray]:
        """The ``(slots, n//2 + 1)`` block (``None`` until a row is stored)."""
        return self._block

    def half_ramps(self, row: np.ndarray, slopes: np.ndarray,
                   out: np.ndarray) -> None:
        """Write one delay row's half-spectrum ramps ``(P, n//2 + 1)`` to ``out``."""
        block = self._block
        if block is not None and block.shape[1] != slopes.size:
            _half_ramps(row, slopes, out)
            return
        key = (row.dtype.str, row.size, row.tobytes())
        slots = self._rows.get(key)
        if block is not None and slots is not None:
            self._rows.move_to_end(key)
            out[...] = block[slots]
            return
        _half_ramps(row, slopes, out)
        if key not in self._seen:
            self._seen[key] = None
            if len(self._seen) > self.slots:
                self._seen.popitem(last=False)
            return
        del self._seen[key]
        if row.size > self.slots:
            return
        if block is None:
            block = self._block = _mapped_block((self.slots, slopes.size), out.dtype)
            self._free = list(range(self.slots))
        while len(self._free) < row.size:
            self._free.extend(self._rows.popitem(last=False)[1].tolist())
        slots = np.array(self._free[-row.size:], dtype=np.intp)
        del self._free[-row.size:]
        block[slots] = out
        self._rows[key] = slots


#: The one kernel instance every call site uses.
kernels = NumpyBackend()
