"""The hot numerical kernels, in one numpy/BLAS implementation.

The pipeline's inner loops — batched covariance accumulation, stacked
eigendecompositions, steering-manifold evaluation, the MUSIC spectrum
contraction, FFT-domain fractional delays, phase random walks, and the OFDM
payload IFFT — all call the module-level :data:`kernels` instance of
:class:`NumpyBackend` instead of bare ``np.*`` calls.  Each kernel is
*literally the code the callers used to inline*, so routing through it is
bit-identical to the inline pipeline (the batch/scalar and campaign
bit-identity suites prove it).  Keeping the kernels in one module gives the
stage ledger one place to time them and the ``seam-bypass`` lint rule one
place to allow them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

try:
    from scipy.linalg.blas import cherk as _cherk, zherk as _zherk
except ImportError:  # pragma: no cover - scipy is a hard dependency
    _cherk = None
    _zherk = None

from repro.arrays.steering import steering_vector

__all__ = [
    "DELAY_EPSILON_SAMPLES",
    "NumpyBackend",
    "PRECISIONS",
    "complex_dtype",
    "delay_ramps",
    "kernels",
    "real_dtype",
    "validate_precision",
]

#: Supported reduced-precision modes.
PRECISIONS = ("float64", "float32")

#: Delays smaller than this (in samples) skip the FFT delay filter entirely,
#: so the undelayed reference path is returned untouched rather than put
#: through a lossless-but-rounding FFT round trip.
DELAY_EPSILON_SAMPLES = 1e-12


def validate_precision(precision: str) -> str:
    """Validate a ``precision`` knob value and return it."""
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}")
    return precision


def real_dtype(precision: str) -> np.dtype:
    """The real floating dtype of a precision mode."""
    validate_precision(precision)
    return np.dtype(np.float32 if precision == "float32" else np.float64)


def complex_dtype(precision: str) -> np.dtype:
    """The complex floating dtype of a precision mode."""
    validate_precision(precision)
    return np.dtype(np.complex64 if precision == "float32" else np.complex128)


def _complex_for(real: np.dtype) -> np.dtype:
    """The complex dtype matching a real dtype (float32 -> complex64)."""
    return np.dtype(np.complex64 if np.dtype(real) == np.float32 else np.complex128)


@lru_cache(maxsize=None)
def _triangle_masks(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, n) masks ``np.triu`` zeroes for ``k=0`` and ``k=1``.

    Strictly below the diagonal, and on or below it; built once per matrix
    size (read-only) instead of by every ``np.triu`` call.
    """
    below = np.tri(n, n, k=-1, dtype=bool)
    on_or_below = np.tri(n, n, k=0, dtype=bool)
    below.flags.writeable = False
    on_or_below.flags.writeable = False
    return below, on_or_below


# --------------------------------------------------------------------- numpy
class NumpyBackend:
    """The pipeline's numpy/BLAS kernels (use the shared :data:`kernels`).

    Each method body is the exact code the call sites used to inline, which
    is what keeps the kernel path bit-identical to the inline pipeline.
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
        conj).  ``zherk``/``cherk`` compute the Hermitian product writing one
        triangle only (half the gemm flops, no materialised conjugate);
        ``trans=2`` feeds the C-ordered samples as their Fortran-ordered
        transpose view, yielding ``(X^T)^H X^T = (X X^H)^T = conj(X X^H)`` —
        undone by the batched conjugate-fill of both triangles afterwards.
        The triangles are ``np.triu``'s own ``where`` over cached masks, and
        the fill stays conj-then-add: ``conj`` turns the diagonal's zero
        imaginary part into -0.0 and adding the +0.0 of the transposed
        strict triangle makes it +0.0 again.
        """
        n = samples_list[0].shape[0]
        dtype = np.result_type(*(samples.dtype for samples in samples_list))
        herk = {np.dtype(np.complex128): _zherk,
                np.dtype(np.complex64): _cherk}.get(dtype)
        matrices = np.empty((len(samples_list), n, n), dtype=dtype)
        if herk is not None:
            for index, samples in enumerate(samples_list):
                matrices[index] = herk(1.0, samples.T, trans=2, lower=0)
            below, on_or_below = _triangle_masks(n)
            zero = np.zeros(1, dtype=dtype)
            upper = np.where(below, zero, matrices)
            strict_upper = np.where(on_or_below, zero, matrices)
            matrices = upper.conj() + strict_upper.transpose(0, 2, 1)
        else:
            for index, samples in enumerate(samples_list):
                np.matmul(samples, samples.conj().T, out=matrices[index])
        lengths = np.array([samples.shape[1] for samples in samples_list], dtype=float)
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
        # One steering_vector call per angle, exactly like the channel's
        # original loop: the length-2 projection keeps its scalar GEMV
        # rounding, which the synthesis bit-identity suites pin.
        return np.stack([
            steering_vector(positions, float(angle), wavelength_m)
            for angle in np.asarray(angles_deg, dtype=float).reshape(-1)
        ])

    def fractional_delay(self, waveforms: np.ndarray, delays: np.ndarray,
                         out_shape: Tuple[int, ...]) -> np.ndarray:
        """FFT-domain fractional delays; see ``fractional_delay_batch``."""
        spectra = np.fft.fft(waveforms, axis=-1)
        ramp = delay_ramps(delays, out_shape[-1])
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
        """Unit-magnitude walks ``exp(1j*(initial + cumsum(steps)))``."""
        phases = initials[:, None] + np.cumsum(steps, axis=1)
        # cos + 1j*sin of the real phase is bit-identical to exp(1j*phase)
        # and roughly twice as fast (no complex-exp scalar loop).
        walks = np.empty(phases.shape, dtype=_complex_for(phases.dtype))
        walks.real = np.cos(phases)
        walks.imag = np.sin(phases)
        return walks

    def ifft(self, a: np.ndarray) -> np.ndarray:
        """Inverse FFT along the last axis."""
        return np.fft.ifft(a, axis=-1)


def delay_ramps(delays: np.ndarray, n: int) -> np.ndarray:
    """Linear-phase delay ramps ``exp(-2j*pi*f*d)`` for a stack of delays.

    A burst from a static client repeats the same per-path delays for every
    packet, so the ramps are computed once per *unique* trailing row and
    gathered back — the transcendentals are the expensive part.  The phase is
    evaluated with the same operand grouping as ``fractional_delay``
    (``(-2*pi*f) * d``), and ``cos + 1j*sin`` of a real phase is bit-identical
    to ``exp`` of the equivalent purely imaginary argument, so every row
    matches the scalar helper exactly.  float32 delays yield float32 phases
    and complex64 ramps (the reduced-precision synthesis mode).
    """
    frequencies = np.fft.fftfreq(n)
    base = (-2.0 * np.pi * frequencies).astype(delays.dtype, copy=False)
    cdtype = _complex_for(delays.dtype)
    if delays.ndim <= 1:
        unique = delays.reshape(1, -1) if delays.ndim else delays.reshape(1, 1)
        phases = base * unique[..., None]
        ramps = np.empty(phases.shape, dtype=cdtype)
        ramps.real = np.cos(phases)
        ramps.imag = np.sin(phases)
        return ramps.reshape(delays.shape + (n,))
    rows = delays.reshape(-1, delays.shape[-1])
    if rows.shape[0] == 1:
        # A batch of one packet has nothing to deduplicate; np.unique would
        # only add its sort to every scalar capture.
        unique, inverse = rows, None
    else:
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    phases = base * unique[..., None]
    ramps = np.empty(phases.shape, dtype=cdtype)
    ramps.real = np.cos(phases)
    ramps.imag = np.sin(phases)
    if unique.shape[0] == 1:
        # Static-client bursts repeat one delay row; broadcast a read-only
        # view instead of materialising B copies.
        return np.broadcast_to(ramps[0], delays.shape + (n,))
    gathered = ramps[inverse.reshape(-1)]
    return gathered.reshape(delays.shape + (n,))


#: The one kernel instance every call site uses.
kernels = NumpyBackend()
