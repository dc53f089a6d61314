"""The batched AoA processing engine.

The per-packet pipeline spends most of its time in fixed Python and LAPACK
call overhead: every capture used to re-derive the angle grid, rebuild the
steering matrix, and run its own eigendecompositions.  The batched engine
amortises all of that across a batch: correlation matrices are stacked into a
(B, N, N) tensor, conditioned (calibration, forward-backward averaging,
diagonal loading) with broadcast operations, eigendecomposed with one stacked
``np.linalg.eigh`` call, and evaluated for all B packets against the array's
cached steering matrix with batched matrix products.  Peak extraction runs
vectorised over the (B, A) value stack.

Two algebraic shortcuts keep the per-packet work flop-bound rather than
overhead-bound:

* Per-chain calibration is a diagonal unitary ``C``, so instead of scaling
  every time sample, the raw correlation matrix is corrected as ``C R C^H``
  — an (N, N) operation instead of an (N, T) one.  (Spatial smoothing breaks
  this commutation, so the smoothing path calibrates samples directly.)
* The eigenvector basis is orthonormal, so the MUSIC noise-subspace power
  ``sum_noise |v_k^H a|^2`` equals ``||a||^2 - sum_signal |v_k^H a|^2``; with
  at most ``max_sources`` signal vectors this projects 1-3 vectors per packet
  instead of N-1.  (Verified safe: simulated pseudospectrum troughs sit many
  orders of magnitude above the float cancellation floor.)

Every item of a batch is computed independently by the underlying BLAS/LAPACK
loops, so ``process_batch([c])`` is bit-for-bit identical to processing ``c``
inside any larger batch — and ``process`` is exactly that batch of one
(:class:`~repro.aoa.estimator.AoAEstimator` is this class), so the scalar and
batched paths cannot diverge.  Calibration is per item too (``C R C^H`` with
each item's own ``C``), so one batch may mix captures calibrated with
different tables: the multi-AP controller stacks every AP's capture of a
packet into one call.

This is the one implementation of correlation conditioning, model-order
selection, the MUSIC/Bartlett/Capon values and estimate assembly in
:mod:`repro.aoa`; the streaming
:class:`~repro.aoa.subspace.SubspaceTracker` calls the same methods around
its own running average and power iteration.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.aoa.estimator import AoAEstimate, CalibrationArg, EstimatorConfig
from repro.aoa.peaks import find_peaks_batch
from repro.aoa.source_count import source_counts
from repro.aoa.spectrum import (
    PEAK_MIN_RELATIVE_HEIGHT,
    Pseudospectrum,
    grid_peak_params,
)
from repro.arrays.geometry import AntennaArray, UniformLinearArray
from repro.calibration.table import CalibrationTable
from repro.hardware.capture import Capture
from repro.kernels.backend import kernels
from repro.phy.schmidl_cox import SchmidlCoxDetector


def _per_capture_tables(calibration: CalibrationArg,
                       num_captures: int) -> Sequence[Optional[CalibrationTable]]:
    """Expand a batch's ``calibration`` argument to one entry per capture."""
    if calibration is None or isinstance(calibration, CalibrationTable):
        return [calibration] * num_captures
    if len(calibration) != num_captures:
        raise ValueError(
            f"got {len(calibration)} calibration tables for {num_captures} captures")
    return calibration


def _correction_stack(corrections: List[Optional[np.ndarray]],
                      n: int) -> Optional[np.ndarray]:
    """The (B, N) per-chain correction factors of a batch (ones for items
    that are already calibrated), or ``None`` when no item needs one."""
    if all(correction is None for correction in corrections):
        return None
    factors = np.ones((len(corrections), n), dtype=complex)
    for index, correction in enumerate(corrections):
        if correction is not None:
            factors[index] = correction
    return factors


class _Scan(NamedTuple):
    """What scanning one matrix size needs, built once per engine."""

    grid: np.ndarray
    steering: np.ndarray
    #: ``||a(theta)||^2`` per grid angle.
    power: np.ndarray
    #: :func:`~repro.aoa.spectrum.grid_peak_params` of the grid.
    wrap: bool
    min_separation: int


@lru_cache(maxsize=None)
def _loading_terms(n: int) -> Tuple[np.ndarray, np.floating]:
    """Diagonal loading's read-only (n, n) identity and its power floor (the
    smallest normal float), built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye, np.finfo(float).tiny


class BatchAoAEstimator:
    """Estimate angle-of-arrival pseudospectra for whole batches of captures.

    The engine honours every :class:`~repro.aoa.estimator.EstimatorConfig`
    knob (method, conditioning, source counting, packet detection,
    calibration policy) and evaluates all captures of a batch through stacked
    linear algebra; a single capture is a batch of one.
    """

    def __init__(self, array: AntennaArray, config: Optional[EstimatorConfig] = None):
        self.array = array
        self.config = config if config is not None else EstimatorConfig()
        self._detector: Optional[SchmidlCoxDetector] = None
        #: Scan terms per correlation-matrix size (smaller when smoothed).
        self._scans: Dict[int, _Scan] = {}
        self._tracker = None  # lazy SubspaceTracker (subspace_tracking only)

    # ------------------------------------------------------------------ public
    def process(self, capture: Capture,
                calibration: Optional[CalibrationTable] = None) -> AoAEstimate:
        """Process a single capture (a batch of one)."""
        return self.process_batch([capture], calibration=calibration)[0]

    def process_batch(self, captures: Sequence[Capture],
                      calibration: CalibrationArg = None) -> List[AoAEstimate]:
        """Process a batch of captures into one :class:`AoAEstimate` each.

        Raw captures are calibrated on the fly when they have a table;
        otherwise every capture must already be calibrated (unless the
        configuration disables the check, as the calibration ablation does).
        ``calibration`` is one table for the whole batch, or one table (or
        ``None``) per capture.
        """
        captures = list(captures)
        tables = _per_capture_tables(calibration, len(captures))
        if not captures:
            return []
        # Correction factors are computed once per distinct table.
        factors: Dict[int, np.ndarray] = {}
        samples_list: List[np.ndarray] = []
        corrections: List[Optional[np.ndarray]] = []
        for capture, table in zip(captures, tables):
            samples, correction = self._validated_samples(capture, table, factors)
            samples_list.append(samples)
            corrections.append(correction)
        packet_starts: List[Optional[int]] = [None] * len(captures)
        if self.config.detect_packet:
            for index, (capture, samples) in enumerate(zip(captures, samples_list)):
                samples_list[index], packet_starts[index] = self._extract_packet(
                    capture, samples)
        if self.config.smoothing_subarray is not None:
            # Smoothing mixes different chain subsets per subarray, which does
            # not commute with a matrix-level correction: calibrate samples.
            samples_list = [
                samples if correction is None
                else samples * correction[:, None]
                for samples, correction in zip(samples_list, corrections)
            ]
            corrections = [None] * len(captures)
        return self._process_stack(samples_list, corrections, packet_starts)

    def process_samples(self, samples: np.ndarray) -> AoAEstimate:
        """Process one already-calibrated raw sample matrix, shape (N, T)."""
        return self.process_samples_batch([samples])[0]

    def process_samples_batch(self, samples_list: Sequence[np.ndarray]) -> List[AoAEstimate]:
        """Process already-calibrated raw sample matrices, shape (N, T) each.

        Each matrix is wrapped in a calibrated :class:`Capture`, so
        validation and the optional packet detection behave as for captures.
        """
        return self.process_batch([
            Capture(samples=samples, calibrated=True) for samples in samples_list
        ])

    # ------------------------------------------------------------- validation
    def _validated_samples(self, capture: Capture, calibration: Optional[CalibrationTable],
                           factors: Dict[int, np.ndarray]
                           ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        correction: Optional[np.ndarray] = None
        calibrated = capture.calibrated
        if calibration is not None and not calibrated:
            if capture.num_antennas != calibration.num_chains:
                raise ValueError(
                    f"capture has {capture.num_antennas} antennas but the table "
                    f"covers {calibration.num_chains} chains")
            correction = factors.get(id(calibration))
            if correction is None:
                correction = factors[id(calibration)] = calibration.correction_factors()
            calibrated = True
        if self.config.require_calibrated and not calibrated:
            raise ValueError(
                "capture is not calibrated; pass a CalibrationTable or disable "
                "require_calibrated (see the calibration ablation)")
        if capture.num_antennas != self.array.num_elements:
            raise ValueError(
                f"capture has {capture.num_antennas} antennas but the array has "
                f"{self.array.num_elements} elements")
        return capture.samples, correction

    def _extract_packet(self, capture: Capture,
                        samples: np.ndarray) -> Tuple[np.ndarray, Optional[int]]:
        # Chain 0 is the calibration reference (its correction factor is
        # exactly 1), so detection on the raw first row matches detection on
        # calibrated samples.
        if self._detector is None:
            self._detector = SchmidlCoxDetector(sample_rate_hz=capture.sample_rate_hz)
        detection = self._detector.detect_first(samples[0])
        if detection is None:
            return samples, None
        return samples[:, detection.start_index:], detection.start_index

    # ---------------------------------------------------------------- pipeline
    def _process_stack(self, samples_list: List[np.ndarray],
                       corrections: List[Optional[np.ndarray]],
                       packet_starts: List[Optional[int]]) -> List[AoAEstimate]:
        config = self.config
        if config.subspace_tracking:
            return self._process_tracked(samples_list, corrections, packet_starts)
        num_samples = [samples.shape[1] for samples in samples_list]
        matrices = self._conditioned_correlation_stack(samples_list, corrections)
        n = matrices.shape[1]

        # One stacked eigendecomposition serves both source counting and the
        # MUSIC subspace split (eigenvalues ascending, per LAPACK convention).
        eigenvalues, eigenvectors = kernels.eigh(matrices)
        counts = self._source_counts(eigenvalues, num_samples)

        scan = self._scan(n)
        values, metadata = self._spectra(matrices, eigenvectors, counts, scan)
        return self._estimates(scan, values, metadata, counts, packet_starts)

    def _estimates(self, scan: _Scan, values: np.ndarray, metadata: List[dict],
                   counts: List[int], packet_starts: Sequence[Optional[int]]
                   ) -> List[AoAEstimate]:
        """Peaks and :class:`AoAEstimate` of each row of a (B, A) value stack.

        The peak search runs vectorised over the whole stack, mirroring
        Pseudospectrum.peak_bearings' defaults.  Each spectrum carries its
        full index list, so signatures reuse this search.
        """
        grid = scan.grid
        peak_indices = find_peaks_batch(values, wrap=scan.wrap,
                                        min_relative_height=PEAK_MIN_RELATIVE_HEIGHT,
                                        min_separation=scan.min_separation)
        estimates: List[AoAEstimate] = []
        for index, row in enumerate(values):
            spectrum = Pseudospectrum.from_validated(
                grid, row, metadata[index], peak_indices=tuple(peak_indices[index]))
            peaks = [float(grid[i]) for i in peak_indices[index][:self.config.max_sources]]
            bearing = peaks[0] if peaks else float(grid[int(np.argmax(row))])
            estimates.append(AoAEstimate(
                pseudospectrum=spectrum,
                bearing_deg=bearing,
                peak_bearings_deg=peaks,
                num_sources=counts[index],
                packet_start=packet_starts[index],
            ))
        return estimates

    # ------------------------------------------------------------- correlation
    def _conditioned_correlation_stack(self, samples_list: List[np.ndarray],
                                       corrections: List[Optional[np.ndarray]]) -> np.ndarray:
        config = self.config
        if config.smoothing_subarray is not None:
            if not isinstance(self.array, UniformLinearArray):
                raise ValueError("spatial smoothing requires a uniform linear array")
            return self._conditioned(
                self._smoothed_stack(samples_list, config.smoothing_subarray), None)
        matrices = kernels.correlation_stack(samples_list)
        return self._conditioned(matrices,
                                 _correction_stack(corrections, matrices.shape[1]))

    def _conditioned(self, matrices: np.ndarray,
                     factors: Optional[np.ndarray]) -> np.ndarray:
        """Condition raw correlation matrices, shape (..., N, N).

        Calibration as ``C R C^H`` with per-chain ``factors`` of shape
        (..., N) (``None``: already calibrated), forward-backward averaging
        on ULAs, and diagonal loading.
        """
        if factors is not None:
            matrices = factors[..., :, None] * matrices * factors.conj()[..., None, :]
        if self.config.forward_backward and isinstance(self.array, UniformLinearArray):
            # J R* J flips a matrix along both axes.
            matrices = 0.5 * (matrices + matrices[..., ::-1, ::-1].conj())
        if self.config.loading_factor > 0:
            matrices = self._diagonal_loading(matrices, self.config.loading_factor)
        return matrices

    @staticmethod
    def _diagonal_loading(matrices: np.ndarray, loading_factor: float) -> np.ndarray:
        """Add ``loading_factor`` times the average diagonal power to the
        diagonal of each (..., N, N) matrix, keeping inversions (Capon) and
        eigendecompositions well conditioned on short or near-noiseless
        captures."""
        n = matrices.shape[-1]
        # Batched trace (diagonal gather, not a GEMM): no shared kernel
        # applies, and the O(B*N) sum is negligible next to the eigh.
        power = np.einsum("...ii->...", matrices).real / n  # repro-lint: disable=seam-bypass
        eye, tiny = _loading_terms(n)
        load = loading_factor * np.maximum(power, tiny)
        return matrices + load[..., None, None] * eye

    def _smoothed_stack(self, samples_list: List[np.ndarray], subarray_size: int) -> np.ndarray:
        """Forward spatial smoothing: the mean correlation of every
        ``subarray_size``-element subarray, restoring the signal subspace's
        rank under coherent multipath at the cost of aperture."""
        num_antennas = self.array.num_elements
        if subarray_size > num_antennas:
            raise ValueError(
                f"subarray_size {subarray_size} exceeds the number of antennas {num_antennas}")
        num_subarrays = num_antennas - subarray_size + 1
        matrices = np.zeros((len(samples_list), subarray_size, subarray_size),
                            dtype=complex)
        for index, samples in enumerate(samples_list):
            for start in range(num_subarrays):
                block = samples[start:start + subarray_size]
                # Spatial smoothing accumulates tiny per-subarray outer
                # products in place; a per-block kernel call would cost
                # more than the GEMM. The smoothed stack still goes through
                # kernels.eigh for its eigendecomposition.
                matrices[index] += block @ block.conj().T  # repro-lint: disable=seam-bypass
            matrices[index] /= samples.shape[1] * num_subarrays
        return matrices

    # ----------------------------------------------------------- model order
    def _source_counts(self, eigenvalues: np.ndarray,
                       num_samples: List[int]) -> List[int]:
        """Model order of each item of a (B, N) eigenvalue stack."""
        config = self.config
        n = eigenvalues.shape[1]
        if config.num_sources is not None:
            return [min(config.num_sources, n - 1)] * eigenvalues.shape[0]
        return source_counts(eigenvalues, num_samples,
                             method=config.source_count_method,
                             max_sources=config.max_sources)

    # --------------------------------------------------------------- spectra
    def _spectra(self, matrices: np.ndarray, eigenvectors: np.ndarray,
                 counts: List[int], scan: _Scan) -> Tuple[np.ndarray, List[dict]]:
        config = self.config
        batch_size, n = matrices.shape[0], matrices.shape[1]
        if config.method == "music":
            # Items are grouped by model order so each group is one batched
            # matrix product; ascending eigenvalue order puts the signal
            # subspace in the trailing `order` eigenvectors.
            orders = np.asarray(counts, dtype=int)
            values = np.empty((batch_size, scan.grid.size))
            for order in np.unique(orders):
                items = np.nonzero(orders == order)[0]
                values[items] = self._music_values(
                    eigenvectors[items, :, n - order:], scan)
            metadata = [{"estimator": "music", "num_sources": int(count), "num_antennas": n}
                        for count in counts]
            return values, metadata
        if n != self.array.num_elements:
            raise ValueError(
                f"{config.method} does not support spatially smoothed matrices")
        if config.method == "capon":
            # Capon applies its own, heavier diagonal loading before inversion.
            loaded = self._diagonal_loading(matrices, 1e-3)
            inverses = kernels.inv(loaded)
            denominator = kernels.beamscan_numerator(inverses, scan.steering)
            values = 1.0 / np.maximum(denominator, 1e-15)
            metadata = [{"estimator": "capon"} for _ in range(batch_size)]
            return values, metadata
        numerator = kernels.beamscan_numerator(matrices, scan.steering)
        values = np.maximum(numerator / np.maximum(scan.power, 1e-15), 0.0)
        metadata = [{"estimator": "bartlett"} for _ in range(batch_size)]
        return values, metadata

    @staticmethod
    def _music_values(signal: np.ndarray, scan: _Scan) -> np.ndarray:
        """MUSIC pseudospectra from (B, N, r) orthonormal signal bases.

        The noise-subspace power ``sum_noise |v_k^H a|^2`` is ``||a||^2``
        minus the signal-subspace power; projecting the (few) signal vectors
        is much cheaper than projecting the noise subspace.
        """
        denominator = scan.power[None, :] - kernels.music_projection_power(
            signal, scan.steering)
        return 1.0 / np.maximum(denominator, 1e-15)

    # ---------------------------------------------------------- streaming path
    def _process_tracked(self, samples_list: List[np.ndarray],
                         corrections: List[Optional[np.ndarray]],
                         packet_starts: List[Optional[int]]) -> List[AoAEstimate]:
        """Sequential streaming path: one tracker update per capture.

        Captures are folded into the tracker's running correlation in order
        (streaming semantics), so unlike the stacked path the results depend
        on everything processed since the tracker was created.
        """
        if self._tracker is None:
            # Imported here to break the batch <-> subspace module cycle.
            from repro.aoa.subspace import SubspaceTracker

            self._tracker = SubspaceTracker(self.array, self.config)
        estimates = []
        for samples, correction, start in zip(samples_list, corrections, packet_starts):
            estimate = self._tracker.update(samples, correction)
            # Tracker estimates carry packet_start=None already.
            estimates.append(estimate if start is None
                             else replace(estimate, packet_start=start))
        return estimates

    # ------------------------------------------------------------ scan terms
    def _scan(self, matrix_size: int) -> _Scan:
        """The scan terms for (possibly smoothed) matrices of ``matrix_size``.

        Spatial smoothing shrinks the effective aperture; scanning uses a
        matching sub-aperture with the same geometry (a shorter ULA).
        """
        scan = self._scans.get(matrix_size)
        if scan is None:
            array = self.array
            if matrix_size != array.num_elements:
                assert isinstance(array, UniformLinearArray)
                array = UniformLinearArray(
                    num_elements=matrix_size, spacing_m=array.spacing,
                    carrier_frequency_hz=array.carrier_frequency_hz,
                    name=f"{array.name}-smoothed")
            grid = array.angle_grid(self.config.resolution_deg)
            steering = array.steering_matrix(resolution_deg=self.config.resolution_deg)
            scan = self._scans[matrix_size] = _Scan(
                grid, steering, np.sum(np.abs(steering) ** 2, axis=0),
                *grid_peak_params(grid))
        return scan
