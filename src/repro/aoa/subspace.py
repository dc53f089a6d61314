"""Incremental subspace tracking for the streaming path.

Packet-rate AoA in a deployment processes one capture at a time, so the
batched engine degenerates to batch-of-one calls whose cost is dominated by
per-packet fixed work: the full-packet correlation accumulation and a fresh
eigendecomposition for every packet.  For a (near-)stationary client both are
wasteful — consecutive packets see almost the same spatial correlation, so
the signal subspace moves slowly and can be *tracked* instead of recomputed.

:class:`SubspaceTracker` implements a PAST-style tracker:

* Each packet's correlation estimate is folded into an exponentially
  weighted running matrix ``R <- beta R + (1 - beta) R_packet``.  Because
  the running average integrates snapshots *across* packets, the per-packet
  estimate can decimate the capture in time (``max_correlation_samples``)
  without giving up averaging depth — that is where most of the per-packet
  flops go.
* The signal-subspace basis is refreshed by one power-iteration sweep
  (``W <- orth(R W)``, modified Gram-Schmidt) instead of a full ``eigh``.
  For the small signal ranks MUSIC uses (1-3 vectors) this is a handful of
  level-1/2 BLAS operations per packet.
* A warm-up phase (``warmup_packets``) and a periodic resync
  (``resync_interval``) run the exact eigendecomposition to (re)estimate the
  model order and re-anchor the basis, bounding drift under mobility.  A
  degenerate Gram-Schmidt sweep (vanishing column norm) forces a resync.

Only the decimation, the running average, the power iteration with its
Gram-Schmidt sweep, and the resync policy are the tracker's own.  Everything
else is the batched engine's code, called on one matrix: each packet's
correlation is conditioned by :meth:`BatchAoAEstimator._conditioned`, the
model order comes from its ``_source_counts``, and the spectrum, peaks and
:class:`AoAEstimate` from its ``_music_values`` and ``_estimates``, so
downstream signature code cannot tell the paths apart.  Accuracy against
exact per-packet MUSIC is pinned by ``tests/test_subspace_tracker.py``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.estimator import AoAEstimate, EstimatorConfig
from repro.arrays.geometry import AntennaArray
from repro.kernels.backend import kernels

#: Default forgetting factor of the running correlation (survives ~10 packets).
DEFAULT_FORGETTING = 0.9

#: Packets processed with an exact eigendecomposition before tracking starts.
DEFAULT_WARMUP_PACKETS = 5

#: Interval (in packets) between exact-eigendecomposition resyncs.
DEFAULT_RESYNC_INTERVAL = 50

#: Per-packet cap on correlation snapshots; longer captures are decimated in
#: time (the running average restores the averaging depth across packets).
DEFAULT_MAX_CORRELATION_SAMPLES = 1024


class SubspaceTracker:
    """Track the MUSIC signal subspace incrementally across packets.

    One tracker serves one stream (one array, one configuration); captures
    must be fed in arrival order.  ``update`` consumes one calibrated sample
    matrix and returns the same :class:`AoAEstimate` the batched engine
    produces, with the eigendecomposition replaced by the tracked basis.
    """

    def __init__(self, array: AntennaArray, config: Optional[EstimatorConfig] = None,
                 forgetting: float = DEFAULT_FORGETTING,
                 warmup_packets: int = DEFAULT_WARMUP_PACKETS,
                 resync_interval: int = DEFAULT_RESYNC_INTERVAL,
                 max_correlation_samples: int = DEFAULT_MAX_CORRELATION_SAMPLES):
        config = config if config is not None else EstimatorConfig(
            subspace_tracking=True)
        if not config.subspace_tracking:
            raise ValueError("SubspaceTracker requires subspace_tracking=True")
        if not 0.0 < forgetting < 1.0:
            raise ValueError("forgetting must be in (0, 1)")
        if warmup_packets < 1:
            raise ValueError("warmup_packets must be positive")
        if resync_interval < 1:
            raise ValueError("resync_interval must be positive")
        if max_correlation_samples < 1:
            raise ValueError("max_correlation_samples must be positive")
        self.array = array
        self.config = config
        self.forgetting = float(forgetting)
        self.warmup_packets = int(warmup_packets)
        self.resync_interval = int(resync_interval)
        self.max_correlation_samples = int(max_correlation_samples)
        #: The engine whose conditioning, model order, MUSIC values and
        #: estimate assembly every update runs.
        self._engine = BatchAoAEstimator(array, config)
        self._num_elements = array.num_elements
        self._scan = self._engine._scan(self._num_elements)
        #: Relative column norm below which Gram-Schmidt forces a resync.
        self._degenerate_norm = float(np.sqrt(np.finfo(float).eps))
        self.reset()

    # ------------------------------------------------------------------ state
    def reset(self) -> None:
        """Forget all tracked state (running correlation and basis)."""
        self._corr: Optional[np.ndarray] = None
        self._basis: Optional[np.ndarray] = None
        self._rank = 1
        self._packets_seen = 0

    @property
    def packets_seen(self) -> int:
        """Number of packets folded into the tracker so far."""
        return self._packets_seen

    @property
    def tracking(self) -> bool:
        """True once the warm-up is over and updates use power iteration."""
        return self._packets_seen >= self.warmup_packets

    # ----------------------------------------------------------------- update
    def update(self, samples: np.ndarray,
               correction: Optional[np.ndarray] = None) -> AoAEstimate:
        """Fold one packet into the tracker and estimate its bearing."""
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[0] != self._num_elements:
            raise ValueError(
                f"samples must be ({self._num_elements}, T), got shape {samples.shape}")
        matrix = self._packet_correlation(samples, correction)

        if self._corr is None:
            self._corr = matrix
        else:
            beta = self.forgetting
            self._corr = beta * self._corr + (1.0 - beta) * matrix
        self._packets_seen += 1

        if (self._basis is None
                or self._packets_seen <= self.warmup_packets
                or self._packets_seen % self.resync_interval == 0):
            self._resync(samples.shape[1])
        else:
            # One (N, N) x (N, r) product per packet: the power-iteration
            # step is deliberately host-local — a device round trip per
            # packet would erase the tracker's 1.55x streaming win.
            basis = self._orthonormalized(self._corr @ self._basis)  # repro-lint: disable=seam-bypass
            if basis is None:
                self._resync(samples.shape[1])
            else:
                self._basis = basis

        return self._estimate()

    # ------------------------------------------------------------ correlation
    def _packet_correlation(self, samples: np.ndarray,
                            correction: Optional[np.ndarray]) -> np.ndarray:
        """One packet's correlation, conditioned by the engine.

        The capture is decimated to at most ``max_correlation_samples``
        snapshots first — the running average across packets restores the
        averaging depth.
        """
        num_samples = samples.shape[1]
        if num_samples > self.max_correlation_samples:
            stride = -(-num_samples // self.max_correlation_samples)
            samples = np.ascontiguousarray(samples[:, ::stride])
        return self._engine._conditioned(kernels.correlation_stack([samples])[0],
                                         correction)

    # ---------------------------------------------------------------- subspace
    def _resync(self, num_samples: int) -> None:
        """Exact eigendecomposition: re-estimate model order, re-anchor basis."""
        eigenvalues, eigenvectors = kernels.eigh(self._corr[None])
        self._rank = self._engine._source_counts(eigenvalues, [num_samples])[0]
        # Ascending eigenvalue order: the signal subspace is the trailing rank.
        self._basis = np.ascontiguousarray(
            eigenvectors[0, :, self._num_elements - self._rank:])

    def _orthonormalized(self, basis: np.ndarray) -> Optional[np.ndarray]:
        """Modified Gram-Schmidt in place; None when a column degenerates."""
        scale = _norm(basis[:, -1])
        if not math.isfinite(scale) or scale <= 0.0:
            return None
        for k in range(basis.shape[1]):
            column = basis[:, k]
            for j in range(k):
                column -= basis[:, j] * np.vdot(basis[:, j], column)
            norm = _norm(column)
            if not math.isfinite(norm) or norm < self._degenerate_norm * scale:
                return None
            basis[:, k] = column / norm
        return basis

    # ---------------------------------------------------------------- spectrum
    def _estimate(self) -> AoAEstimate:
        """The engine's MUSIC spectrum and estimate from the tracked basis."""
        values = self._engine._music_values(self._basis[None], self._scan)
        metadata = {
            "estimator": "music",
            "num_sources": self._rank,
            "num_antennas": self._num_elements,
            "subspace_tracking": True,
            "tracking": self.tracking,
        }
        return self._engine._estimates(self._scan, values, [metadata],
                                       [self._rank], [None])[0]


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector (same arithmetic), minus its
    per-call dispatch overhead — the tracker takes two or three per packet."""
    flat = vector.ravel()
    return float(np.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag)))
