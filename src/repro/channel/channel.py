"""The array channel: turn propagation paths into per-antenna baseband samples.

``ArrayChannel`` implements the superposition the paper's Figure 1 describes:
each propagation path arrives as a plane wave whose phase progresses by 2*pi
per wavelength travelled, and the antennas of the array each see that wave
with a geometry-dependent extra phase (the steering vector).  The channel sums
the paths, giving the noiseless per-antenna signal; receiver impairments
(per-chain phase offsets, gain mismatch, thermal noise) are added by the
hardware layer in :mod:`repro.hardware`, because that is where they arise in
the real prototype.

Coherent multipath
------------------
All paths carry delayed copies of the same packet, which would make the
spatial covariance rank-1 and hide the weaker paths from MUSIC.  Two physical
effects break this coherence in the real system and are modelled here:

* **Wideband delay decorrelation** — at 20 MHz bandwidth, reflections tens of
  nanoseconds longer than the direct path are partially decorrelated.  The
  channel applies each path's true (fractional) sample delay via an FFT-domain
  delay filter.
* **Per-path phase dynamics** — residual carrier-frequency offset and
  scatterer micro-motion give each path a slowly wandering phase over the
  packet.  The channel applies an independent random-walk phase per path
  (common across antennas so the spatial structure of the path is untouched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.channel.path import PropagationPath
from repro.constants import (
    DEFAULT_CARRIER_FREQUENCY_HZ,
    DEFAULT_SAMPLE_RATE_HZ,
    wavelength,
)
from repro.kernels.backend import (
    DELAY_EPSILON_SAMPLES as _DELAY_EPSILON_SAMPLES,
    PHASE_WALK_KNOT_SPACING,
    DelayRampStore,
    kernels,
)
from repro.utils.decibels import dbm_to_watts
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_finite_non_negative, require_positive

#: Packets whose (packets, paths, samples) stacks ``propagate_batch`` builds
#: at once.  For a whole 64-packet burst each such temporary would be about
#: 14 MiB, with several alive together; heap blocks that large, freed and
#: reallocated every burst, fragment the heap differently in each process
#: (the layout follows the randomised addresses), so the peak resident set
#: of identical runs would differ by a whole buffer.  Eight packets keep each
#: stack near 2 MiB.  Packets are propagated independently, so the chunking
#: changes no byte.
PROPAGATION_CHUNK = 8

#: Path delay ramps each :class:`ArrayChannel` keeps (see
#: :class:`~repro.kernels.backend.DelayRampStore`).  One slot holds one path's
#: half-spectrum ramp, ``S//2 + 1`` complex values, so at the standard
#: 1920-sample packet the block maps 192 x 961 x 16 B = 2.95 MB, resident
#: only as far as rows are written: about 85 KB per stored row of 5-6 paths,
#: 1.8 MB for the 20 clients and an attacker that one ``fence`` AP hears.  It
#: holds the rows of about 30 transmitter positions of up to 7 paths (the
#: direct path plus the default 6 reflections).
DELAY_RAMP_SLOTS = 192


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of the array channel model."""

    #: Carrier frequency (Hz); sets the wavelength used for steering phases.
    carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ
    #: Complex baseband sampling rate (Hz).
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    #: Per-sample std (radians) of each path's random-walk phase, exact at its
    #: knots every :data:`PHASE_WALK_KNOT_SPACING` samples and linear between
    #: them (see :func:`phase_random_walk_batch`).  Zero disables the walk.
    path_phase_walk_std_rad: float = 0.02
    #: Whether to apply each path's fractional sample delay (FFT-domain).
    apply_path_delays: bool = True

    def __post_init__(self) -> None:
        require_positive(self.carrier_frequency_hz, "carrier_frequency_hz")
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        require_finite_non_negative(self.path_phase_walk_std_rad,
                                    "path_phase_walk_std_rad")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return wavelength(self.carrier_frequency_hz)


class ArrayChannel:
    """Propagate a transmit waveform over a set of paths onto an antenna array.

    Parameters
    ----------
    array:
        The receiving antenna array (element positions in its local frame).
    orientation_deg:
        Rotation of the array's local frame within the global floor plan.
        A path arriving from global bearing ``b`` impinges on the array from
        local azimuth ``b - orientation_deg``.
    config:
        Channel model parameters.
    rng:
        Seed or generator for the stochastic parts of the model.
    """

    def __init__(self, array: AntennaArray, orientation_deg: float = 0.0,
                 config: Optional[ChannelConfig] = None, rng: RngLike = None):
        config = config if config is not None else ChannelConfig()
        self.array = array
        self.orientation_deg = float(orientation_deg)
        self.config = config
        self._rng = ensure_rng(rng)
        #: The delay ramps of the path geometries this link has carried.
        self.ramp_store = DelayRampStore(DELAY_RAMP_SLOTS)

    # ------------------------------------------------------------------ public
    def propagate(self, waveform: np.ndarray, paths: Sequence[PropagationPath],
                  tx_power_dbm: float = 15.0,
                  path_fading: Optional[np.ndarray] = None,
                  rng: RngLike = None) -> np.ndarray:
        """Return the noiseless (num_antennas, num_samples) received signal.

        The packet is propagated as a one-item :meth:`propagate_batch`.

        Parameters
        ----------
        waveform:
            Unit-power complex baseband transmit waveform (1-D).
        paths:
            Propagation paths from the ray tracer (possibly evolved by
            :class:`repro.channel.dynamics.EnvironmentDynamics`).
        tx_power_dbm:
            Transmit power; path gains are applied on top of this.
        path_fading:
            Optional per-path complex fading factors (for example from
            ``EnvironmentDynamics.fast_fading_jitter``); length must match
            ``paths``.
        rng:
            Overrides the channel's generator for this packet (useful for
            per-packet reproducibility in experiments).
        """
        waveform = np.asarray(waveform)
        if waveform.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {waveform.shape}")
        return self.propagate_batch(
            waveform[None, :], [paths], tx_power_dbm=tx_power_dbm,
            path_fading=None if path_fading is None else [path_fading],
            rngs=None if rng is None else [rng])[0]

    def propagate_batch(self, waveforms: Sequence[np.ndarray],
                        paths_batch: Sequence[Sequence[PropagationPath]],
                        tx_power_dbm: float = 15.0,
                        path_fading: Optional[Sequence[Optional[np.ndarray]]] = None,
                        rngs: Optional[Sequence[RngLike]] = None) -> np.ndarray:
        """Propagate a whole batch of packets, vectorized over chunks of
        :data:`PROPAGATION_CHUNK` packets.

        Returns the noiseless ``(B, num_antennas, num_samples)`` received
        signals for ``B`` packets.  Packets are computed independently, so
        any partition of a batch gives the same bytes, provided the same
        per-packet generators are supplied: pass ``rngs`` as one generator
        per packet (pinned rng substreams), or leave it ``None`` to consume
        the channel's own generator packet by packet.

        Parameters
        ----------
        waveforms:
            ``B`` unit-power transmit waveforms of equal length (a ``(B, S)``
            array or a sequence of 1-D arrays).
        paths_batch:
            One path set per packet; path counts may differ between packets.
        tx_power_dbm:
            Transmit power, shared by the batch or one value per packet.
        path_fading:
            Optional per-packet fading factor arrays (``None`` entries allowed).
        rngs:
            Optional per-packet generators for the stochastic phase walks.
        """
        waveform_matrix = np.asarray(waveforms, dtype=complex)
        if waveform_matrix.ndim != 2:
            raise ValueError(
                f"waveforms must stack into a (B, S) matrix, got shape {waveform_matrix.shape}")
        batch_size, num_samples = waveform_matrix.shape
        if batch_size == 0:
            raise ValueError("waveforms must contain at least one packet")
        if num_samples == 0:
            raise ValueError("waveforms must not be empty")
        paths_batch = [list(paths) for paths in paths_batch]
        if len(paths_batch) != batch_size:
            raise ValueError(
                f"expected {batch_size} path sets, got {len(paths_batch)}")
        if any(not paths for paths in paths_batch):
            raise ValueError("every packet needs at least one propagation path")
        tx_powers = np.broadcast_to(np.asarray(tx_power_dbm, dtype=float),
                                    (batch_size,))
        if path_fading is None:
            fading_batch: List[Optional[np.ndarray]] = [None] * batch_size
        else:
            fading_batch = list(path_fading)
            if len(fading_batch) != batch_size:
                raise ValueError(
                    f"expected {batch_size} path_fading entries, got {len(fading_batch)}")
        if rngs is None:
            generators = [self._rng] * batch_size
        else:
            generators = [ensure_rng(rng) for rng in rngs]
            if len(generators) != batch_size:
                raise ValueError(
                    f"expected {batch_size} rng substreams, got {len(generators)}")

        num_antennas = self.array.num_elements
        max_paths = max(len(paths) for paths in paths_batch)
        lambda_m = self.config.wavelength
        # Per-(packet, path) steering vectors, complex coefficients, and
        # relative delays, zero-padded up to the largest path count.  Padded
        # entries carry zero coefficients and zero steering responses, so they
        # add exact complex zeros and cannot perturb the bit pattern.  A
        # static client repeats one path set for the whole burst, so the
        # geometry-only quantities (steering, dry coefficients, delays) are
        # computed once per distinct path set and reused.
        steering = np.zeros((batch_size, max_paths, num_antennas), dtype=complex)
        coefficients = np.zeros((batch_size, max_paths), dtype=complex)
        delays = np.zeros((batch_size, max_paths))
        geometry_memo: dict = {}
        for index, paths in enumerate(paths_batch):
            count = len(paths)
            fading = fading_batch[index]
            if fading is not None:
                fading = np.asarray(fading, dtype=complex)
                if fading.shape != (count,):
                    raise ValueError(
                        f"path_fading[{index}] must have shape ({count},), "
                        f"got {fading.shape}")
            memo_key = (tuple(id(path) for path in paths), float(tx_powers[index]))
            cached = geometry_memo.get(memo_key)
            if cached is None:
                cached = (
                    self._steering_stack(paths, lambda_m),
                    self._path_coefficients(paths, float(tx_powers[index]),
                                            lambda_m),
                    self._relative_delays(paths),
                )
                geometry_memo[memo_key] = cached
            path_steering, dry_coefficients, relative_delays = cached
            steering[index, :count] = path_steering
            if fading is None:
                coefficients[index, :count] = dry_coefficients
            else:
                # (amplitude * carrier phase), then * fading.
                coefficients[index, :count] = dry_coefficients * fading
            if self.config.apply_path_delays:
                delays[index, :count] = relative_delays

        # Coefficients folded into the steering stack (P*N values instead of
        # scaling the (P, S) waveforms); one (b, N, P) @ (b, P, S)
        # contraction per chunk sums the per-path outer products.
        # kernels.matmul (np.matmul) runs the same GEMM per batch item, so a
        # packet's bytes do not depend on the batch or chunk it is in.
        weighted = (steering * coefficients[:, :, None]).transpose(0, 2, 1)
        # Padded rows multiply zero-coefficient paths; any finite walk value
        # works, and 1.0 keeps them inert.
        padded = any(len(paths) != max_paths for paths in paths_batch)
        signals = np.empty((batch_size, num_antennas, num_samples), dtype=complex)
        for start in range(0, batch_size, PROPAGATION_CHUNK):
            stop = min(start + PROPAGATION_CHUNK, batch_size)
            if self.config.apply_path_delays:
                modulated = fractional_delay_batch(
                    waveform_matrix[start:stop, None, :], delays[start:stop],
                    store=self.ramp_store)
            else:
                modulated = np.broadcast_to(
                    waveform_matrix[start:stop, None, :],
                    (stop - start, max_paths, num_samples))
            if self.config.path_phase_walk_std_rad > 0:
                walks = np.empty((stop - start, max_paths, num_samples),
                                 dtype=complex)
                if padded:
                    walks[:] = 1.0
                for row, index in enumerate(range(start, stop)):
                    count = len(paths_batch[index])
                    walks[row, :count] = phase_random_walk_batch(
                        count, num_samples, self.config.path_phase_walk_std_rad,
                        generators[index])
                modulated = modulated * walks
            signals[start:stop] = kernels.matmul(weighted[start:stop], modulated)
        return signals

    # ---------------------------------------------------------------- internals
    def _relative_delays(self, paths: Sequence[PropagationPath]) -> np.ndarray:
        """Per-path delays in samples, relative to the earliest arrival."""
        reference_delay = min(path.delay_s for path in paths)
        return np.array([
            (path.delay_s - reference_delay) * self.config.sample_rate_hz
            for path in paths
        ])

    def _steering_stack(self, paths: Sequence[PropagationPath],
                        lambda_m: float) -> np.ndarray:
        """Per-path steering vectors hoisted into one (P, N) matrix."""
        positions = self.array.element_positions
        angles = [path.aoa_deg - self.orientation_deg for path in paths]
        return kernels.steering_stack(positions, angles, lambda_m)

    def _path_coefficients(self, paths: Sequence[PropagationPath],
                           tx_power_dbm: float, lambda_m: float) -> np.ndarray:
        """Complex per-path amplitude * carrier-phase coefficients (no fading)."""
        tx_amplitude = float(np.sqrt(dbm_to_watts(tx_power_dbm)))
        coefficients = np.empty(len(paths), dtype=complex)
        for index, path in enumerate(paths):
            carrier_phase = np.exp(-1j * path.carrier_phase_rad(lambda_m))
            amplitude = tx_amplitude * path.amplitude
            coefficients[index] = amplitude * carrier_phase
        return coefficients

    def expected_local_bearing(self, global_bearing_deg: float) -> float:
        """Map a global bearing to the bearing the array's estimator reports.

        For unambiguous (planar) arrays this is simply the local azimuth in
        [0, 360).  For linear arrays the estimator reports broadside angles in
        [-90, 90] and cannot distinguish front from back, so the bearing is
        folded accordingly (footnote 1 of the paper).
        """
        local = (float(global_bearing_deg) - self.orientation_deg) % 360.0
        if not self.array.ambiguous:
            return local
        # Linear array along local x: broadside angle theta satisfies
        # sin(theta) = cos(local azimuth); fold the back half-plane onto the front.
        folded = local if local <= 180.0 else 360.0 - local
        return 90.0 - folded


def fractional_delay(waveform: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a waveform by a (possibly fractional) number of samples.

    Uses an FFT-domain linear-phase filter, which is exact for band-limited
    signals and avoids the amplitude ripple of naive interpolation.  Negative
    delays advance the waveform.
    """
    waveform = np.asarray(waveform, dtype=complex)
    if waveform.ndim != 1:
        raise ValueError("waveform must be 1-D")
    if abs(delay_samples) < _DELAY_EPSILON_SAMPLES:
        return waveform.copy()
    n = waveform.size
    # Scalar reference path, deliberately off the kernel module: the batch
    # path (fractional_delay_batch -> kernels.fractional_delay) is the timed
    # route, and the batch/scalar byte-identity suite pins this exact
    # numpy FFT rounding as the reference both must reproduce.
    spectrum = np.fft.fft(waveform)  # repro-lint: disable=seam-bypass
    frequencies = np.fft.fftfreq(n)
    # Named ramp: see fractional_delay_batch for why the temporary must not
    # be elided into an in-place complex multiply.
    ramp = np.exp(-2j * np.pi * frequencies * delay_samples)
    shifted = spectrum * ramp
    return np.fft.ifft(shifted)  # repro-lint: disable=seam-bypass


def fractional_delay_batch(waveforms: np.ndarray,
                           delay_samples: np.ndarray,
                           store: Optional[DelayRampStore] = None) -> np.ndarray:
    """Apply many fractional delays in one FFT round trip.

    ``waveforms`` is ``(..., S)`` and ``delay_samples`` broadcasts against its
    leading dimensions; each output row is the matching waveform delayed by
    its own (possibly fractional) sample count.  Two common shapes:

    * one waveform, many delays — ``waveforms`` of shape ``(S,)`` with
      ``delay_samples`` of shape ``(P,)`` gives ``(P, S)`` (the per-path
      delays of one packet);
    * a batch — ``waveforms`` of shape ``(B, 1, S)`` with delays ``(B, P)``
      gives ``(B, P, S)`` (per-path delays for every packet of a batch).

    Each row is bit-identical to :func:`fractional_delay` on the same inputs:
    the FFT and inverse FFT process rows independently, the phase ramp is
    evaluated with the same operation order, and near-zero delays return the
    waveform untouched instead of an FFT round trip.  Waveforms are promoted
    to complex128 and delays to float64.  ``store`` keeps the ramps of delay
    rows seen before, as each channel does for its link.
    """
    waveforms = np.asarray(waveforms, dtype=complex)
    if waveforms.ndim == 0 or waveforms.shape[-1] == 0:
        raise ValueError("waveforms must have at least one sample")
    delays = np.asarray(delay_samples, dtype=float)
    n = waveforms.shape[-1]
    lead_shape = np.broadcast_shapes(waveforms.shape[:-1], delays.shape)
    out_shape = lead_shape + (n,)
    delays = np.broadcast_to(delays, lead_shape)
    return kernels.fractional_delay(waveforms, delays, out_shape, store)


def phase_random_walk(num_samples: int, step_std_rad: float,
                      rng: RngLike = None) -> np.ndarray:
    """One walk of :func:`phase_random_walk_batch`: ``batch(1, ...)[0]``."""
    return phase_random_walk_batch(1, num_samples, step_std_rad, rng)[0]


def phase_random_walk_batch(num_walks: int, num_samples: int,
                            step_std_rad: float,
                            rng: RngLike = None) -> np.ndarray:
    """Stack of ``num_walks`` independent unit-magnitude random-walk phases.

    Returns a ``(num_walks, num_samples)`` complex matrix.  Each walk models
    one path's residual CFO and scatterer micro-motion over a packet, from a
    uniform initial phase.  Knots are ``K`` = :data:`PHASE_WALK_KNOT_SPACING`
    samples apart, each a step of std ``step_std_rad * sqrt(K)`` (the first
    is zero), so the knot phases are exact: variance ``step_std_rad**2 * lag``
    as for one ``step_std_rad`` step per sample.  Between knots the phase is
    linear.  Draws go walk by walk (initial phase, then knot steps), so a
    batch equals repeated :func:`phase_random_walk` calls on one generator.
    """
    if num_walks <= 0:
        raise ValueError("num_walks must be positive")
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    require_finite_non_negative(step_std_rad, "step_std_rad")
    generator = ensure_rng(rng)
    spacing = PHASE_WALK_KNOT_SPACING
    num_knots = -(-(num_samples - 1) // spacing) + 1  # ceil, plus knot 0
    initials = np.empty(num_walks)
    steps = np.empty((num_walks, num_knots))
    for walk in range(num_walks):
        initials[walk] = generator.uniform(0.0, 2.0 * np.pi)
        steps[walk] = generator.normal(0.0, step_std_rad * np.sqrt(spacing),
                                       size=num_knots)
    steps[:, 0] = 0.0
    return kernels.phase_walk(initials, steps)[:, :num_samples]
