"""Local oscillators.

Section 2.2 of the paper explains the central hardware obstacle to AoA
estimation: each radio chain's downconverter introduces an unknown phase
offset, and even when the oscillators are phase-locked (running at exactly the
same frequency, as MIMO requires) the offsets remain unknown *and different
per chain*, which breaks the inter-antenna phase comparison that AoA relies
on.  ``LocalOscillator`` models exactly that: a phase-locked oscillator with
an unknown but constant phase offset drawn at construction time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_CARRIER_FREQUENCY_HZ
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive


class LocalOscillator:
    """A 2.4 GHz oscillator with an unknown, constant phase offset.

    Parameters
    ----------
    frequency_hz:
        Nominal oscillator frequency.
    phase_offset_rad:
        The unknown phase offset.  ``None`` draws it uniformly from [0, 2*pi),
        which is what an uncalibrated board looks like.
    frequency_offset_hz:
        Residual frequency error relative to the shared reference.  Zero for
        phase-locked chains (the prototype shares sampling clocks and locks
        oscillators); non-zero values model an unlocked chain and are used in
        tests to show why phase locking matters.
    """

    def __init__(self, frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 phase_offset_rad: Optional[float] = None,
                 frequency_offset_hz: float = 0.0,
                 rng: RngLike = None):
        self.frequency_hz = require_positive(frequency_hz, "frequency_hz")
        generator = ensure_rng(rng)
        if phase_offset_rad is None:
            phase_offset_rad = float(generator.uniform(0.0, 2.0 * np.pi))
        self.phase_offset_rad = float(phase_offset_rad) % (2.0 * np.pi)
        self.frequency_offset_hz = float(frequency_offset_hz)
        # One-slot cache for the downconversion factor: packets of a burst all
        # have the same length and sample rate, and the oscillator's phase is
        # constant, so the per-sample complex exponential can be reused across
        # every capture instead of being re-evaluated per packet.
        self._mixer_cache_key: Optional[tuple] = None
        self._mixer_cache: Optional[np.ndarray] = None

    def mixer_phase(self, num_samples: int, sample_rate_hz: float) -> np.ndarray:
        """Phase (radians) the downconverting mixer applies to each sample."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        require_positive(sample_rate_hz, "sample_rate_hz")
        t = np.arange(num_samples) / sample_rate_hz
        return self.phase_offset_rad + 2.0 * np.pi * self.frequency_offset_hz * t

    def mixer_conjugate(self, num_samples: int, sample_rate_hz: float) -> np.ndarray:
        """The (cached, read-only) downconversion factor ``exp(-1j * phase)``.

        Memoized per ``(num_samples, sample_rate_hz)`` with a one-slot cache:
        the oscillator's phase never changes after construction, so the value
        is a pure function of the request and identical across packets.
        """
        key = (int(num_samples), float(sample_rate_hz))
        if self._mixer_cache_key != key:
            phase = self.mixer_phase(num_samples, sample_rate_hz)
            mixer = np.exp(-1j * phase)
            mixer.flags.writeable = False
            self._mixer_cache_key = key
            self._mixer_cache = mixer
        return self._mixer_cache

    @property
    def is_phase_locked(self) -> bool:
        """True when the oscillator runs at exactly the reference frequency."""
        return self.frequency_offset_hz == 0.0

    def __repr__(self) -> str:
        locked = "locked" if self.is_phase_locked else f"offset {self.frequency_offset_hz:g} Hz"
        return (f"LocalOscillator({self.frequency_hz / 1e9:.3f} GHz, "
                f"phase {np.degrees(self.phase_offset_rad):.1f} deg, {locked})")


class OscillatorBank:
    """A set of phase-locked oscillators, one per radio chain.

    The dotted line between oscillators in Figure 2 of the paper: all run at
    the same frequency, but each has its own unknown phase offset.
    """

    def __init__(self, num_chains: int,
                 frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ,
                 phase_offsets_rad: Optional[Sequence[float]] = None,
                 rng: RngLike = None):
        if num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        generator = ensure_rng(rng)
        if phase_offsets_rad is None:
            offsets = [None] * num_chains
        else:
            offsets = list(phase_offsets_rad)
            if len(offsets) != num_chains:
                raise ValueError(
                    f"expected {num_chains} phase offsets, got {len(offsets)}")
        self.oscillators: List[LocalOscillator] = [
            LocalOscillator(frequency_hz, offset, rng=generator) for offset in offsets
        ]

    @property
    def num_chains(self) -> int:
        """Number of oscillators in the bank."""
        return len(self.oscillators)

    @property
    def phase_offsets_rad(self) -> np.ndarray:
        """Array of the per-chain phase offsets (unknown to the estimator)."""
        return np.array([osc.phase_offset_rad for osc in self.oscillators])

    def relative_phase_offsets_rad(self) -> np.ndarray:
        """Per-chain offsets relative to chain 0 — what calibration recovers."""
        offsets = self.phase_offsets_rad
        return np.mod(offsets - offsets[0], 2.0 * np.pi)

    def mixer_table(self, num_samples: int, sample_rate_hz: float) -> np.ndarray:
        """Stacked per-chain downconversion factors, shape (num_chains, S).

        Each row is the matching oscillator's (cached)
        :meth:`LocalOscillator.mixer_conjugate`, so a batched receiver can
        downconvert every chain of every packet in one broadcast multiply.
        """
        return np.stack([
            oscillator.mixer_conjugate(num_samples, sample_rate_hz)
            for oscillator in self.oscillators
        ])

    def __getitem__(self, index: int) -> LocalOscillator:
        return self.oscillators[index]

    def __len__(self) -> int:
        return len(self.oscillators)
