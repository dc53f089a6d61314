"""Radio receive chains.

A radio chain is one antenna port of the WARP board: low-noise amplifier,
downconverting mixer driven by that chain's local oscillator, and ADC.  The
impairments that matter for SecureAngle are (a) the unknown per-chain phase
offset (see :mod:`repro.hardware.oscillator`), (b) small per-chain gain
mismatch, and (c) thermal noise set by the chain's noise figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import REFERENCE_TEMPERATURE_K, BOLTZMANN_CONSTANT
from repro.hardware.oscillator import LocalOscillator
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class RadioChainConfig:
    """Static parameters of a radio chain."""

    #: Receiver noise figure in dB (typical WARP front end: ~6 dB).
    noise_figure_db: float = 6.0
    #: Standard deviation of per-chain gain mismatch in dB.
    gain_mismatch_std_db: float = 0.5
    #: Receiver bandwidth (Hz) over which thermal noise is integrated.
    bandwidth_hz: float = 20e6

    def __post_init__(self) -> None:
        if self.noise_figure_db < 0:
            raise ValueError("noise_figure_db must be non-negative")
        if self.gain_mismatch_std_db < 0:
            raise ValueError("gain_mismatch_std_db must be non-negative")
        require_positive(self.bandwidth_hz, "bandwidth_hz")

    @property
    def noise_power_watts(self) -> float:
        """Thermal noise power referred to the chain input, in watts."""
        noise_floor = BOLTZMANN_CONSTANT * REFERENCE_TEMPERATURE_K * self.bandwidth_hz
        return noise_floor * 10.0 ** (self.noise_figure_db / 10.0)


class RadioChain:
    """One antenna's receive chain: its gain, oscillator and noise level.

    :class:`~repro.hardware.receiver.ArrayReceiver` applies them, for every
    chain of a packet at once.
    """

    def __init__(self, oscillator: LocalOscillator,
                 config: Optional[RadioChainConfig] = None,
                 gain_db: Optional[float] = None,
                 rng: RngLike = None):
        self.oscillator = oscillator
        self.config = config = config if config is not None else RadioChainConfig()
        if gain_db is None:
            gain_db = float(ensure_rng(rng).normal(0.0, config.gain_mismatch_std_db))
        self.gain_db = float(gain_db)

    @property
    def gain_linear(self) -> float:
        """Voltage gain of the chain (relative to the nominal chain gain)."""
        return 10.0 ** (self.gain_db / 20.0)

    @property
    def noise_sigma(self) -> float:
        """Per-quadrature thermal-noise standard deviation at the chain input."""
        return float(np.sqrt(self.config.noise_power_watts / 2.0))

    def __repr__(self) -> str:
        return (f"RadioChain(gain={self.gain_db:+.2f} dB, "
                f"NF={self.config.noise_figure_db:.1f} dB, {self.oscillator!r})")
