"""OFDM modulation for 802.11a/g-style 20 MHz channels.

The prototype's clients send ordinary 802.11 OFDM packets; the access point
only needs the raw samples, but generating realistic waveforms matters for two
reasons: the Schmidl–Cox detector relies on the periodic structure of the
short training field, and the correlation-matrix averaging of Section 3 is
performed over a whole packet of wideband samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.constants import OFDM_CYCLIC_PREFIX, OFDM_FFT_SIZE
from repro.kernels.backend import kernels
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology for a 20 MHz 802.11a/g channel."""

    fft_size: int = OFDM_FFT_SIZE
    cyclic_prefix: int = OFDM_CYCLIC_PREFIX
    #: Indices (FFT bin numbers, negative allowed) of occupied subcarriers.
    #: 802.11a/g uses -26..-1 and 1..26 (52 subcarriers, DC unused).
    occupied_subcarriers: Sequence[int] = tuple(
        list(range(-26, 0)) + list(range(1, 27))
    )

    def __post_init__(self) -> None:
        require_positive_int(self.fft_size, "fft_size")
        if self.cyclic_prefix < 0:
            raise ValueError("cyclic_prefix must be non-negative")
        if self.cyclic_prefix >= self.fft_size:
            raise ValueError("cyclic_prefix must be shorter than the FFT size")
        occupied = list(self.occupied_subcarriers)
        if not occupied:
            raise ValueError("at least one occupied subcarrier is required")
        half = self.fft_size // 2
        for subcarrier in occupied:
            if not -half <= subcarrier < half:
                raise ValueError(
                    f"subcarrier {subcarrier} out of range for FFT size {self.fft_size}")
        if len(set(occupied)) != len(occupied):
            raise ValueError("occupied subcarriers must be unique")

    @property
    def num_occupied(self) -> int:
        """Number of occupied subcarriers."""
        return len(tuple(self.occupied_subcarriers))


class OfdmModulator:
    """Modulate frequency-domain subcarrier values into time-domain symbols.

    The stacked payload IFFT runs through ``kernels.ifft``, which is
    bit-identical to calling ``np.fft.ifft`` directly.
    """

    def __init__(self, config: OfdmConfig = OfdmConfig()):
        self.config = config

    def modulate_symbol(self, subcarrier_values: np.ndarray,
                        include_cyclic_prefix: bool = True) -> np.ndarray:
        """Return the time-domain samples of one OFDM symbol.

        ``subcarrier_values`` maps one complex value to each occupied
        subcarrier (in the order of ``config.occupied_subcarriers``).
        """
        values = np.asarray(subcarrier_values, dtype=complex)
        occupied = tuple(self.config.occupied_subcarriers)
        if values.shape != (len(occupied),):
            raise ValueError(
                f"expected {len(occupied)} subcarrier values, got shape {values.shape}")
        spectrum = np.zeros(self.config.fft_size, dtype=complex)
        for value, subcarrier in zip(values, occupied):
            spectrum[subcarrier % self.config.fft_size] = value
        # The IFFT normalisation keeps the average sample power roughly equal
        # to the average subcarrier power.
        # Scalar reference path pinned by the stacked-IFFT equivalence test:
        # modulate_payload_batch routes through kernels.ifft; this single-
        # symbol helper is the bit-exact numpy reference it must match.
        symbol = np.fft.ifft(spectrum) * np.sqrt(  # repro-lint: disable=seam-bypass
            self.config.fft_size / max(len(occupied), 1))
        if include_cyclic_prefix and self.config.cyclic_prefix > 0:
            symbol = np.concatenate([symbol[-self.config.cyclic_prefix:], symbol])
        return symbol

    def modulate_payload_batch(self, bits_batch: Sequence[np.ndarray]
                               ) -> List[np.ndarray]:
        """QPSK-modulate each payload onto as many OFDM symbols as it needs.

        Each entry's bits are padded with zeros to fill its final symbol, and
        its time-domain samples come back concatenated.  The OFDM symbols of
        the whole batch share a single stacked IFFT, which is what makes
        burst synthesis fast; the IFFT treats rows independently, so every
        payload gets the same bytes in any batch (and the same bytes as
        :meth:`modulate_symbol` applied symbol by symbol).
        """
        occupied = tuple(self.config.occupied_subcarriers)
        bits_per_symbol = 2 * len(occupied)
        prepared: List[np.ndarray] = []
        symbol_counts: List[int] = []
        for bits in bits_batch:
            bits = np.asarray(bits).astype(int).ravel()
            if bits.size == 0:
                raise ValueError("payload must contain at least one bit")
            if np.any((bits != 0) & (bits != 1)):
                raise ValueError("bits must be 0 or 1")
            remainder = bits.size % bits_per_symbol
            if remainder:
                bits = np.concatenate(
                    [bits, np.zeros(bits_per_symbol - remainder, dtype=int)])
            prepared.append(bits)
            symbol_counts.append(bits.size // bits_per_symbol)
        if not prepared:
            return []
        total_symbols = sum(symbol_counts)
        qpsk = _qpsk_map(np.concatenate(prepared)).reshape(
            total_symbols, len(occupied))
        bins = _subcarrier_bins(occupied, self.config.fft_size)
        spectra = np.zeros((total_symbols, self.config.fft_size), dtype=complex)
        spectra[:, bins] = qpsk
        scale = np.sqrt(self.config.fft_size / max(len(occupied), 1))
        symbols = kernels.ifft(spectra) * scale
        if self.config.cyclic_prefix > 0:
            symbols = np.concatenate(
                [symbols[:, -self.config.cyclic_prefix:], symbols], axis=1)
        payloads: List[np.ndarray] = []
        start = 0
        for count in symbol_counts:
            payloads.append(symbols[start:start + count].ravel())
            start += count
        return payloads

    def random_payload(self, num_symbols: int, rng: RngLike = None) -> np.ndarray:
        """Generate ``num_symbols`` OFDM symbols of random QPSK data."""
        num_symbols = require_positive_int(num_symbols, "num_symbols")
        generator = ensure_rng(rng)
        bits = generator.integers(0, 2, size=num_symbols * 2 * self.config.num_occupied)
        return self.modulate_payload_batch([bits])[0]


@lru_cache(maxsize=8)
def _subcarrier_bins(occupied: Tuple[int, ...], fft_size: int) -> np.ndarray:
    """FFT bin index of each occupied subcarrier (read-only, built once)."""
    bins = np.array([subcarrier % fft_size for subcarrier in occupied])
    bins.flags.writeable = False
    return bins


def _qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Map pairs of bits onto Gray-coded QPSK constellation points."""
    if bits.size % 2 != 0:
        raise ValueError("QPSK requires an even number of bits")
    pairs = bits.reshape(-1, 2)
    in_phase = 1.0 - 2.0 * pairs[:, 0]
    quadrature = 1.0 - 2.0 * pairs[:, 1]
    return (in_phase + 1j * quadrature) / np.sqrt(2.0)
