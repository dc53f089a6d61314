"""802.11a/g legacy preamble: short and long training fields.

The short training field (STF) consists of ten repetitions of a 16-sample
pattern and is what the Schmidl–Cox detector keys on; the long training field
(LTF) carries two full-length known symbols used for channel estimation and
fine timing.  The subcarrier sequences below are the standard 802.11a values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.phy.ofdm import OfdmConfig

#: 802.11a short-training-field frequency-domain sequence on subcarriers
#: -26..26 (53 entries including DC).  Non-zero every fourth subcarrier.
_STF_SEQUENCE = np.sqrt(13.0 / 6.0) * np.array([
    0, 0, 1 + 1j, 0, 0, 0, -1 - 1j, 0, 0, 0,
    1 + 1j, 0, 0, 0, -1 - 1j, 0, 0, 0, -1 - 1j, 0,
    0, 0, 1 + 1j, 0, 0, 0, 0, 0, 0, 0,
    -1 - 1j, 0, 0, 0, -1 - 1j, 0, 0, 0, 1 + 1j, 0,
    0, 0, 1 + 1j, 0, 0, 0, 1 + 1j, 0, 0, 0,
    1 + 1j, 0, 0,
], dtype=complex)

#: 802.11a long-training-field frequency-domain sequence on subcarriers
#: -26..26 (53 entries including DC).
_LTF_SEQUENCE = np.array([
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1,
    1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
    1, -1, 1, 1, 1, 1, 0, 1, -1, -1,
    1, 1, -1, 1, -1, 1, -1, -1, -1, -1,
    -1, 1, 1, -1, -1, 1, -1, 1, -1, 1,
    1, 1, 1,
], dtype=complex)


def _sequence_to_spectrum(sequence: np.ndarray, fft_size: int) -> np.ndarray:
    """Place a -26..26 subcarrier sequence into an ``fft_size`` FFT input."""
    if sequence.size != 53:
        raise ValueError(f"expected a 53-entry subcarrier sequence, got {sequence.size}")
    spectrum = np.zeros(fft_size, dtype=complex)
    for offset, value in zip(range(-26, 27), sequence):
        spectrum[offset % fft_size] = value
    return spectrum


@lru_cache(maxsize=8)
def _short_training_field_cached(fft_size: int) -> np.ndarray:
    spectrum = _sequence_to_spectrum(_STF_SEQUENCE, fft_size)
    # One lru_cached IFFT per FFT size over the process lifetime — a pure
    # constant-table build, not a hot path the ledger times.
    base = np.fft.ifft(spectrum) * np.sqrt(fft_size / 12.0)  # repro-lint: disable=seam-bypass
    # The STF is periodic with period fft_size/4 = 16 samples; two and a half
    # base symbols give the standard 160-sample field.
    repeated = np.tile(base, 3)[: fft_size * 2 + fft_size // 2].copy()
    repeated.flags.writeable = False
    return repeated


@lru_cache(maxsize=8)
def _long_training_field_cached(fft_size: int) -> np.ndarray:
    spectrum = _sequence_to_spectrum(_LTF_SEQUENCE, fft_size)
    # Same as the STF: cached constant-table build, one IFFT per FFT size.
    symbol = np.fft.ifft(spectrum) * np.sqrt(fft_size / 52.0)  # repro-lint: disable=seam-bypass
    cyclic_prefix = symbol[-fft_size // 2:]
    field = np.concatenate([cyclic_prefix, symbol, symbol])
    field.flags.writeable = False
    return field


@lru_cache(maxsize=8)
def _legacy_preamble_cached(fft_size: int) -> np.ndarray:
    """Read-only cached preamble — the hot path for packet synthesis.

    The training fields are pure functions of the FFT size, so packet
    generation never needs to re-run their IFFTs.  Callers must not mutate
    the returned array; the public wrappers below hand out fresh copies.
    """
    preamble = np.concatenate([_short_training_field_cached(fft_size),
                               _long_training_field_cached(fft_size)])
    preamble.flags.writeable = False
    return preamble


def short_training_field(config: OfdmConfig = OfdmConfig()) -> np.ndarray:
    """Time-domain short training field: 160 samples (10 x 16) at 20 MHz."""
    return _short_training_field_cached(config.fft_size).copy()


def long_training_field(config: OfdmConfig = OfdmConfig()) -> np.ndarray:
    """Time-domain long training field: 160 samples (32-sample CP + 2 symbols)."""
    return _long_training_field_cached(config.fft_size).copy()


def legacy_preamble(config: OfdmConfig = OfdmConfig()) -> np.ndarray:
    """Full 802.11a/g legacy preamble: STF followed by LTF (320 samples)."""
    return _legacy_preamble_cached(config.fft_size).copy()


def stf_period(config: OfdmConfig = OfdmConfig()) -> int:
    """Period (samples) of the STF's repeating pattern — 16 at 20 MHz."""
    return config.fft_size // 4
