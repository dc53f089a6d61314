"""PHY packets: preamble plus OFDM payload, with MAC-layer annotations.

The access point's AoA pipeline works on whole packets (Section 3 of the
paper: "we detect individual packets in the incoming stream of samples, and
compute the correlation matrix ... with each entire packet"), so the packet is
the natural unit linking the MAC frame (whose source address the signature is
bound to) and the raw samples the estimator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.mac.frames import Dot11Frame
from repro.phy.ofdm import OfdmConfig, OfdmModulator
from repro.phy.preamble import _legacy_preamble_cached
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class PhyPacket:
    """A transmit-side PHY packet: waveform samples plus the MAC frame they carry."""

    waveform: np.ndarray
    frame: Optional[Dot11Frame] = None
    config: OfdmConfig = field(default_factory=OfdmConfig)

    def __post_init__(self) -> None:
        waveform = np.asarray(self.waveform, dtype=complex)
        if waveform.ndim != 1 or waveform.size == 0:
            raise ValueError("waveform must be a non-empty 1-D complex array")
        object.__setattr__(self, "waveform", waveform)

    @property
    def num_samples(self) -> int:
        """Number of baseband samples in the packet."""
        return int(self.waveform.size)

    def duration_s(self, sample_rate_hz: float) -> float:
        """Packet air time in seconds at ``sample_rate_hz``."""
        if sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        return self.num_samples / sample_rate_hz

    def normalized(self) -> "PhyPacket":
        """Return a copy whose waveform has unit average power."""
        power = float(np.mean(np.abs(self.waveform) ** 2))
        if power <= 0:
            raise ValueError("cannot normalise a zero-power waveform")
        return PhyPacket(self.waveform / np.sqrt(power), self.frame, self.config)


def make_packet_waveform(frame: Optional[Dot11Frame] = None,
                         num_payload_symbols: int = 20,
                         config: OfdmConfig = OfdmConfig(),
                         rng: RngLike = None) -> PhyPacket:
    """Build a normalised PHY packet: legacy preamble plus an OFDM payload.

    When a MAC ``frame`` is supplied, its serialised bits form the start of the
    payload (padded with random bits up to ``num_payload_symbols`` symbols);
    otherwise the payload is random data.  The waveform is normalised to unit
    average power so transmit power is applied consistently by the channel.
    The packet is built as a one-item :func:`make_packet_waveforms`.
    """
    return make_packet_waveforms([frame], num_payload_symbols=num_payload_symbols,
                                 config=config, rngs=[rng])[0]


def make_packet_waveforms(frames: Sequence[Optional[Dot11Frame]],
                          num_payload_symbols: int = 20,
                          config: OfdmConfig = OfdmConfig(),
                          rngs: Optional[Sequence[RngLike]] = None) -> List[PhyPacket]:
    """Build a whole burst of PHY packets with one stacked payload IFFT.

    Each frame's payload/padding bits are drawn from its own generator and
    the stacked OFDM modulation treats symbols row-wise, so a packet's bytes
    do not depend on the burst it was built in; the modulation cost is
    amortised across the burst.
    """
    num_payload_symbols = require_positive_int(num_payload_symbols, "num_payload_symbols")
    frames = list(frames)
    if rngs is None:
        generators = [ensure_rng(None) for _ in frames]
    else:
        generators = [ensure_rng(rng) for rng in rngs]
        if len(generators) != len(frames):
            raise ValueError(
                f"expected {len(frames)} rng substreams, got {len(generators)}")
    modulator = OfdmModulator(config)
    bits_batch = [
        _packet_bits(frame, num_payload_symbols, config, generator)
        for frame, generator in zip(frames, generators)
    ]
    payloads = modulator.modulate_payload_batch(bits_batch)
    preamble = _legacy_preamble_cached(config.fft_size)
    if len({payload.size for payload in payloads}) > 1:
        # Oversized frames grow their packets; assemble those one by one.
        return [
            PhyPacket(np.concatenate([preamble, payload]), frame, config).normalized()
            for frame, payload in zip(frames, payloads)
        ]
    # Uniform burst: assemble and normalise every packet in one matrix.  Each
    # row sees the same elementwise operations as PhyPacket.normalized
    # (row-wise mean, correctly-rounded sqrt and division).
    matrix = np.empty((len(frames), preamble.size + payloads[0].size),
                      dtype=complex)
    matrix[:, :preamble.size] = preamble
    matrix[:, preamble.size:] = payloads
    powers = np.mean(np.abs(matrix) ** 2, axis=1)
    if np.any(powers <= 0):
        raise ValueError("cannot normalise a zero-power waveform")
    scales = np.sqrt(powers)
    matrix /= scales[:, None]
    return [
        PhyPacket(matrix[index], frame, config)
        for index, frame in enumerate(frames)
    ]


def _packet_bits(frame: Optional[Dot11Frame], num_payload_symbols: int,
                 config: OfdmConfig, generator: np.random.Generator) -> np.ndarray:
    """The payload bits of one packet: frame bits plus random padding."""
    bits_per_symbol = 2 * config.num_occupied
    total_bits = num_payload_symbols * bits_per_symbol
    if frame is not None:
        frame_bits = frame.to_bits()
        if frame_bits.size > total_bits:
            # Keep the packet length fixed; long frames simply use more symbols.
            total_bits = int(np.ceil(frame_bits.size / bits_per_symbol)) * bits_per_symbol
        padding = generator.integers(0, 2, size=total_bits - frame_bits.size)
        return np.concatenate([frame_bits, padding])
    return generator.integers(0, 2, size=total_bits)
