"""The multi-board array receiver.

The prototype (Figure 3 of the paper) is two WARP boards of four radio chains
each, modified to share sampling clocks so there is no inter-board frequency
offset, plus the RF switches and cabled calibration source of Figure 2.
``ArrayReceiver`` models the whole assembly: it takes the noiseless
per-antenna signals produced by :class:`repro.channel.channel.ArrayChannel`,
passes them through the eight radio chains (each with its own unknown phase
offset, gain mismatch, and thermal noise), and emits a :class:`Capture`.

It can also capture the calibration source (switches in the "lower" position),
which is what :mod:`repro.calibration` uses to recover the phase offsets.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.constants import DEFAULT_CARRIER_FREQUENCY_HZ, DEFAULT_SAMPLE_RATE_HZ
from repro.hardware.capture import Capture
from repro.hardware.oscillator import OscillatorBank
from repro.hardware.radiochain import RadioChain, RadioChainConfig
from repro.hardware.reference import CalibrationSource
from repro.hardware.switch import RFSwitch, SwitchPosition
from repro.utils.rng import RngLike, ensure_rng, spawn_rng
from repro.utils.validation import require_positive, require_positive_int


@dataclass(frozen=True)
class ReceiverConfig:
    """Static parameters of the array receiver."""

    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    carrier_frequency_hz: float = DEFAULT_CARRIER_FREQUENCY_HZ
    chain_config: RadioChainConfig = field(default_factory=RadioChainConfig)
    #: Whether thermal noise is added (disabled by some unit tests that check
    #: phase relationships exactly).
    add_noise: bool = True

    def __post_init__(self) -> None:
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        require_positive(self.carrier_frequency_hz, "carrier_frequency_hz")


class ArrayReceiver:
    """An N-chain phase-locked receiver attached to an antenna array."""

    def __init__(self, array: AntennaArray,
                 config: Optional[ReceiverConfig] = None,
                 phase_offsets_rad: Optional[Sequence[float]] = None,
                 rng: RngLike = None):
        self.array = array
        self.config = config = config if config is not None else ReceiverConfig()
        self._rng = ensure_rng(rng)
        num_chains = array.num_elements
        self.oscillators = OscillatorBank(
            num_chains,
            frequency_hz=config.carrier_frequency_hz,
            phase_offsets_rad=phase_offsets_rad,
            rng=spawn_rng(self._rng, stream=1),
        )
        chain_rng = spawn_rng(self._rng, stream=2)
        self.chains: List[RadioChain] = [
            RadioChain(self.oscillators[i], config.chain_config,
                       rng=spawn_rng(chain_rng, stream=i))
            for i in range(num_chains)
        ]
        self.switch = RFSwitch(num_chains)
        # One-slot cache for the fused per-chain gain * downconversion table,
        # keyed by packet length (the sample rate is fixed per receiver).
        self._frontend_cache_key: Optional[int] = None
        self._frontend_cache: Optional[np.ndarray] = None
        self._noise_sigmas_cache: Optional[np.ndarray] = None

    @property
    def num_chains(self) -> int:
        """Number of radio chains (equals the number of antennas)."""
        return len(self.chains)

    @property
    def true_phase_offsets_rad(self) -> np.ndarray:
        """Ground-truth per-chain phase offsets (used only by tests/ablations)."""
        return self.oscillators.phase_offsets_rad

    # ------------------------------------------------------------------ capture
    def capture(self, antenna_signals: np.ndarray, timestamp_s: float = 0.0,
                metadata: Optional[dict] = None, add_noise: Optional[bool] = None,
                rng: RngLike = None) -> Capture:
        """Receive over-the-air signals (switches in the antenna position).

        ``antenna_signals`` is the (num_antennas, num_samples) noiseless array
        output of the channel model.  The packet is received as a one-item
        :meth:`capture_batch`, so its samples are a read-only view too.
        """
        return self.capture_batch(
            np.asarray(antenna_signals)[None], timestamps_s=[timestamp_s],
            metadata=[metadata], add_noise=add_noise,
            rngs=None if rng is None else [rng])[0]

    def capture_batch(self, antenna_signals: np.ndarray,
                      timestamps_s: Optional[Sequence[float]] = None,
                      metadata: Optional[Sequence[Optional[dict]]] = None,
                      add_noise: Optional[bool] = None,
                      rngs: Optional[Sequence[RngLike]] = None) -> List[Capture]:
        """Receive a whole batch of packets.

        ``antenna_signals`` is ``(B, num_antennas, num_samples)``: the stacked
        noiseless outputs of :meth:`ArrayChannel.propagate_batch`.  Each
        packet's row is its signals times the fused gain and downconversion
        table, plus thermal noise drawn from that packet's generator in
        ``rngs`` (or from the receiver's own generator when ``None``), so
        each returned :class:`Capture` is the same whatever batch it was
        received in.  The switches are not thrown here: they rest in the
        antenna position, and only :meth:`capture_calibration` moves them.

        When every packet has its own bit generator (as in every
        :class:`TestbedSimulator` batch of two or more) and the process may
        use more than one CPU, one helper thread receives packets alongside
        the calling thread, each taking the next packet not yet taken; the
        helper is joined before this returns, and an exception on either
        thread is raised here.  No byte depends on the split: each row is
        written by one thread, from its own signals and generator, with the
        same elementwise arithmetic.  The noise fill, the multiply and the
        add release the GIL, so the two threads run on two cores.  A shared
        generator (``rngs=None``, or one repeated) is drawn in row order, so
        such a batch stays on the calling thread, like a batch of one.
        """
        signals = np.asarray(antenna_signals, dtype=complex)
        if signals.ndim != 3 or signals.shape[1] != self.num_chains:
            raise ValueError(
                f"expected (B, {self.num_chains}, T) antenna signals, "
                f"got {signals.shape}")
        batch_size, _, num_samples = signals.shape
        if batch_size == 0:
            raise ValueError("capture_batch needs at least one packet")
        if add_noise is None:
            add_noise = self.config.add_noise
        if timestamps_s is None:
            timestamps = [0.0] * batch_size
        else:
            timestamps = [float(t) for t in timestamps_s]
            if len(timestamps) != batch_size:
                raise ValueError(
                    f"expected {batch_size} timestamps, got {len(timestamps)}")
        if metadata is None:
            metadata_list: List[Optional[dict]] = [None] * batch_size
        else:
            metadata_list = list(metadata)
            if len(metadata_list) != batch_size:
                raise ValueError(
                    f"expected {batch_size} metadata entries, got {len(metadata_list)}")
        if rngs is None:
            generators = [self._rng] * batch_size
        else:
            generators = [ensure_rng(rng) for rng in rngs]
            if len(generators) != batch_size:
                raise ValueError(
                    f"expected {batch_size} rng substreams, got {len(generators)}")

        frontend = self._frontend_table(num_samples)
        sigmas = self._noise_sigmas() if add_noise else None
        received = np.empty(signals.shape, dtype=complex)
        rows = iter(range(batch_size))
        if _splittable(generators):
            self._receive_split(signals, frontend, sigmas, generators,
                                received, rows)
        else:
            self._receive_rows(signals, frontend, sigmas, generators,
                               received, rows)
        # Capture samples are read-only views into one shared batch buffer:
        # skipping B copies keeps capture cheap, and freezing the buffer
        # guarantees no consumer can corrupt a sibling packet in place.
        received.flags.writeable = False
        return [
            Capture(
                samples=received[index],
                sample_rate_hz=self.config.sample_rate_hz,
                carrier_frequency_hz=self.config.carrier_frequency_hz,
                timestamp_s=timestamps[index],
                calibrated=False,
                metadata=dict(metadata_list[index] or {}),
            )
            for index in range(batch_size)
        ]

    def capture_calibration(self, source: CalibrationSource,
                            num_samples: int = 1024,
                            timestamp_s: float = 0.0,
                            add_noise: Optional[bool] = None,
                            rng: RngLike = None) -> Capture:
        """Capture the cabled calibration tone (switches in the lower position)."""
        num_samples = require_positive_int(num_samples, "num_samples")
        if source.num_outputs != self.num_chains:
            raise ValueError(
                f"calibration source has {source.num_outputs} outputs "
                f"but the receiver has {self.num_chains} chains")
        signals = source.generate(num_samples, self.config.sample_rate_hz)
        self.switch.set_all(SwitchPosition.CALIBRATION)
        try:
            return self.capture_batch(
                signals[None], timestamps_s=[timestamp_s],
                metadata=[{"source": "calibration"}], add_noise=add_noise,
                rngs=None if rng is None else [rng])[0]
        finally:
            self.switch.set_all(SwitchPosition.ANTENNA)

    # ---------------------------------------------------------------- internals
    def _receive_split(self, signals: np.ndarray, frontend: np.ndarray,
                       sigmas: Optional[np.ndarray],
                       generators: Sequence[np.random.Generator],
                       received: np.ndarray, rows: Iterator[int]) -> None:
        """Receive ``rows`` on this thread and one helper thread at once.

        Both threads take packets from the one shared iterator (``next`` on
        a range iterator is atomic under the GIL), so each packet is
        received once, and a helper whose core is busy elsewhere leaves its
        share to the caller instead of stalling it.  The helper runs
        :meth:`_receive_rows` only (numpy only): no kernel or traced entry
        point ever runs off the calling thread.
        """
        errors: List[BaseException] = []

        def receive_on_helper() -> None:
            try:
                self._receive_rows(signals, frontend, sigmas, generators,
                                   received, rows)
            except BaseException as error:  # re-raised on the calling thread
                errors.append(error)

        helper = threading.Thread(target=receive_on_helper,
                                  name="receiver-rows", daemon=True)
        helper.start()
        try:
            self._receive_rows(signals, frontend, sigmas, generators,
                               received, rows)
        finally:
            helper.join()
        if errors:
            raise errors[0]

    def _receive_rows(self, signals: np.ndarray, frontend: np.ndarray,
                      sigmas: Optional[np.ndarray],
                      generators: Sequence[np.random.Generator],
                      received: np.ndarray, rows: Iterable[int]) -> None:
        """Front end plus thermal noise for each packet in ``rows``.

        Each packet's noise is drawn into one reused (N, S) scratch, not a
        batch-sized buffer, and added in place: elementwise multiplication
        and addition are correctly rounded, so a row's bytes do not depend
        on which thread receives it or in what order.
        """
        noise = np.empty(frontend.shape, dtype=complex)
        for index in rows:
            row = received[index]
            np.multiply(signals[index], frontend, out=row)
            if sigmas is not None:
                self._packet_noise(generators[index], sigmas, noise)
                np.add(row, noise, out=row)

    def _noise_sigmas(self) -> np.ndarray:
        """Per-chain, per-quadrature noise σ, shape (N,), built once.

        A chain's σ depends only on its frozen :class:`RadioChainConfig`;
        like the front-end table, it is read from the chains at the first
        capture.
        """
        if self._noise_sigmas_cache is None:
            sigmas = np.array([chain.noise_sigma for chain in self.chains])
            sigmas.flags.writeable = False
            self._noise_sigmas_cache = sigmas
        return self._noise_sigmas_cache

    def _frontend_table(self, num_samples: int) -> np.ndarray:
        """Fused per-chain ``gain * mixer_conjugate`` factors, shape (N, S).

        Multiplying by this one table applies both front-end effects in a
        single pass.
        """
        if self._frontend_cache_key != num_samples:
            mixers = self.oscillators.mixer_table(num_samples,
                                                  self.config.sample_rate_hz)
            gains = np.array([chain.gain_linear for chain in self.chains])
            frontend = gains[:, None] * mixers
            frontend.flags.writeable = False
            self._frontend_cache_key = num_samples
            self._frontend_cache = frontend
        return self._frontend_cache

    @staticmethod
    def _packet_noise(generator: np.random.Generator, sigmas: np.ndarray,
                      out: np.ndarray) -> None:
        """One packet's thermal noise for every chain, written into ``out``.

        One standard-normal fill of the (N, S) complex buffer's float64 view,
        so real and imaginary parts interleave, then one broadcast multiply
        scales each chain's row by its per-quadrature ``sigmas`` entry.  A
        packet's noise depends only on its own generator, never on the batch
        around it.
        """
        quadratures = out.view(np.float64)
        generator.standard_normal(out=quadratures)
        quadratures *= sigmas[:, None]

    def __repr__(self) -> str:
        return (f"ArrayReceiver({self.num_chains} chains, "
                f"{self.config.carrier_frequency_hz / 1e9:.3f} GHz, "
                f"array={self.array.name})")


def _splittable(generators: Sequence[np.random.Generator]) -> bool:
    """Whether a batch may be received on two threads: two or more packets,
    no two sharing a bit generator (so no packet's draws depend on draw
    order), and more than one CPU this process may run on."""
    if len(generators) < 2:
        return False
    if len({id(generator.bit_generator) for generator in generators}) < len(generators):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1
