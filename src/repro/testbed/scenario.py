"""Capture generation: the glue between the testbed and the SecureAngle pipeline.

``TestbedSimulator`` stands in for everything that happens between a client
pressing "send" and the access point holding a buffer of raw samples: the ray
tracer finds the propagation paths from the transmitter's position, the
environment dynamics evolve them to the requested capture time, the array
channel turns them into per-antenna signals, and the (imperfect) array
receiver digitises them.  Experiments and applications then feed the resulting
:class:`~repro.hardware.capture.Capture` objects to the SecureAngle pipeline
exactly as the real prototype feeds buffered WARP samples to Matlab.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import AntennaArray
from repro.attacks.attacker import Attacker
from repro.channel.channel import ArrayChannel, ChannelConfig
from repro.channel.dynamics import DynamicsConfig, EnvironmentDynamics
from repro.channel.path import PropagationPath
from repro.channel.raytracer import RayTracer
from repro.geometry.point import Point
from repro.hardware.capture import Capture
from repro.hardware.receiver import ArrayReceiver, ReceiverConfig
from repro.hardware.reference import CalibrationSource
from repro.calibration.procedure import calibrate_receiver
from repro.calibration.table import CalibrationTable
from repro.mac.frames import Dot11Frame
# make_packet_waveform has no caller here; it stays importable because the
# perfbench stage tracer wraps both waveform entry points in this namespace.
from repro.phy.packet import make_packet_waveform, make_packet_waveforms  # noqa: F401
from repro.testbed.environment import TestbedEnvironment
from repro.utils.rng import RngLike, derive_seed, ensure_rng, keyed_noise_rng, keyed_rng, spawn_rng
from repro.utils.validation import require_finite_non_negative


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the end-to-end capture simulation."""

    # default_factory keeps each SimulatorConfig's nested configs its own
    # objects instead of one shared class-level default instance.
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    #: Maximum number of reflected paths kept per capture.
    max_reflections: int = 6
    #: Number of OFDM payload symbols per generated packet.
    payload_symbols: int = 20
    #: Default transmit power when the transmitter does not specify one.
    default_tx_power_dbm: float = 15.0
    #: Memoize ray-traced paths per (tx position, environment-dynamics epoch).
    #: Exact: tracing is pure geometry and the dynamics evolve a path set
    #: deterministically per elapsed time, so cached entries are bit-identical
    #: to re-tracing.  Static clients stop paying the ray tracer per packet.
    cache_paths: bool = True
    #: Maximum number of cached path sets before the least recently used
    #: is evicted.
    path_cache_size: int = 1024

    def __post_init__(self) -> None:
        if self.max_reflections < 0:
            raise ValueError("max_reflections must be non-negative")
        if self.payload_symbols < 1:
            raise ValueError("payload_symbols must be at least 1")
        if self.path_cache_size < 1:
            raise ValueError("path_cache_size must be at least 1")


@dataclass(frozen=True)
class CaptureRequest:
    """One packet of a batched capture: who transmits, from where, and when.

    ``elapsed_s`` and ``timestamp_s`` must be finite and non-negative: the
    environment dynamics are keyed by the elapsed time, and epoch 0 is the
    reference capture.
    """

    position: Point
    frame: Optional[Dot11Frame] = None
    tx_power_dbm: Optional[float] = None
    elapsed_s: float = 0.0
    attacker: Optional[Attacker] = None
    timestamp_s: Optional[float] = None
    metadata: Optional[dict] = None

    def __post_init__(self) -> None:
        require_finite_non_negative(self.elapsed_s, "elapsed_s")
        if self.timestamp_s is not None:
            require_finite_non_negative(self.timestamp_s, "timestamp_s")


class TestbedSimulator:
    """Simulate one access point's view of the testbed."""

    def __init__(self, environment: TestbedEnvironment, array: AntennaArray,
                 ap_position: Optional[Point] = None, orientation_deg: float = 0.0,
                 config: Optional[SimulatorConfig] = None, rng: RngLike = None):
        config = config if config is not None else SimulatorConfig()
        self.environment = environment
        self.array = array
        self.ap_position = ap_position if ap_position is not None else environment.ap_position
        self.orientation_deg = float(orientation_deg)
        self.config = config
        self._rng = ensure_rng(rng)
        self.raytracer = RayTracer(
            environment.floorplan,
            frequency_hz=config.channel.carrier_frequency_hz,
            max_reflections=config.max_reflections,
        )
        self.channel = ArrayChannel(array, orientation_deg=orientation_deg,
                                    config=config.channel, rng=spawn_rng(self._rng, 11))
        self.receiver = ArrayReceiver(array, config=config.receiver,
                                      rng=spawn_rng(self._rng, 12))
        self.dynamics = EnvironmentDynamics(config.dynamics, rng=spawn_rng(self._rng, 13))
        # Captures are keyed by (root, ordinal, stream); after this, only the
        # lazy calibration spawn (14) draws from ``self._rng``.
        self._capture_root = derive_seed(self._rng)
        self._next_ordinal = 0
        self.calibration_source = CalibrationSource(num_outputs=array.num_elements)
        self._calibration: Optional[CalibrationTable] = None
        # Path cache: (x, y, elapsed_s) -> traced-and-evolved path list.  The
        # epoch (elapsed time) is part of the key, so dynamic environments
        # invalidate naturally: a new elapsed time is a new entry, and the
        # same elapsed time always maps to the same deterministic path set.
        self._path_cache: "OrderedDict[Tuple[float, float, float], List[PropagationPath]]" = \
            OrderedDict()
        self._path_cache_hits = 0
        self._path_cache_misses = 0

    # -------------------------------------------------------------- calibration
    def calibration_table(self, num_samples: int = 4096) -> CalibrationTable:
        """Measure (and cache) the receiver's calibration table."""
        if self._calibration is None:
            self._calibration = calibrate_receiver(
                self.receiver, self.calibration_source, num_samples=num_samples,
                rng=spawn_rng(self._rng, 14))
        return self._calibration

    # ------------------------------------------------------------------ capture
    def capture_from_position(self, position: Point, frame: Optional[Dot11Frame] = None,
                              tx_power_dbm: Optional[float] = None,
                              elapsed_s: float = 0.0,
                              attacker: Optional[Attacker] = None,
                              timestamp_s: Optional[float] = None,
                              metadata: Optional[dict] = None) -> Capture:
        """Simulate one packet transmitted from ``position`` and captured by the AP.

        The packet is simulated as a one-item :meth:`capture_batch`.

        Parameters
        ----------
        position:
            Transmitter position in the floor plan.
        frame:
            Optional MAC frame carried by the packet (its bits go into the
            payload and its source address is recorded in the capture metadata).
        tx_power_dbm:
            Transmit power; defaults to the simulator's configured default.
        elapsed_s:
            Time since the reference capture — the environment dynamics evolve
            reflections accordingly (Figure 6's time axis).
        attacker:
            When the transmitter is an attacker, its antenna model reshapes the
            per-path gains (directional antennas boost/suppress paths).
        timestamp_s:
            Capture timestamp; defaults to ``elapsed_s``.
        metadata:
            Extra annotations to store on the capture.
        """
        request = CaptureRequest(
            position=position, frame=frame, tx_power_dbm=tx_power_dbm,
            elapsed_s=elapsed_s, attacker=attacker, timestamp_s=timestamp_s,
            metadata=metadata)
        return self.capture_batch([request])[0]

    def transmit(self, requests: Sequence[CaptureRequest]) -> List[np.ndarray]:
        """The transmit side of the next ``len(requests)`` captures.

        One waveform per request, keyed by the ordinal the next
        :meth:`capture_batch` will give that request: payload bits and
        padding from substream 21, modulated with one stacked IFFT, then the
        attacker's waveform shaping from substream 25.  Draws no other stream and does not
        advance the ordinal, so a :class:`~repro.api.Deployment` can transmit
        a packet once on its primary AP and hand the same waveforms to every
        AP's :meth:`capture_batch`.
        """
        requests = list(requests)
        if not requests:
            return []
        root = self._capture_root
        first_ordinal = self._next_ordinal
        waveform_rngs = [keyed_rng(root, ordinal, 21) for ordinal
                         in range(first_ordinal, first_ordinal + len(requests))]
        waveforms = [
            packet.waveform for packet in make_packet_waveforms(
                [request.frame for request in requests],
                num_payload_symbols=self.config.payload_symbols,
                rngs=waveform_rngs)
        ]
        sample_rate_hz = self.config.channel.sample_rate_hz
        for index, request in enumerate(requests):
            if request.attacker is not None:
                waveforms[index] = request.attacker.shape_waveform(
                    waveforms[index], sample_rate_hz, request.elapsed_s,
                    rng=keyed_rng(root, first_ordinal + index, 25))
        return waveforms

    def capture_batch(self, requests: Sequence[CaptureRequest],
                      waveforms: Optional[Sequence[np.ndarray]] = None,
                      ) -> List[Capture]:
        """Simulate a whole batch of packets in one vectorized pass.

        This is the simulator's one synthesis implementation; every scalar
        capture is a batch of one.  Requests take consecutive capture
        ordinals, in request order, and each packet's random substreams are
        keyed by its ordinal: fast fading (22), path phase walks (23) and
        receiver noise (24, on SFC64 via
        :func:`~repro.utils.rng.keyed_noise_rng`; every other stream is
        :func:`~repro.utils.rng.keyed_rng`'s PCG64) here, payload bits (21)
        and an attacker's waveform shaping (25) in :meth:`transmit`.  So any
        partition of a request sequence into batches gives the same
        captures — while ray tracing hits the path cache, and the channel
        and receiver arithmetic run batched.  Captures are read-only views.

        ``waveforms`` are the transmitted packets, one per request, as
        another simulator's :meth:`transmit` returned them; with ``None``
        this simulator transmits for itself.
        """
        requests = list(requests)
        if not requests:
            return []
        if waveforms is not None:
            waveforms = list(waveforms)
            if len(waveforms) != len(requests):
                raise ValueError(f"expected {len(requests)} waveforms, "
                                 f"got {len(waveforms)}")
        first_ordinal = self._next_ordinal
        paths_batch: List[List[PropagationPath]] = []
        tx_powers: List[float] = []
        fadings: List[np.ndarray] = []
        channel_rngs: List[np.random.Generator] = []
        receiver_rngs: List[np.random.Generator] = []
        timestamps: List[float] = []
        metadata_list: List[dict] = []
        root = self._capture_root
        for ordinal, request in enumerate(requests, start=first_ordinal):
            tx_power = (self.config.default_tx_power_dbm
                        if request.tx_power_dbm is None else request.tx_power_dbm)
            paths = self._resolve_paths(request.position, request.elapsed_s,
                                        request.attacker)
            fading = self.dynamics.fast_fading_jitter(
                len(paths), decorrelation=1.0, rng=keyed_rng(root, ordinal, 22))
            channel_rngs.append(keyed_rng(root, ordinal, 23))
            receiver_rngs.append(keyed_noise_rng(root, ordinal, 24))
            paths_batch.append(paths)
            tx_powers.append(tx_power)
            fadings.append(fading)
            timestamps.append(request.elapsed_s if request.timestamp_s is None
                              else request.timestamp_s)
            metadata_list.append(self._capture_metadata(
                request.position, request.frame, request.attacker, paths,
                request.metadata))
        if waveforms is None:
            waveforms = self.transmit(requests)
        self._next_ordinal += len(requests)

        # Packets of one batch normally share a waveform length; oversized
        # frames grow their packet, so group by length and batch per group.
        captures: List[Optional[Capture]] = [None] * len(requests)
        by_length: "OrderedDict[int, List[int]]" = OrderedDict()
        for index, waveform in enumerate(waveforms):
            by_length.setdefault(waveform.size, []).append(index)
        for indices in by_length.values():
            signals = self.channel.propagate_batch(
                [waveforms[i] for i in indices],
                [paths_batch[i] for i in indices],
                tx_power_dbm=np.array([tx_powers[i] for i in indices]),
                path_fading=[fadings[i] for i in indices],
                rngs=[channel_rngs[i] for i in indices])
            group = self.receiver.capture_batch(
                signals,
                timestamps_s=[timestamps[i] for i in indices],
                metadata=[metadata_list[i] for i in indices],
                rngs=[receiver_rngs[i] for i in indices])
            for i, capture in zip(indices, group):
                captures[i] = capture
        return list(captures)  # type: ignore[arg-type]

    def capture_from_client(self, client_id: int, frame: Optional[Dot11Frame] = None,
                            tx_power_dbm: Optional[float] = None,
                            elapsed_s: float = 0.0,
                            timestamp_s: Optional[float] = None) -> Capture:
        """Simulate one packet from a numbered testbed client."""
        position = self.environment.client_position(client_id)
        capture = self.capture_from_position(
            position, frame=frame, tx_power_dbm=tx_power_dbm,
            elapsed_s=elapsed_s, timestamp_s=timestamp_s,
            metadata={"client_id": client_id})
        return capture

    def capture_burst_batch(self, client_id: int, num_packets: int,
                            inter_packet_gap_s: float = 0.5,
                            frame: Optional[Dot11Frame] = None) -> List[Capture]:
        """Simulate a burst of packets from one client, spaced in time.

        Used by the Figure 5 experiment (10 pseudospectra per client, each
        from a different packet) and by signature training.  The burst is one
        :meth:`capture_batch`: the same captures as one
        :meth:`capture_from_client` call per packet, with the geometry traced
        once and the synthesis arithmetic batched.
        """
        if num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        if inter_packet_gap_s < 0:
            raise ValueError("inter_packet_gap_s must be non-negative")
        position = self.environment.client_position(client_id)
        requests = [
            CaptureRequest(
                position=position,
                frame=frame,
                elapsed_s=index * inter_packet_gap_s,
                timestamp_s=index * inter_packet_gap_s,
                metadata={"client_id": client_id},
            )
            for index in range(num_packets)
        ]
        return self.capture_batch(requests)

    def skip_captures(self, num_captures: int) -> None:
        """Advance the capture ordinal past ``num_captures`` captures.

        A capture's randomness is keyed by its ordinal alone, so the next
        capture is exactly the one a simulator that had synthesised the
        skipped packets would produce, whoever transmitted them.  Campaign
        shards use this to start at their slice of an experiment's
        capture sequence.
        """
        if num_captures < 0:
            raise ValueError("num_captures must be non-negative")
        self._next_ordinal += int(num_captures)

    # -------------------------------------------------------------- path cache
    def path_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the (position, epoch) path cache."""
        return {
            "hits": self._path_cache_hits,
            "misses": self._path_cache_misses,
            "size": len(self._path_cache),
        }

    def clear_path_cache(self) -> None:
        """Drop all cached path sets."""
        self._path_cache.clear()
        self._path_cache_hits = 0
        self._path_cache_misses = 0

    # ---------------------------------------------------------------- internals
    def _resolve_paths(self, position: Point, elapsed_s: float,
                       attacker: Optional[Attacker]) -> List[PropagationPath]:
        """Trace (or recall) the path set for a transmitter at an epoch.

        Tracing is pure geometry and :meth:`EnvironmentDynamics.paths_at` is
        deterministic per (path set, elapsed time), so caching is exact.  The
        attacker's antenna shaping is applied *after* the cache: it depends
        on the attacker object, and path objects are immutable, so shaping
        can never corrupt cached entries.
        """
        if not self.config.cache_paths:
            paths = self.raytracer.trace(position, self.ap_position)
            if elapsed_s > 0:
                paths = self.dynamics.paths_at(paths, elapsed_s)
        else:
            # Hits count avoided ray traces: either the exact (position,
            # epoch) entry or the epoch-0 base geometry it evolves from.  A
            # hit refreshes its entry, so eviction is least-recently-used and
            # a stream of one-off epochs cannot push out the base geometry
            # every new epoch evolves from.
            key = (position.x, position.y, float(elapsed_s))
            cached = self._path_cache.get(key)
            if cached is not None:
                self._path_cache_hits += 1
                self._path_cache.move_to_end(key)
                paths = cached
            else:
                base_key = (position.x, position.y, 0.0)
                base = self._path_cache.get(base_key)
                if base is None:
                    self._path_cache_misses += 1
                    base = self.raytracer.trace(position, self.ap_position)
                    self._store_paths(base_key, base)
                else:
                    self._path_cache_hits += 1
                    self._path_cache.move_to_end(base_key)
                paths = base
                if elapsed_s > 0:
                    paths = self.dynamics.paths_at(base, elapsed_s)
                    self._store_paths(key, paths)
        if attacker is not None:
            paths = attacker.shape_paths(paths)
        return list(paths)

    def _store_paths(self, key: Tuple[float, float, float],
                     paths: List[PropagationPath]) -> None:
        self._path_cache[key] = list(paths)
        while len(self._path_cache) > self.config.path_cache_size:
            self._path_cache.popitem(last=False)

    def _capture_metadata(self, position: Point, frame: Optional[Dot11Frame],
                          attacker: Optional[Attacker],
                          paths: Sequence[PropagationPath],
                          metadata: Optional[dict]) -> dict:
        capture_metadata = {
            "tx_position": position.as_tuple(),
            "ground_truth_bearing_deg": self.ap_position.bearing_to(position),
            "num_paths": len(paths),
        }
        if frame is not None:
            capture_metadata["source_mac"] = str(frame.source)
        if attacker is not None:
            capture_metadata["attacker"] = attacker.name
        if metadata:
            capture_metadata.update(metadata)
        return capture_metadata

    # ---------------------------------------------------------------- geometry
    def expected_bearing(self, position: Point) -> float:
        """The bearing the estimator is expected to report for ``position``.

        Global bearing converted into the array's reporting convention
        (broadside angles for linear arrays, [0, 360) local azimuth for
        circular arrays).
        """
        return self.channel.expected_local_bearing(self.ap_position.bearing_to(position))

    def expected_client_bearing(self, client_id: int) -> float:
        """Expected reported bearing for a numbered client."""
        return self.expected_bearing(self.environment.client_position(client_id))
