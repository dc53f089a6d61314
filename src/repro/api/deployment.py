"""The deployment facade: compile a spec, then stream packets through it.

``Deployment`` turns a declarative :class:`~repro.api.spec.ScenarioSpec` into
the full live stack — environment, per-AP testbed simulators, calibrated
:class:`~repro.core.access_point.SecureAngleAP` instances, a
:class:`~repro.core.controller.SecureAngleController`, clients, and attackers
— and exposes one front door for driving traffic through it:

* :meth:`process` is the one documented contract (v1): it consumes an
  iterable of :class:`Packet` records (a frame plus per-AP captures) and
  yields one structured :class:`PacketEvent` per packet — the
  accept/drop/flag decision, every AP's bearing, the triangulated location,
  the fence verdict, and the processing latency — either streaming
  (``mode="stream"``, every AP's capture of a packet in one stacked
  analysis) or batched (``mode="batch"``, the whole batch in one).  Scalar
  and batched paths share the per-packet policy code, so they cannot
  diverge.
* :meth:`run_batch` is the v0 spelling of batch mode, kept as a thin shim
  over :meth:`process` so existing runners stay bit-identical.  (The
  stream-mode spelling ``run`` is gone; use ``process(packets)``.)

Randomness: the scenario seed drives one master generator; AP simulators
draw from it exactly as the hand-wired experiments used to (directly for a
lone AP, via numbered child streams otherwise), so a spec-built deployment
reproduces the legacy experiment wiring bit-for-bit.  Each simulator keys its
captures by capture ordinal, so later draws from the master (attacker
addresses) never perturb a capture.  A packet is transmitted once per
deployment: the primary AP's simulator draws its payload and waveform shaping,
and every AP receives that one waveform (:meth:`Deployment.capture`).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.aoa.estimator import AoAEstimate
from repro.api.components import ENVIRONMENTS
from repro.api.events import EVENT_SCHEMA_VERSION, Packet, PacketEvent
from repro.api.spec import AccessPointSpec, ScenarioSpec
from repro.attacks.attacker import Attacker
from repro.attacks.spoofing_attack import SpoofingAttack
from repro.core.access_point import AccessPointConfig, SecureAngleAP
from repro.core.controller import SecureAngleController
from repro.core.fence import FenceCheck, VirtualFence
from repro.core.localization import (
    BearingObservation,
    LocationEstimate,
    triangulate_bearings,
)
from repro.core.signature import AoASignature, signatures_from_pseudospectra
from repro.hardware.capture import Capture
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.testbed.clients import SoekrisClient, make_clients
from repro.testbed.scenario import CaptureRequest, TestbedSimulator
from repro.utils.rng import RngLike, ensure_rng, spawn_rng

__all__ = ["EVENT_SCHEMA_VERSION", "Deployment", "Packet", "PacketEvent"]

#: Fixed MAC address deployments answer to ("SA" = SecureAngle).
DEPLOYMENT_AP_ADDRESS = MacAddress("02:53:41:00:00:01")

#: One packet of a burst: its frame and the capture request that transmits it.
BurstItem = Tuple[Dot11Frame, CaptureRequest]


class Deployment:
    """A compiled scenario: the one front door for driving SecureAngle."""

    def __init__(self, spec: ScenarioSpec, rng: RngLike = None) -> None:
        self.spec = spec
        #: Master generator; AP simulators and attacker addresses derive from it.
        self._rng = ensure_rng(spec.seed if rng is None else rng)
        self.environment = ENVIRONMENTS.get(spec.environment)()
        self._ap_specs = spec.resolved_access_points()

        self.simulators: Dict[str, TestbedSimulator] = {}
        self.aps: Dict[str, SecureAngleAP] = {}
        ap_list: List[SecureAngleAP] = []
        for index, ap_spec in enumerate(self._ap_specs):
            ap = self._compile_ap(index, ap_spec)
            self.aps[ap.name] = ap
            ap_list.append(ap)

        fence: Optional[VirtualFence] = None
        if spec.fence is not None:
            fence = VirtualFence(
                self.environment.building_boundary,
                margin_m=spec.fence.margin_m,
                max_residual_m=spec.fence.max_residual_m,
                fail_open=spec.fence.fail_open,
            )
        self.controller = SecureAngleController(ap_list, fence=fence)
        #: Address clients transmit to (and attackers spoof towards).
        self.ap_address = DEPLOYMENT_AP_ADDRESS
        self._clients: Optional[Dict[int, SoekrisClient]] = None
        self._attackers: Optional[Dict[str, Attacker]] = None

    @classmethod
    def from_json(cls, text: str, rng: RngLike = None) -> "Deployment":
        """Compile a deployment straight from a JSON scenario document."""
        return cls(ScenarioSpec.from_json(text), rng=rng)

    # -------------------------------------------------------------- compilation
    def _compile_ap(self, index: int, ap_spec: AccessPointSpec) -> SecureAngleAP:
        array = ap_spec.array.build()
        position = ap_spec.resolve_position(self.environment)
        if ap_spec.seed is not None:
            sim_rng = ensure_rng(ap_spec.seed)
        elif ap_spec.rng_stream is not None:
            sim_rng = spawn_rng(self._rng, ap_spec.rng_stream)
        elif len(self._ap_specs) == 1:
            # A lone AP consumes the master generator directly — exactly the
            # stream the hand-wired single-AP experiments used.
            sim_rng = self._rng
        else:
            sim_rng = spawn_rng(self._rng, index)
        simulator = TestbedSimulator(
            self.environment, array,
            ap_position=position,
            orientation_deg=ap_spec.orientation_deg,
            config=self.spec.simulator,
            rng=sim_rng,
        )
        policy = self.spec.policy
        ap = SecureAngleAP(
            name=ap_spec.name,
            position=position,
            array=array,
            orientation_deg=ap_spec.orientation_deg,
            config=AccessPointConfig(
                estimator=ap_spec.estimator or self.spec.estimator,
                spoofing=policy.spoofing,
                tracker=policy.tracker,
                bearing_sigma_deg=policy.bearing_sigma_deg,
                training_packets=policy.training_packets,
            ),
        )
        ap.set_calibration(simulator.calibration_table())
        self.simulators[ap_spec.name] = simulator
        return ap

    # -------------------------------------------------------------- accessors
    @property
    def fence(self) -> Optional[VirtualFence]:
        """The compiled virtual fence, if the spec configured one."""
        return self.controller.fence

    @property
    def primary_ap_name(self) -> str:
        """The first (primary) access point's name."""
        return self._ap_specs[0].name

    def ap(self, name: Optional[str] = None) -> SecureAngleAP:
        """An access point by name (the primary AP when unnamed)."""
        if name is None:
            name = self.primary_ap_name
        try:
            return self.aps[name]
        except KeyError:
            raise KeyError(f"unknown access point {name!r}; "
                           f"known: {sorted(self.aps)}") from None

    def simulator(self, name: Optional[str] = None) -> TestbedSimulator:
        """An AP's testbed simulator (the primary AP's when unnamed)."""
        if name is None:
            name = self.primary_ap_name
        try:
            return self.simulators[name]
        except KeyError:
            raise KeyError(f"unknown access point {name!r}; "
                           f"known: {sorted(self.simulators)}") from None

    @property
    def clients(self) -> Dict[int, SoekrisClient]:
        """The testbed clients (built lazily; addresses from their own seed)."""
        if self._clients is None:
            clients = make_clients(self.environment,
                                   rng=self.spec.client_address_seed)
            if self.spec.clients:
                unknown = [cid for cid in self.spec.clients if cid not in clients]
                if unknown:
                    raise KeyError(f"unknown client ids in spec: {unknown}")
                clients = {cid: clients[cid] for cid in self.spec.clients}
            self._clients = clients
        return self._clients

    @property
    def attackers(self) -> Dict[str, Attacker]:
        """The spec's attackers (built lazily).

        Addresses not pinned by the spec are drawn from the master generator's
        attacker stream.  Captures are keyed by their ordinals, so building
        the attackers never perturbs them.
        """
        if self._attackers is None:
            attackers: Dict[str, Attacker] = {}
            if self.spec.attackers:
                ap_positions = {ap.name: ap.position for ap in self.aps.values()}
                address_rng = spawn_rng(self._rng,
                                        self.spec.attacker_address_stream)
                for attacker_spec in self.spec.attackers:
                    # Name collisions were rejected by ScenarioSpec validation.
                    attacker = attacker_spec.build(self.environment, ap_positions,
                                                   rng=address_rng)
                    attackers[attacker.name] = attacker
            self._attackers = attackers
        return self._attackers

    def expected_bearing(self, client_id: int,
                         ap_name: Optional[str] = None) -> float:
        """The bearing an AP's estimator should report for a client."""
        return self.simulator(ap_name).expected_client_bearing(client_id)

    # ---------------------------------------------------------------- traffic
    def client_packets(self, client_id: int, num_packets: int = 1,
                       inter_packet_gap_s: float = 0.5, start_s: float = 0.0,
                       payload: bytes = b"uplink",
                       source: Optional[MacAddress] = None) -> Iterator[Packet]:
        """Generate uplink packets from a client, captured by every AP.

        ``source`` overrides the claimed source address of the frames —
        transmitting a client's traffic under a trained (victim) address is
        the central spoofing-evaluation use case.  Packets are synthesised
        lazily, one per ``next()``, with the same bytes :meth:`traffic`
        gives the whole burst.
        """
        if num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        metadata, burst = self._burst(client_id, None, None, num_packets,
                                      inter_packet_gap_s, start_s, payload, source)
        for item in burst:
            yield from self._synthesize(metadata, [item])

    def attacker_packets(self, attacker_name: str, victim_address: MacAddress,
                         num_packets: int = 1, inter_packet_gap_s: float = 0.5,
                         start_s: float = 0.0) -> Iterator[Packet]:
        """Generate spoofed packets from a named attacker of the spec, lazily."""
        metadata, burst = self._burst(None, attacker_name, victim_address,
                                      num_packets, inter_packet_gap_s, start_s)
        for item in burst:
            yield from self._synthesize(metadata, [item])

    def traffic(self, client_id: Optional[int] = None, *,
                attacker: Optional[str] = None,
                victim_address: Optional[MacAddress] = None,
                num_packets: int = 1, inter_packet_gap_s: float = 0.5,
                start_s: float = 0.0, payload: bytes = b"uplink",
                source: Optional[MacAddress] = None) -> List[Packet]:
        """Synthesize a whole burst of packets through the batched engine.

        The eager counterpart of :meth:`client_packets` /
        :meth:`attacker_packets`: every AP's captures for the burst are
        generated in one :meth:`TestbedSimulator.capture_batch` call (cached
        ray tracing, stacked channel/receiver arithmetic) instead of one
        call per packet.  Captures do not depend on how requests are
        batched, so the returned packets are byte-identical to draining the
        matching generator.

        Pass ``client_id`` for legitimate uplink traffic, or ``attacker``
        (the spec attacker's name) plus ``victim_address`` for a spoofed
        burst.  Feed the result straight to :meth:`run_batch` for an
        end-to-end batch-fast pass.
        """
        if (client_id is None) == (attacker is None):
            raise ValueError("provide exactly one of client_id or attacker")
        if num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        if attacker is not None and victim_address is None:
            raise ValueError("attacker traffic needs a victim_address")
        metadata, burst = self._burst(client_id, attacker, victim_address,
                                      num_packets, inter_packet_gap_s, start_s,
                                      payload, source)
        return self._synthesize(metadata, list(burst))

    def train(self, address: MacAddress, client_id: int,
              num_packets: Optional[int] = None, inter_packet_gap_s: float = 0.5,
              start_s: float = 0.0, ap_name: Optional[str] = None) -> AoASignature:
        """Train an AP's certified signature for ``address`` from client packets.

        The training burst (frameless packets at the client's position) is
        synthesised in one :meth:`TestbedSimulator.capture_batch` call.
        """
        ap = self.ap(ap_name)
        simulator = self.simulator(ap_name)
        if num_packets is None:
            num_packets = ap.config.training_packets
        position = self.environment.client_position(client_id)
        requests = [
            CaptureRequest(position=position,
                           elapsed_s=start_s + index * inter_packet_gap_s,
                           timestamp_s=start_s + index * inter_packet_gap_s,
                           metadata={"client_id": client_id})
            for index in range(num_packets)
        ]
        return ap.train_client(address, simulator.capture_batch(requests))

    def _burst(self, client_id: Optional[int], attacker_name: Optional[str],
               victim_address: Optional[MacAddress], num_packets: int,
               inter_packet_gap_s: float, start_s: float,
               payload: bytes = b"uplink", source: Optional[MacAddress] = None,
               ) -> Tuple[Dict[str, object], Iterator[BurstItem]]:
        """Packet metadata plus a lazy (frame, capture request) pair per packet.

        A client burst when ``client_id`` is given, else a spoofed burst from
        the named attacker.  Client frames are minted as the iterator
        advances, so a generator abandoned early mints no further sequence
        numbers.
        """
        def timestamp(index: int) -> float:
            return start_s + index * inter_packet_gap_s

        if client_id is None:
            attacker = self.attackers[attacker_name]
            attack = SpoofingAttack(attacker=attacker, victim_address=victim_address,
                                    ap_address=self.ap_address, num_frames=num_packets)

            def spoofed() -> Iterator[BurstItem]:
                for index, frame in enumerate(attack.iter_frames()):
                    yield frame, CaptureRequest(
                        position=attacker.transmit_position(index), frame=frame,
                        tx_power_dbm=attacker.tx_power_dbm,
                        elapsed_s=timestamp(index), timestamp_s=timestamp(index),
                        attacker=attacker)

            return {"attacker": attacker.name}, spoofed()

        client = self.clients[client_id]
        position = self.environment.client_position(client_id)

        def uplink() -> Iterator[BurstItem]:
            for index in range(num_packets):
                if source is None:
                    frame = client.make_frame(self.ap_address, payload=payload)
                else:
                    frame = Dot11Frame(source=source, destination=self.ap_address,
                                       sequence_number=index, payload=payload)
                yield frame, CaptureRequest(
                    position=position, frame=frame,
                    tx_power_dbm=client.tx_power_dbm, elapsed_s=timestamp(index),
                    timestamp_s=timestamp(index), metadata={"client_id": client_id})

        return {"client_id": client_id}, uplink()

    def capture(self, requests: Sequence[CaptureRequest]
                ) -> Dict[str, List[Capture]]:
        """Transmit each requested packet once and capture it at every AP.

        The primary AP's simulator transmits the packets
        (:meth:`TestbedSimulator.transmit`: payload bits, modulation, attacker
        waveform shaping), and every AP's simulator, the primary's included,
        receives those same waveforms through its own paths, fading, phase
        walks and noise in one :meth:`TestbedSimulator.capture_batch` call.
        Returns each AP's captures in request order, keyed by AP name.
        """
        requests = list(requests)
        waveforms = self.simulator().transmit(requests)
        return {
            name: simulator.capture_batch(requests, waveforms=waveforms)
            for name, simulator in self.simulators.items()
        }

    def _synthesize(self, metadata: Dict[str, object],
                    burst: List[BurstItem]) -> List[Packet]:
        """The burst's packets, each transmitted once and captured by every AP."""
        captures_by_ap = self.capture([request for _, request in burst])
        return [
            Packet(frame=frame,
                   captures={name: captures[index]
                             for name, captures in captures_by_ap.items()},
                   timestamp_s=request.elapsed_s, metadata=dict(metadata))
            for index, (frame, request) in enumerate(burst)
        ]

    # ------------------------------------------------------------------ running
    def process(self, packets: Iterable[Packet], *, mode: str = "stream",
                primary_ap: Optional[str] = None,
                update_signatures: bool = True) -> Iterator[PacketEvent]:
        """The one documented packet-processing contract (event schema v1).

        Consumes :class:`Packet` records and yields one v1
        :class:`PacketEvent` per packet, in arrival order.  The primary AP
        (``primary_ap``, default: the first AP holding a capture of each
        packet) runs the ACL and spoofing checks and, when
        ``update_signatures`` is on, tracks matching signatures;
        localisation and the fence use every capture.

        ``mode`` selects the execution strategy — never the outcome:

        * ``"stream"`` — one engine call per packet across all of its APs,
          yielded lazily as packets arrive; each event's
          :attr:`~PacketEvent.packet_latency_s` is that packet's own
          measured analysis time (:attr:`~PacketEvent.batch_latency_s` is
          ``None``).
        * ``"batch"`` — the whole iterable is drained first and every
          capture of the batch, across all APs, goes through one engine
          call; each event's :attr:`~PacketEvent.batch_latency_s` is the
          batch mean (total wall-clock over the batch divided by its size;
          :attr:`~PacketEvent.packet_latency_s` is ``None``).

        APs whose estimators would not give bit-identical results are
        analysed in separate calls (see
        :meth:`~repro.core.controller.SecureAngleController.analyze_batch`).
        Per-packet policy runs in arrival order in both modes, and the
        scalar and batched AoA paths share their kernels, so decisions,
        bearings, locations, and fence verdicts are bit-identical between
        modes (and across any batch partitioning) — only the latency fields
        and laziness differ.

        :meth:`run_batch` is the v0 spelling of the batch mode, kept as a
        shim over this contract.
        """
        if mode == "stream":
            return self._process_stream(packets, primary_ap, update_signatures)
        if mode == "batch":
            return iter(self._process_batch(packets, primary_ap,
                                            update_signatures))
        raise ValueError(f"unknown processing mode {mode!r}; "
                         "expected 'stream' or 'batch'")

    def run_batch(self, packets: Iterable[Packet],
                  primary_ap: Optional[str] = None,
                  update_signatures: bool = True) -> List[PacketEvent]:
        """Process a whole batch through the batched AoA engine (v0 spelling).

        Shim over :meth:`process` with ``mode="batch"`` — see there for the
        full contract — returning the events as a list.
        """
        return self._process_batch(packets, primary_ap, update_signatures)

    def _process_stream(self, packets: Iterable[Packet],
                        primary_ap: Optional[str],
                        update_signatures: bool) -> Iterator[PacketEvent]:
        for index, packet in enumerate(packets):
            start = time.perf_counter()
            estimates = self._analyze([packet])[0]
            primary = self._primary_name(packet, primary_ap)
            observation = signatures_from_pseudospectra(
                [estimates[primary].pseudospectrum],
                captured_at_s=[packet.captures[primary].timestamp_s])[0]
            event = self._event(index, packet, primary, estimates, observation,
                                update_signatures)
            yield replace(event,
                          packet_latency_s=time.perf_counter() - start)

    def _process_batch(self, packets: Iterable[Packet],
                       primary_ap: Optional[str],
                       update_signatures: bool) -> List[PacketEvent]:
        packets = list(packets)
        if not packets:
            return []
        start = time.perf_counter()
        estimates = self._analyze(packets)
        primaries = [self._primary_name(packet, primary_ap) for packet in packets]
        observations = signatures_from_pseudospectra(
            [estimates[index][primary].pseudospectrum
             for index, primary in enumerate(primaries)],
            captured_at_s=[packet.captures[primary].timestamp_s
                           for packet, primary in zip(packets, primaries)])
        events = [
            self._event(index, packet, primary, estimates[index], observation,
                        update_signatures)
            for index, (packet, primary, observation)
            in enumerate(zip(packets, primaries, observations))
        ]
        latency = (time.perf_counter() - start) / len(packets)
        return [replace(event, batch_latency_s=latency) for event in events]

    # ---------------------------------------------------------------- internals
    def _analyze(self, packets: List[Packet]) -> List[Dict[str, AoAEstimate]]:
        """Every capture's estimate, one engine call per analysis group."""
        for packet in packets:
            for name in packet.captures:
                self.ap(name)  # unknown names raise with the known list
        return self.controller.analyze_batch([packet.captures for packet in packets])

    def _primary_name(self, packet: Packet, primary_ap: Optional[str]) -> str:
        if primary_ap is not None:
            if primary_ap not in packet.captures:
                raise ValueError(
                    f"no capture supplied for primary AP {primary_ap!r}")
            return primary_ap
        return next(iter(packet.captures))

    def _event(self, index: int, packet: Packet, primary: str,
               estimates: Mapping[str, AoAEstimate], observation: AoASignature,
               update_signatures: bool) -> PacketEvent:
        ap = self.ap(primary)
        source = packet.frame.source
        check = ap.check_packet(source, observation,
                                packet.captures[primary].timestamp_s,
                                update_signature=update_signatures)

        bearings: Dict[str, float] = {}
        triangulation: List[BearingObservation] = []
        for name, estimate in estimates.items():
            observer = self.aps[name]
            if observer.array.ambiguous:
                # Linear arrays report broadside angles and cannot contribute
                # an unambiguous global bearing (footnote 1 of the paper).
                # Unlike SecureAngleAP.bearing_observations — which raises —
                # the session reports the local bearing and simply leaves the
                # AP out of triangulation, so mixed-array deployments stream.
                bearings[name] = estimate.bearing_deg
                continue
            global_bearing = observer.bearing_observation_from(estimate)
            bearings[name] = global_bearing.bearing_deg
            triangulation.append(global_bearing)

        location: Optional[LocationEstimate] = None
        fence_check: Optional[FenceCheck] = None
        if len(triangulation) >= 2:
            if self.fence is not None:
                fence_check = self.fence.check_bearings(triangulation)
                location = fence_check.location
            else:
                try:
                    location = triangulate_bearings(triangulation)
                except ValueError:
                    location = None

        # The evidence combination itself lives in SecureAngleAP.decide,
        # shared with the AP and controller packet paths.
        decision = ap.decide(source, observation, check,
                             fence=self.fence, fence_check=fence_check)
        return PacketEvent(
            index=index,
            timestamp_s=packet.timestamp_s,
            source=source,
            decision=decision,
            bearings_deg=bearings,
            location=location,
            fence=fence_check,
            metadata=dict(packet.metadata),
        )

    def __repr__(self) -> str:
        return (f"Deployment({self.spec.name!r}, {len(self.aps)} AP(s), "
                f"environment={self.environment.name!r}, "
                f"fence={'on' if self.fence is not None else 'off'})")
