"""Packet ingest: the wire request schema and the shared synthesis path.

Network clients cannot ship raw multi-antenna CSI captures as JSON lines, so
the service ingests *packet requests* — small declarative records saying
"client 7 transmits at t=60.0s" or "attacker `directional` spoofs client 5
at t=200.5s" — and synthesizes the physical packet server-side through the
deployment's own traffic generators: the frame, transmitted once, plus every
AP's capture of that one waveform.

The one rule that makes the whole service verifiable: **live and offline
paths share these functions.**  :func:`synthesize_packet` is called by the
live tenant worker per micro-batch, and :func:`replay_events` — the offline
reference — calls it over the identical request list in the identical order.
Because each capture's randomness is keyed by its capture ordinal, which
the simulators assign in request order, and decisions are batch-partition
invariant (``tests/test_synthesis_batch_equivalence.py``), the streamed
events are byte-identical to the offline replay no matter how the
micro-batcher happened to chop the arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.api.deployment import Deployment
from repro.api.events import Packet, PacketEvent
from repro.mac.address import MacAddress
from repro.utils.serde import JsonSerializable
from repro.utils.validation import require_finite_non_negative

__all__ = ["PacketRequest", "check_request", "replay_events", "synthesize_packet"]


@dataclass(frozen=True)
class PacketRequest(JsonSerializable):
    """One packet's worth of ingest: who transmits, when, claiming what.

    Exactly one of ``client_id`` (legitimate uplink) or ``attacker`` (a
    spoofed transmission from the scenario's named attacker) must be set.
    An attacker request also names ``victim_client_id`` — the client whose
    trained address the attacker claims.  ``source`` optionally overrides a
    client frame's claimed source address (the client-side spoofing case).
    ``timestamp_s`` must be finite and non-negative, so a bad request is
    refused at submission instead of failing later on the tenant worker.
    """

    client_id: Optional[int] = None
    attacker: Optional[str] = None
    victim_client_id: Optional[int] = None
    timestamp_s: float = 0.0
    source: Optional[MacAddress] = None

    def __post_init__(self) -> None:
        if (self.client_id is None) == (self.attacker is None):
            raise ValueError(
                "a PacketRequest names exactly one of client_id or attacker")
        if self.attacker is not None and self.victim_client_id is None:
            raise ValueError("an attacker request needs victim_client_id")
        require_finite_non_negative(self.timestamp_s, "timestamp_s")


def check_request(deployment: Deployment, request: PacketRequest) -> None:
    """Reject a request naming a client or attacker the scenario lacks.

    Run at submission: :func:`synthesize_packet` runs later on the tenant
    worker, where the lookup failure would stop the worker for good.
    """
    if request.attacker is not None and request.attacker not in deployment.attackers:
        raise ValueError(f"unknown attacker {request.attacker!r}; "
                         f"known: {sorted(deployment.attackers)}")
    for field_name in ("client_id", "victim_client_id"):
        client_id = getattr(request, field_name)
        if client_id is not None and client_id not in deployment.clients:
            raise ValueError(f"unknown {field_name} {client_id!r}; "
                             f"known: {sorted(deployment.clients)}")


def synthesize_packet(deployment: Deployment,
                      request: PacketRequest) -> Packet:
    """Synthesize the physical packet a request describes.

    Takes capture ordinals exactly as the offline traffic generators do —
    byte identity between live and replayed events depends on calling this
    over the same requests in the same order.
    """
    if request.attacker is not None:
        victim_id = request.victim_client_id
        assert victim_id is not None  # enforced by __post_init__
        victim = deployment.clients[victim_id].address
        return next(deployment.attacker_packets(
            request.attacker, victim, num_packets=1,
            start_s=request.timestamp_s))
    client_id = request.client_id
    assert client_id is not None  # enforced by __post_init__
    return next(deployment.client_packets(
        client_id, num_packets=1, start_s=request.timestamp_s,
        source=request.source))


def replay_events(deployment: Deployment, requests: Iterable[PacketRequest],
                  *, primary_ap: Optional[str] = None,
                  update_signatures: bool = True) -> List[PacketEvent]:
    """The offline reference: replay a request log through one big batch.

    Returns the events the live service must match byte-for-byte (after
    stripping the volatile latency fields): same synthesis functions, same
    request order, same per-packet policy — with each event's ``index``
    renumbered to the request's position in the log, exactly as the live
    path stamps its per-tenant submission sequence numbers.
    """
    packets = [synthesize_packet(deployment, request) for request in requests]
    events = deployment.run_batch(packets, primary_ap=primary_ap,
                                  update_signatures=update_signatures)
    return [replace(event, index=seq) for seq, event in enumerate(events)]
