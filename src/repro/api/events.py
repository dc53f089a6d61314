"""The versioned packet-event schema — the public API's v1 wire contract.

Everything a deployment emits per packet is one :class:`PacketEvent`.  Until
the streaming service existed the event only ever lived in-process, so its
shape was whatever :mod:`repro.api.deployment` happened to build.  Serving
events to network clients forces a real contract, so v1 pins one:

* **Versioned** — every event carries ``schema_version`` (currently
  :data:`EVENT_SCHEMA_VERSION`); decoding a document from a newer schema
  fails loudly instead of misreading fields.
* **JSON-round-trippable** — :class:`PacketEvent` is serde-based
  (:class:`~repro.utils.serde.JsonSerializable`): ``to_dict``/``to_json``
  lower every nested dataclass and enum to JSON primitives, and
  ``from_dict``/``from_json`` rebuild the full typed tree (decision,
  spoofing/fence verdicts, triangulated location).
* **Unambiguous latency** — two explicit fields:
  :attr:`PacketEvent.packet_latency_s` (individually measured; ``None`` when
  the packet was decided inside a batch) and
  :attr:`PacketEvent.batch_latency_s` (the mean per-packet share of the
  enclosing batch's wall-clock; ``None`` when streamed alone).  Exactly one
  is set by the deployment paths; code wanting "the attributed latency
  whichever path ran" reads :attr:`PacketEvent.decision_latency_s`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.fence import FenceCheck
from repro.core.localization import LocationEstimate
from repro.core.policy import PacketDecision
from repro.hardware.capture import Capture
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.utils.serde import JsonSerializable

__all__ = ["EVENT_SCHEMA_VERSION", "Packet", "PacketEvent"]

#: The current event schema version.  Bump when a field changes meaning or
#: shape; decoding a document with any other version raises ``ValueError``.
EVENT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Packet:
    """One over-the-air packet: the claimed frame plus per-AP captures."""

    frame: Dot11Frame
    #: AP name -> that AP's capture of this packet.
    captures: Mapping[str, Capture]
    timestamp_s: float = 0.0
    #: Free-form annotations (client id, ground-truth position, ...).
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.captures:
            raise ValueError("a packet needs at least one capture")


@dataclass(frozen=True)
class PacketEvent(JsonSerializable):
    """The structured outcome of processing one packet (schema v1)."""

    index: int
    timestamp_s: float
    source: MacAddress
    #: The combined accept/drop/flag decision with its evidence.
    decision: PacketDecision
    #: Global-frame bearing per AP (local broadside angle for linear arrays).
    bearings_deg: Dict[str, float]
    #: Triangulated position (``None`` with fewer than two unambiguous APs).
    location: Optional[LocationEstimate]
    #: Virtual-fence outcome (``None`` when no fence applies).
    fence: Optional[FenceCheck]
    #: Wall-clock analysis time measured for THIS packet alone.  Set by the
    #: streaming path (``mode="stream"`` of :meth:`Deployment.process`); ``None``
    #: when the packet was decided inside a batch, where per-packet time is
    #: not individually measurable.
    packet_latency_s: Optional[float] = None
    #: Mean per-packet share of the enclosing batch's wall-clock (total batch
    #: time divided by batch size).  Set by the batched path
    #: (``mode="batch"`` / :meth:`Deployment.run_batch`); ``None`` when the
    #: packet was streamed alone.
    batch_latency_s: Optional[float] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Event schema version; see :data:`EVENT_SCHEMA_VERSION`.
    schema_version: int = EVENT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported PacketEvent schema_version "
                f"{self.schema_version!r}; this build speaks version "
                f"{EVENT_SCHEMA_VERSION}")

    @property
    def accepted(self) -> bool:
        """True when the frame was delivered to the network."""
        return self.decision.accepted

    @property
    def verdict(self) -> str:
        """The decision verdict as a string (``accept``/``drop``/``flag``)."""
        return self.decision.verdict.value

    @property
    def decision_latency_s(self) -> float:
        """The attributed per-packet latency, whichever path decided it.

        ``packet_latency_s`` when individually measured, else
        ``batch_latency_s``; either way ``1 / mean(decision_latency_s)`` is
        the pipeline's packets-per-second throughput for the run.
        """
        if self.packet_latency_s is not None:
            return self.packet_latency_s
        return 0.0 if self.batch_latency_s is None else self.batch_latency_s
