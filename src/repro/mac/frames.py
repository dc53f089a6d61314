"""Minimal 802.11 frame model.

SecureAngle does not change the MAC protocol; it only needs to know, per
received packet, the claimed transmitter address (and whether the frame is
data or management) so it can look up and verify the stored AoA signature.
``Dot11Frame`` models exactly that subset of the 802.11 header, plus a payload
and a simple bit serialisation so PHY packets can carry real frame bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from repro.mac.address import MacAddress


class FrameType(enum.Enum):
    """The 802.11 frame classes relevant to the applications."""

    DATA = "data"
    MANAGEMENT = "management"
    CONTROL = "control"


@dataclass(frozen=True)
class Dot11Frame:
    """A simplified 802.11 frame.

    Parameters
    ----------
    source / destination:
        Transmitter and receiver MAC addresses (address 2 and address 1 of a
        data frame heading to the distribution system).
    frame_type:
        Data, management, or control.
    sequence_number:
        12-bit MAC sequence number.
    payload:
        Raw payload bytes (contents are irrelevant to SecureAngle).
    """

    source: MacAddress
    destination: MacAddress
    frame_type: FrameType = FrameType.DATA
    sequence_number: int = 0
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.source, MacAddress) or not isinstance(self.destination, MacAddress):
            raise TypeError("source and destination must be MacAddress instances")
        if not isinstance(self.frame_type, FrameType):
            raise TypeError("frame_type must be a FrameType")
        if not 0 <= self.sequence_number < 4096:
            raise ValueError(f"sequence_number must fit in 12 bits, got {self.sequence_number}")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise TypeError("payload must be bytes")
        object.__setattr__(self, "payload", bytes(self.payload))

    def to_bytes(self) -> bytes:
        """Serialise the frame header and payload to bytes.

        Layout: 1 byte frame type, 2 bytes sequence number, 6 bytes destination,
        6 bytes source, 2 bytes payload length, payload.  This is not the exact
        802.11 wire format (which the experiments do not need) but is a stable,
        invertible encoding carrying the same identity information.
        """
        type_code = {FrameType.DATA: 0, FrameType.MANAGEMENT: 1,
                     FrameType.CONTROL: 2}[self.frame_type]
        header = bytes([type_code])
        header += self.sequence_number.to_bytes(2, "big")
        header += self.destination.to_bytes()
        header += self.source.to_bytes()
        header += len(self.payload).to_bytes(2, "big")
        return header + self.payload

    @staticmethod
    def from_bytes(blob: bytes) -> "Dot11Frame":
        """Parse a frame serialised by :meth:`to_bytes`."""
        if len(blob) < 17:
            raise ValueError(f"frame too short: {len(blob)} bytes")
        type_code = blob[0]
        frame_type = {0: FrameType.DATA, 1: FrameType.MANAGEMENT,
                      2: FrameType.CONTROL}.get(type_code)
        if frame_type is None:
            raise ValueError(f"unknown frame type code {type_code}")
        sequence = int.from_bytes(blob[1:3], "big")
        destination = MacAddress.from_bytes(blob[3:9])
        source = MacAddress.from_bytes(blob[9:15])
        payload_length = int.from_bytes(blob[15:17], "big")
        payload = blob[17:17 + payload_length]
        if len(payload) != payload_length:
            raise ValueError("frame payload truncated")
        return Dot11Frame(source=source, destination=destination, frame_type=frame_type,
                          sequence_number=sequence, payload=payload)

    def to_bits(self) -> np.ndarray:
        """Return the serialised frame as a 0/1 bit array (MSB first)."""
        data = self.to_bytes()
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        return bits.astype(int)

    def spoofed_by(self, claimed_source: MacAddress) -> "Dot11Frame":
        """Return a copy of the frame whose source address is ``claimed_source``.

        This is what a spoofing attacker transmits: the legitimate client's
        address on the attacker's own packets.
        """
        return replace(self, source=claimed_source)
