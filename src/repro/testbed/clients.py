"""Soekris-like wireless clients.

The prototype's transmitters are Soekris boxes sending ordinary 802.11
traffic.  A client here is simply a transmitter at a known position with a
MAC address and transmit power; it can mint uplink data frames addressed to
the access point, which the scenario layer turns into over-the-air captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame, FrameType
from repro.testbed.environment import TestbedEnvironment
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SoekrisClient:
    """One wireless client of the testbed."""

    client_id: int
    position: Point
    address: MacAddress
    tx_power_dbm: float = 15.0
    _next_sequence: int = field(default=0, repr=False)

    def make_frame(self, ap_address: MacAddress, payload: bytes = b"uplink") -> Dot11Frame:
        """Mint the next uplink data frame towards the access point."""
        frame = Dot11Frame(
            source=self.address,
            destination=ap_address,
            frame_type=FrameType.DATA,
            sequence_number=self._next_sequence,
            payload=payload,
        )
        self._next_sequence = (self._next_sequence + 1) % 4096
        return frame

    def moved_to(self, position: Point) -> "SoekrisClient":
        """Return a copy of the client at a new position (mobility scenarios)."""
        return SoekrisClient(client_id=self.client_id, position=position,
                             address=self.address, tx_power_dbm=self.tx_power_dbm)


def make_clients(environment: TestbedEnvironment, tx_power_dbm: float = 15.0,
                 rng: RngLike = 7) -> Dict[int, SoekrisClient]:
    """Create one client per numbered position in the environment.

    MAC addresses are drawn deterministically from ``rng`` so experiments and
    tests see the same addresses run after run.
    """
    generator = ensure_rng(rng)
    clients: Dict[int, SoekrisClient] = {}
    for client_id in environment.client_ids:
        clients[client_id] = SoekrisClient(
            client_id=client_id,
            position=environment.client_position(client_id),
            address=MacAddress.random(generator),
            tx_power_dbm=tx_power_dbm,
        )
    return clients
