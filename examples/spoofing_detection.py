#!/usr/bin/env python3
"""Address-spoofing detection demo (Section 2.3.2).

A legitimate client trains its AoA signature with the access point; an
attacker elsewhere in the building then injects frames spoofing the client's
MAC address.  The access point checks every packet's signature against the
certified one and drops the attacker's frames while continuing to accept (and
track) the legitimate client's.

Run with:  python examples/spoofing_detection.py
"""

from repro.api import AccessPointSpec, ArraySpec, AttackerSpec, Deployment, ScenarioSpec
from repro.mac.address import MacAddress


def main() -> None:
    # One AP plus an indoor attacker at client 9's position, as one spec; the
    # traffic itself streams through Deployment.process, one event per packet.
    spec = ScenarioSpec(
        name="spoofing-demo",
        seed=11,
        access_points=(AccessPointSpec(name="office-ap",
                                       array=ArraySpec("octagon")),),
        attackers=(AttackerSpec(type="omnidirectional", at_client=9,
                                name="attacker-at-client-9"),),
    )
    deployment = Deployment(spec)
    ap = deployment.ap()
    victim_address = MacAddress("02:00:00:00:00:05")

    # --- training: ten uplink packets from the legitimate client (client 5) ---
    signature = deployment.train(victim_address, client_id=5)
    print(f"trained signature for {victim_address}: "
          f"direct path at {signature.direct_path_bearing_deg:.1f} deg, "
          f"{len(signature.multipath_bearings_deg)} reflection peaks")

    # --- the legitimate client keeps sending under its trained address ---
    print("\nlegitimate client traffic:")
    legitimate = deployment.client_packets(5, num_packets=5,
                                           inter_packet_gap_s=10.0,
                                           start_s=60.0, source=victim_address)
    for event in deployment.process(legitimate):
        print(f"  packet {event.index}: verdict={event.verdict:<6} "
              f"similarity={event.decision.similarity:.2f} "
              f"bearing={event.decision.bearing_deg:.1f} deg")

    # --- the attacker injects frames with the victim's address ---
    attacker = deployment.attackers["attacker-at-client-9"]
    print(f"\nattacker at {attacker.position.as_tuple()} spoofing {victim_address}:")
    spoofed = deployment.attacker_packets("attacker-at-client-9", victim_address,
                                          num_packets=5, inter_packet_gap_s=10.0,
                                          start_s=200.0)
    for event in deployment.process(spoofed):
        print(f"  spoofed packet {event.index}: verdict={event.verdict:<6} "
              f"similarity={event.decision.similarity:.2f} "
              f"bearing={event.decision.bearing_deg:.1f} deg")
        for reason in event.decision.reasons:
            print(f"      reason: {reason}")

    record = ap.database.require(victim_address)
    print(f"\nanomalies flagged against {victim_address}: {record.anomalies_flagged}")


if __name__ == "__main__":
    main()
