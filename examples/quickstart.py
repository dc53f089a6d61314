#!/usr/bin/env python3
"""Quickstart: the unified scenario & deployment API in fifteen lines.

A SecureAngle deployment is described declaratively by a ``ScenarioSpec``
(fully serialisable to JSON), compiled by ``Deployment``, and driven by
streaming packets through ``Deployment.process``:

1. the default spec wires the Figure 4 office with one 8-antenna circular AP,
2. compilation builds the simulator, calibrates the receiver (Section 2.2),
   and stands up the estimator + policy pipeline,
3. a client trains its certified AoA signature, keeps transmitting, and every
   packet comes back as a structured event (decision, bearing, latency).

Run with:  python examples/quickstart.py
"""

from repro.api import Deployment, ScenarioSpec


def main() -> None:
    # The 15-line spec -> run() flow. Every knob below is optional; the spec
    # also round-trips through JSON (ScenarioSpec.from_json(spec.to_json())).
    spec = ScenarioSpec(name="quickstart", environment="figure4", seed=42)
    deployment = Deployment(spec)
    print(f"deployment: {deployment}")
    print(f"spec JSON is {len(spec.to_json())} bytes\n")

    client_id = 7
    address = deployment.clients[client_id].address
    signature = deployment.train(address, client_id)
    print(f"trained {address}: direct path at "
          f"{signature.direct_path_bearing_deg:.1f} deg, "
          f"{len(signature.multipath_bearings_deg)} reflection peak(s)")

    truth = deployment.expected_bearing(client_id)
    print(f"ground-truth bearing: {truth:.1f} deg\n")
    for event in deployment.process(
            deployment.client_packets(client_id, num_packets=5, start_s=60.0)):
        bearing = event.bearings_deg[deployment.primary_ap_name]
        print(f"  packet {event.index}: verdict={event.verdict:<7}"
              f" bearing={bearing:6.1f} deg"
              f" similarity={event.decision.similarity:.2f}"
              f" latency={event.decision_latency_s * 1e3:5.1f} ms")

    # The pseudospectrum of one more packet, as a coarse ASCII rendering so
    # the peak structure is visible without matplotlib.
    estimate = deployment.ap().analyze(
        deployment.simulator().capture_from_client(client_id))
    spectrum = estimate.pseudospectrum
    db = spectrum.to_db(floor_db=-20.0)
    print("\npseudospectrum (each row = 10 degrees, bar length = relative power):")
    for start in range(0, 360, 10):
        mask = (spectrum.angles_deg >= start) & (spectrum.angles_deg < start + 10)
        level = float(db[mask].max())
        bar = "#" * int((level + 20.0) * 2)
        print(f"  {start:3d}-{start + 10:3d} deg | {bar}")


if __name__ == "__main__":
    main()
