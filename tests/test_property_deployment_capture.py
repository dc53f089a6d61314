"""Property: a deployment's capture equals each AP's own batch, for any request list.

:meth:`Deployment.capture` transmits each requested packet once and
synthesises every (AP, packet) row of the request list in one pass.  For
random request lists it must give, byte for byte, what each AP's
stand-alone :meth:`TestbedSimulator.capture_batch` gives for the same
requests and the primary AP's transmitted waveforms, on a twin deployment
of the same spec and seed; and it must not depend on how the request list
is split into ``capture`` calls.

Drawn: one to three APs (octagons, or a four-element linear array so antenna
counts differ between APs), client and attacker packets (attacker paths are
shaped, and path counts differ between transmitters and between APs), at
most one oversized frame (a second waveform length), receiver noise on or
off, and the cut points of a partition.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import Deployment  # noqa: E402
from repro.api.scenarios import THREE_AP_LAYOUT  # noqa: E402
from repro.api.spec import (  # noqa: E402
    AccessPointSpec,
    ArraySpec,
    AttackerSpec,
    ScenarioSpec,
)
from repro.mac.frames import Dot11Frame  # noqa: E402
from repro.testbed.scenario import CaptureRequest  # noqa: E402

ARRAYS = {"octagon": ArraySpec(geometry="octagon"),
          "linear-4": ArraySpec(geometry="linear", num_elements=4)}
ATTACKERS = (
    AttackerSpec(type="directional", outdoor="street-east", aim_ap="ap-main",
                 name="directional"),
    AttackerSpec(type="reflector", at_client=9, name="mirror",
                 mirror_bearing_deg=135.0, mirror_gain_db=15.0),
    AttackerSpec(type="replay", outdoor="street-east", name="replay",
                 recording_snr_db=15.0),
)
TRANSMITTERS = tuple(range(1, 21)) + tuple(spec.name for spec in ATTACKERS)


@st.composite
def cases(draw):
    arrays = draw(st.lists(st.sampled_from(sorted(ARRAYS)), min_size=1, max_size=3))
    packets = draw(st.lists(
        st.tuples(st.sampled_from(TRANSMITTERS), st.integers(0, 120)),
        min_size=1, max_size=6))
    oversized = draw(st.one_of(st.none(), st.integers(0, len(packets) - 1)))
    cuts = draw(st.sets(st.integers(1, len(packets) - 1), max_size=3)
                if len(packets) > 1 else st.just(set()))
    return {"arrays": arrays, "add_noise": draw(st.booleans()),
            "packets": packets, "oversized": oversized, "cuts": sorted(cuts)}


def _spec(case) -> ScenarioSpec:
    spec = ScenarioSpec(
        name="capture-property", seed=11,
        access_points=tuple(
            AccessPointSpec(name=name, position=position,
                            array=ARRAYS[array], rng_stream=index)
            for index, ((name, position), array)
            in enumerate(zip(THREE_AP_LAYOUT, case["arrays"]))),
        attackers=ATTACKERS)
    receiver = replace(spec.simulator.receiver, add_noise=case["add_noise"])
    return replace(spec, simulator=replace(spec.simulator, receiver=receiver))


def _requests(deployment, case):
    requests = []
    for index, (transmitter, half_seconds) in enumerate(case["packets"]):
        elapsed_s = 0.5 * half_seconds
        payload = b"x" * 2000 if index == case["oversized"] else b"uplink"
        if isinstance(transmitter, int):
            client = deployment.clients[transmitter]
            frame = Dot11Frame(source=client.address,
                               destination=deployment.ap_address,
                               sequence_number=index, payload=payload)
            requests.append(CaptureRequest(
                position=deployment.environment.client_position(transmitter),
                frame=frame, tx_power_dbm=client.tx_power_dbm,
                elapsed_s=elapsed_s, metadata={"client_id": transmitter}))
        else:
            attacker = deployment.attackers[transmitter]
            frame = Dot11Frame(source=deployment.clients[5].address,
                               destination=deployment.ap_address,
                               sequence_number=index, payload=payload)
            requests.append(CaptureRequest(
                position=attacker.position, frame=frame,
                tx_power_dbm=attacker.tx_power_dbm, elapsed_s=elapsed_s,
                attacker=attacker))
    return requests


def _same(a, b) -> bool:
    return (a.samples.dtype == b.samples.dtype and a.samples.shape == b.samples.shape
            and a.samples.tobytes() == b.samples.tobytes()
            and a.timestamp_s == b.timestamp_s and a.metadata == b.metadata
            and a.sample_rate_hz == b.sample_rate_hz)


def _assert_same(got, want):
    assert list(got) == list(want)
    for name in want:
        assert len(got[name]) == len(want[name])
        assert all(_same(a, b) for a, b in zip(got[name], want[name])), name


@given(cases())
def test_capture_equals_each_ap_alone_and_any_partition(case):
    spec = _spec(case)
    deployment = Deployment(spec)
    requests = _requests(deployment, case)
    shared = deployment.capture(requests)
    if case["oversized"] is not None and len(requests) > 1:
        sizes = {capture.samples.shape[-1] for capture in shared["ap-main"]}
        assert len(sizes) == 2

    twin = Deployment(spec)
    twin_requests = _requests(twin, case)
    waveforms = twin.simulator().transmit(twin_requests)
    alone = {name: simulator.capture_batch(twin_requests, waveforms=waveforms)
             for name, simulator in twin.simulators.items()}
    _assert_same(shared, alone)

    split = Deployment(spec)
    split_requests = _requests(split, case)
    bounds = [0, *case["cuts"], len(split_requests)]
    pieces = [split.capture(split_requests[start:stop])
              for start, stop in zip(bounds, bounds[1:])]
    _assert_same({name: [capture for piece in pieces for capture in piece[name]]
                  for name in split.simulators}, shared)


def test_the_drawn_space_mixes_antenna_counts_and_lengths():
    # The strategy can reach the cases the property is about.
    deployment = Deployment(_spec({"arrays": ["octagon", "linear-4"],
                                   "add_noise": False}))
    case = {"packets": [(3, 4), ("mirror", 10)], "oversized": 1}
    captures = deployment.capture(_requests(deployment, case))
    assert [capture.samples.shape[0] for capture in captures["ap-east"]] == [4, 4]
    assert len({capture.samples.shape[-1] for capture in captures["ap-main"]}) == 2
    assert np.isfinite(captures["ap-main"][1].samples).all()
