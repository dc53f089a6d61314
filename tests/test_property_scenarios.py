"""Property-based fuzzing of the scenario spec tree (hypothesis).

The declarative API's whole value is that *any* valid :class:`ScenarioSpec`
compiles and runs; hand-picked presets only cover a sliver of that space.
These tests generate random valid spec trees (single-AP and multi-AP, all
seven attack types, optional fences) and assert the contracts the rest of
the repo relies on:

* construction of a valid spec never raises, and the JSON round-trip is
  exact (``from_json(to_json()) == spec``);
* compiling a spec into a :class:`Deployment` never crashes;
* synthesised captures contain no NaN/Inf;
* decisions are bit-identical when the same spec+seed runs twice, and
  invariant across ``run`` / ``run_batch`` / ``process(mode=...)``;
* fence verdicts are consistent with the triangulated geometry.

Example budgets come from the hypothesis profiles registered in
``conftest.py`` (``HYPOTHESIS_PROFILE=ci|dev|thorough``); the cheap
structural tests pin their own larger budgets so every run fuzzes a few
hundred distinct specs.  ``TestFuzzerRegressions`` pins validation gaps the
fuzzer found — each was accepted at construction before being fixed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import Deployment  # noqa: E402
from repro.api.spec import (  # noqa: E402
    AccessPointSpec,
    ArraySpec,
    AttackerSpec,
    FenceSpec,
    ScenarioSpec,
)
from repro.core.fence import FenceDecision  # noqa: E402
from repro.testbed.environment import figure4_environment  # noqa: E402
from repro.testbed.scenario import SimulatorConfig  # noqa: E402

_ENVIRONMENT = figure4_environment()
CLIENT_IDS = sorted(_ENVIRONMENT.client_positions)
OUTDOOR_NAMES = sorted(_ENVIRONMENT.outdoor_positions)
_AP_POSITION = _ENVIRONMENT.ap_position

#: Every distinct valid spec JSON the structural tests generated, counted at
#: the end of the module — the fuzzing run must actually cover the space.
SEEN_SPEC_JSON: set = set()


# ------------------------------------------------------------------ strategies
def _coordinates() -> st.SearchStrategy:
    """Floor-plan coordinates, kept off the AP position (a transmitter at
    zero distance is physically meaningless, not a spec bug)."""
    return st.tuples(
        st.floats(min_value=-8.0, max_value=28.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=-4.0, max_value=18.0,
                  allow_nan=False, allow_infinity=False),
    ).filter(lambda xy: (xy[0] - _AP_POSITION.x) ** 2
             + (xy[1] - _AP_POSITION.y) ** 2 > 1.0)


def _db(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


@st.composite
def array_specs(draw) -> ArraySpec:
    geometry = draw(st.sampled_from(["octagon", "circular", "linear"]))
    if geometry == "octagon":
        return ArraySpec(geometry="octagon")
    num_elements = draw(st.integers(min_value=4, max_value=8))
    if geometry == "circular":
        return ArraySpec(geometry="circular", num_elements=num_elements,
                         radius_m=draw(_db(0.05, 0.5)))
    return ArraySpec(geometry="linear", num_elements=num_elements,
                     spacing_m=draw(_db(0.03, 0.12)))


@st.composite
def attacker_specs(draw, index: int = 0, ap_name: str = "ap-main") -> AttackerSpec:
    attack_type = draw(st.sampled_from([
        "omnidirectional", "directional", "array",
        "replay", "reflector", "swarm", "cfo_drift",
    ]))
    placement_kind = draw(st.sampled_from(["position", "at_client", "outdoor"]))
    placement: dict = {}
    if placement_kind == "position":
        placement["position"] = draw(_coordinates())
    elif placement_kind == "at_client":
        placement["at_client"] = draw(st.sampled_from(CLIENT_IDS))
    else:
        placement["outdoor"] = draw(st.sampled_from(OUTDOOR_NAMES))
    knobs: dict = {}
    if attack_type in ("directional", "array"):
        knobs["aim_ap"] = ap_name
        if draw(st.booleans()):
            knobs["beamwidth_deg"] = draw(_db(10.0, 120.0))
    elif attack_type == "replay":
        knobs["recording_snr_db"] = draw(_db(5.0, 40.0))
        knobs["playback_gain_db"] = draw(_db(-10.0, 10.0))
    elif attack_type == "reflector":
        if draw(st.booleans()):
            knobs["mirror_bearing_deg"] = draw(_db(0.0, 360.0))
        knobs["mirror_gain_db"] = draw(_db(0.0, 20.0))
        knobs["leak_suppression_db"] = draw(_db(0.0, 30.0))
    elif attack_type == "swarm":
        knobs["member_offsets"] = tuple(draw(st.lists(
            st.tuples(_db(-3.0, 3.0), _db(-3.0, 3.0)),
            min_size=1, max_size=3)))
    elif attack_type == "cfo_drift":
        knobs["cfo_start_hz"] = draw(_db(-2000.0, 2000.0))
        knobs["cfo_drift_hz_per_s"] = draw(_db(-500.0, 500.0))
    return AttackerSpec(type=attack_type, name=f"attacker-{index}",
                        tx_power_dbm=draw(_db(0.0, 25.0)),
                        **placement, **knobs)


@st.composite
def fence_specs(draw) -> FenceSpec:
    return FenceSpec(margin_m=draw(_db(0.1, 3.0)),
                     max_residual_m=draw(_db(0.5, 5.0)),
                     fail_open=draw(st.booleans()))


@st.composite
def scenario_specs(draw, max_attackers: int = 2) -> ScenarioSpec:
    """A random valid single-AP scenario (the capture-affordable shape)."""
    num_attackers = draw(st.integers(min_value=0, max_value=max_attackers))
    attackers = tuple(draw(attacker_specs(index=index))
                      for index in range(num_attackers))
    clients = draw(st.sets(st.sampled_from(CLIENT_IDS),
                           min_size=0, max_size=4))
    return ScenarioSpec(
        name=f"fuzz-{draw(st.integers(0, 10_000))}",
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        simulator=SimulatorConfig(payload_symbols=8),
        access_points=(AccessPointSpec(
            name="ap-main", array=draw(array_specs()), rng_stream=1),),
        clients=tuple(sorted(clients)),
        attackers=attackers,
        fence=draw(st.one_of(st.none(), fence_specs())),
    )


# ------------------------------------------------------------------ structural
class TestSpecStructure:
    @settings(max_examples=250, deadline=None)
    @given(spec=scenario_specs())
    def test_construction_succeeds_and_json_round_trip_is_exact(self, spec):
        text = spec.to_json()
        SEEN_SPEC_JSON.add(text)
        revived = ScenarioSpec.from_json(text)
        assert revived == spec
        # A second round trip is a fixed point (canonical form).
        assert revived.to_json() == text

    @settings(max_examples=100, deadline=None)
    @given(spec=scenario_specs(max_attackers=3))
    def test_compile_never_crashes(self, spec):
        SEEN_SPEC_JSON.add(spec.to_json())
        deployment = Deployment(spec, rng=spec.seed)
        assert set(deployment.aps) == {"ap-main"}
        attackers = deployment.attackers
        assert sorted(attackers) == sorted(
            attacker.effective_name() for attacker in spec.attackers)
        if spec.fence is not None:
            assert deployment.fence is not None
            assert deployment.fence.margin_m == spec.fence.margin_m


# ------------------------------------------------------------------- dynamics
def _strip_latency(event):
    """Latency fields are wall-clock measurements; everything else is the
    decision payload the invariants quantify over."""
    return replace(event, packet_latency_s=None, batch_latency_s=None)


def _synthesise_and_decide(spec: ScenarioSpec, mode: str):
    """Fresh deployment, a tiny traffic mix, decisions in ``mode``."""
    deployment = Deployment(spec, rng=spec.seed)
    victim_id = spec.clients[0] if spec.clients else CLIENT_IDS[0]
    victim_address = deployment.clients[victim_id].address
    packets = deployment.traffic(victim_id, num_packets=2)
    for index, name in enumerate(sorted(deployment.attackers)):
        packets.extend(deployment.traffic(
            attacker=name, victim_address=victim_address, num_packets=2,
            start_s=100.0 + 50.0 * index))
    events = list(deployment.process(iter(packets), mode=mode))
    return deployment, packets, events


class TestScenarioDynamics:
    @given(spec=scenario_specs())
    def test_captures_finite_decisions_deterministic_and_mode_invariant(
            self, spec):
        SEEN_SPEC_JSON.add(spec.to_json())
        _deployment, packets, stream_events = _synthesise_and_decide(
            spec, "stream")
        for packet in packets:
            for capture in packet.captures.values():
                assert np.all(np.isfinite(capture.samples.real))
                assert np.all(np.isfinite(capture.samples.imag))
        # Same spec + seed, fresh deployment: bit-identical decisions.
        _d2, _p2, repeat_events = _synthesise_and_decide(spec, "stream")
        assert ([_strip_latency(e).to_json() for e in stream_events]
                == [_strip_latency(e).to_json() for e in repeat_events])
        # mode="batch" (and the run/run_batch shims over it) only changes the
        # execution strategy, never the outcome.
        _d3, _p3, batch_events = _synthesise_and_decide(spec, "batch")
        assert ([_strip_latency(e).to_json() for e in stream_events]
                == [_strip_latency(e).to_json() for e in batch_events])

    @given(spec=scenario_specs(max_attackers=1))
    def test_run_and_run_batch_are_shims_over_process(self, spec):
        SEEN_SPEC_JSON.add(spec.to_json())
        deployment_a = Deployment(spec, rng=spec.seed)
        deployment_b = Deployment(spec, rng=spec.seed)
        client_id = spec.clients[0] if spec.clients else CLIENT_IDS[0]
        packets_a = deployment_a.traffic(client_id, num_packets=2)
        packets_b = deployment_b.traffic(client_id, num_packets=2)
        via_run = [_strip_latency(e).to_json()
                   for e in deployment_a.process(iter(packets_a))]
        via_run_batch = [_strip_latency(e).to_json()
                         for e in deployment_b.run_batch(packets_b)]
        assert via_run == via_run_batch


class TestFenceGeometryConsistency:
    @settings(deadline=None)
    @given(fence=fence_specs(),
           client_id=st.sampled_from(CLIENT_IDS),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fence_verdict_matches_triangulated_geometry(self, fence,
                                                         client_id, seed):
        from repro.api import three_ap_scenario

        spec = replace(three_ap_scenario(seed=seed), fence=fence,
                       simulator=SimulatorConfig(payload_symbols=8))
        deployment = Deployment(spec, rng=seed)
        packets = deployment.traffic(client_id, num_packets=1)
        (event,) = list(deployment.process(iter(packets), mode="stream"))
        assert event.fence is not None
        virtual_fence = deployment.fence
        check = event.fence
        if check.location is None:
            assert check.decision is FenceDecision.INDETERMINATE
        elif check.location.residual_m > virtual_fence.max_residual_m:
            assert check.decision is FenceDecision.INDETERMINATE
        else:
            expanded = virtual_fence.boundary.expanded(virtual_fence.margin_m)
            inside = expanded.contains(check.location.position)
            assert (check.decision is FenceDecision.INSIDE) == inside


# ---------------------------------------------------------------- regressions
class TestFuzzerRegressions:
    """Validation gaps the fuzzer surfaced, pinned after the fix.

    Each of these inputs used to construct successfully and fail (or
    silently corrupt results) only deep inside synthesis or at build time.
    """

    def test_non_finite_coordinates_rejected_at_construction(self):
        # Used to sail through _coerce_xy and surface as NaN captures.
        with pytest.raises(ValueError, match="finite"):
            AttackerSpec(type="omni", position=(math.nan, 0.0))
        with pytest.raises(ValueError, match="finite"):
            AccessPointSpec(name="ap", position=(math.inf, 1.0))
        with pytest.raises(ValueError, match="finite"):
            AttackerSpec(type="directional", position=(1.0, 1.0),
                         aim_point=(0.0, math.nan))

    def test_degenerate_fence_rejected_at_construction(self):
        # A NaN margin produced a fence that never matched anything; a
        # non-positive residual gate made every check INDETERMINATE.
        with pytest.raises(ValueError, match="margin_m"):
            FenceSpec(margin_m=math.nan)
        with pytest.raises(ValueError, match="max_residual_m"):
            FenceSpec(max_residual_m=0.0)
        with pytest.raises(ValueError, match="max_residual_m"):
            FenceSpec(max_residual_m=-1.0)

    def test_degenerate_array_rejected_at_construction(self):
        # Element counts < 2 and non-positive geometry knobs used to pass
        # spec construction and only fail inside the array factories.
        with pytest.raises(ValueError, match="num_elements"):
            ArraySpec(geometry="linear", num_elements=0)
        with pytest.raises(ValueError, match="radius_m"):
            ArraySpec(geometry="circular", radius_m=-1.0)
        with pytest.raises(ValueError, match="spacing_m"):
            ArraySpec(geometry="linear", spacing_m=0.0)
        with pytest.raises(ValueError, match="element_positions"):
            ArraySpec(geometry="arbitrary",
                      element_positions=((0.0, 0.0), (math.nan, 1.0)))

    def test_unknown_placements_rejected_at_scenario_construction(self):
        # A client id / outdoor name the environment does not define used to
        # pass construction and fail on the first Deployment access.
        with pytest.raises(ValueError, match="no client"):
            ScenarioSpec(clients=(999,))
        with pytest.raises(ValueError, match="does not define"):
            ScenarioSpec(attackers=(
                AttackerSpec(type="omni", at_client=999),))
        with pytest.raises(ValueError, match="does not define"):
            ScenarioSpec(attackers=(
                AttackerSpec(type="omni", outdoor="the-moon"),))
        with pytest.raises(ValueError, match="unknown AP"):
            ScenarioSpec(attackers=(
                AttackerSpec(type="directional", at_client=3,
                             aim_ap="no-such-ap"),))

    def test_undeclared_knobs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="does not accept"):
            AttackerSpec(type="replay", at_client=3, mirror_gain_db=10.0)
        with pytest.raises(ValueError, match="does not accept"):
            AttackerSpec(type="cfo_drift", at_client=3,
                         member_offsets=((0.0, 0.0),))


def test_fuzzer_covered_enough_distinct_specs():
    """The acceptance floor: a full run fuzzes >= 200 distinct valid specs."""
    if not SEEN_SPEC_JSON:
        pytest.skip("structural fuzz tests were deselected")
    assert len(SEEN_SPEC_JSON) >= 200, len(SEEN_SPEC_JSON)
