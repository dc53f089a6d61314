"""Preset scenario specs for the paper's experiments.

Every experiment runner used to hand-wire the same stacks; these builders
capture that wiring as data.  Each preserves the exact random-stream layout
of the original experiment code (which generator each simulator draws from),
so a preset-built deployment reproduces the legacy results bit-for-bit.

The zero-argument defaults are also registered in :data:`SCENARIOS`, so a
scenario can be picked by name from configuration.
"""

from __future__ import annotations

from typing import Optional

from repro.aoa.estimator import EstimatorConfig
from repro.api.registry import Registry
from repro.api.spec import (
    AccessPointSpec,
    ArraySpec,
    AttackerSpec,
    FenceSpec,
    ScenarioSpec,
)

__all__ = [
    "SCENARIOS",
    "single_ap_scenario",
    "three_ap_scenario",
    "fence_scenario",
    "spoofing_scenario",
    "replay_scenario",
    "reflector_scenario",
    "swarm_scenario",
    "cfo_drift_scenario",
]

#: The three-AP layout of the fence/mobility/localisation experiments:
#: the Figure 4 AP plus two more spread across the office so bearing lines
#: intersect at healthy angles for transmitters on every side.
THREE_AP_LAYOUT = (
    ("ap-main", None),
    ("ap-east", (20.0, 11.0)),
    ("ap-south", (15.0, 2.5)),
)


def single_ap_scenario(geometry: str = "octagon",
                       estimator: Optional[EstimatorConfig] = None,
                       name: str = "single-ap",
                       ap_name: str = "ap-main",
                       num_elements: Optional[int] = None,
                       rng_stream: Optional[int] = None,
                       seed: int = 42) -> ScenarioSpec:
    """One AP at the environment's default position (Figures 5-7 wiring)."""
    return ScenarioSpec(
        name=name,
        seed=seed,
        estimator=estimator if estimator is not None else EstimatorConfig(),
        access_points=(AccessPointSpec(
            name=ap_name,
            array=ArraySpec(geometry=geometry, num_elements=num_elements),
            rng_stream=rng_stream,
        ),),
    )


def three_ap_scenario(estimator: Optional[EstimatorConfig] = None,
                      name: str = "three-ap",
                      fence: Optional[FenceSpec] = None,
                      seed: int = 42) -> ScenarioSpec:
    """Three circular-array APs across the office (localisation wiring)."""
    return ScenarioSpec(
        name=name,
        seed=seed,
        estimator=estimator if estimator is not None else EstimatorConfig(),
        access_points=tuple(
            AccessPointSpec(name=ap_name,
                            position=position,
                            array=ArraySpec(geometry="octagon"),
                            rng_stream=index)
            for index, (ap_name, position) in enumerate(THREE_AP_LAYOUT)
        ),
        fence=fence,
    )


def fence_scenario(estimator: Optional[EstimatorConfig] = None,
                   margin_m: float = 1.0,
                   seed: int = 42) -> ScenarioSpec:
    """The virtual-fence evaluation: three APs, a fence, and the strong
    (directional, outdoor) attacker of the threat model."""
    spec = three_ap_scenario(estimator=estimator, name="fence",
                             fence=FenceSpec(margin_m=margin_m), seed=seed)
    from dataclasses import replace

    return replace(spec, attackers=(
        AttackerSpec(type="directional", outdoor="street-east",
                     aim_ap="ap-main"),
    ))


def spoofing_scenario(estimator: Optional[EstimatorConfig] = None,
                      seed: int = 42) -> ScenarioSpec:
    """The spoofing evaluation: one circular AP plus the paper's four
    attacker configurations (Section 1's threat model)."""
    return ScenarioSpec(
        name="spoofing",
        seed=seed,
        estimator=estimator if estimator is not None else EstimatorConfig(),
        access_points=(AccessPointSpec(
            name="ap-main", array=ArraySpec(geometry="octagon"), rng_stream=1),),
        attackers=(
            AttackerSpec(type="omnidirectional", at_client=9,
                         name="omni-indoor"),
            AttackerSpec(type="omnidirectional", outdoor="street-east",
                         name="omni-outdoor"),
            AttackerSpec(type="directional", outdoor="street-east",
                         aim_ap="ap-main", name="directional-outdoor"),
            AttackerSpec(type="array", at_client=9,
                         aim_ap="ap-main", name="array-indoor"),
        ),
    )


def _attack_family_scenario(name: str,
                            attackers: tuple,
                            estimator: Optional[EstimatorConfig],
                            seed: int) -> ScenarioSpec:
    """Shared single-AP wiring of the extended attack-family evaluations.

    Identical stream layout to :func:`spoofing_scenario` (one octagonal AP on
    stream 1, attacker addresses from stream 4), so the attack-matrix
    experiment runs every attack scenario with one capture-skip arithmetic.
    """
    return ScenarioSpec(
        name=name,
        seed=seed,
        estimator=estimator if estimator is not None else EstimatorConfig(),
        access_points=(AccessPointSpec(
            name="ap-main", array=ArraySpec(geometry="octagon"), rng_stream=1),),
        attackers=attackers,
    )


def replay_scenario(estimator: Optional[EstimatorConfig] = None,
                    seed: int = 42) -> ScenarioSpec:
    """Replay attack: the victim's recorded waveform retransmitted from an
    indoor client position and from the street."""
    return _attack_family_scenario("replay", (
        AttackerSpec(type="replay", at_client=9, name="replay-indoor",
                     recording_snr_db=25.0),
        AttackerSpec(type="replay", outdoor="street-east", name="replay-outdoor",
                     recording_snr_db=15.0, playback_gain_db=6.0),
    ), estimator, seed)


def reflector_scenario(estimator: Optional[EstimatorConfig] = None,
                       seed: int = 42) -> ScenarioSpec:
    """Multipath-mirror spoofing: one reflector tuned at the victim's bearing
    (client 5 sits at 135 degrees from the AP), one auto-picking the strongest
    bounce from outside."""
    return _attack_family_scenario("reflector", (
        AttackerSpec(type="reflector", at_client=9, name="mirror-tuned",
                     mirror_bearing_deg=135.0, mirror_gain_db=15.0),
        AttackerSpec(type="reflector", outdoor="street-north",
                     name="mirror-auto"),
    ), estimator, seed)


def swarm_scenario(estimator: Optional[EstimatorConfig] = None,
                   seed: int = 42) -> ScenarioSpec:
    """Coordinated swarm: three indoor transmitters sharing one spoofed
    stream, and a two-member swarm in the parking lot."""
    return _attack_family_scenario("swarm", (
        AttackerSpec(type="swarm", at_client=9, name="swarm-trio",
                     member_offsets=((0.0, 0.0), (2.0, 0.5), (-1.5, 1.0))),
        AttackerSpec(type="swarm", outdoor="parking-lot", name="swarm-outdoor",
                     member_offsets=((0.0, 0.0), (3.0, 0.0))),
    ), estimator, seed)


def cfo_drift_scenario(estimator: Optional[EstimatorConfig] = None,
                       seed: int = 42) -> ScenarioSpec:
    """CFO drift: a slow indoor carrier walk and a fast outdoor one."""
    return _attack_family_scenario("cfo_drift", (
        AttackerSpec(type="cfo_drift", at_client=9, name="cfo-slow",
                     cfo_start_hz=200.0, cfo_drift_hz_per_s=40.0),
        AttackerSpec(type="cfo_drift", outdoor="street-east", name="cfo-fast",
                     cfo_start_hz=1000.0, cfo_drift_hz_per_s=400.0),
    ), estimator, seed)


SCENARIOS: Registry[object] = Registry("scenario")

SCENARIOS.register("figure5", lambda: single_ap_scenario(name="figure5"))
SCENARIOS.register("figure6", lambda: single_ap_scenario(
    geometry="linear", num_elements=8, name="figure6"))
SCENARIOS.register("figure7", lambda: single_ap_scenario(
    geometry="linear", num_elements=8, name="figure7"))
SCENARIOS.register("three_ap", three_ap_scenario, aliases=("mobility",))
SCENARIOS.register("fence", fence_scenario)
SCENARIOS.register("spoofing", spoofing_scenario)
SCENARIOS.register("replay", replay_scenario)
SCENARIOS.register("reflector", reflector_scenario, aliases=("multipath_mirror",))
SCENARIOS.register("swarm", swarm_scenario, aliases=("coordinated_swarm",))
SCENARIOS.register("cfo_drift", cfo_drift_scenario, aliases=("cfo",))
