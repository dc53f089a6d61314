"""The scenario & attack catalog: seed stability and spec error paths.

Two guarantees over the *whole* registered catalog rather than individual
presets:

* **Seed stability** — every scenario preset in ``SCENARIOS`` produces
  byte-identical captures and decisions across two fresh Python processes.
  In-process determinism is cheap to get by accident (shared caches, interned
  objects); cross-process byte-identity is the property campaign shards and
  the conformance gate actually rely on, and it breaks silently when someone
  introduces set/dict iteration order or address-dependent hashing into the
  synthesis path.
* **Error paths** — the attack registry's did-you-mean misses, conflicting
  placements, and the JSON round-trip of every new attack family's config.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import SCENARIOS, ATTACK_TYPES
from repro.api.spec import AttackerSpec, ScenarioSpec

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Runs inside each fresh subprocess: one line ``<scenario> <sha256>`` per
#: registered preset, hashing every capture byte and every stripped decision
#: event of a small deterministic traffic mix.
_SWEEP_SCRIPT = r"""
import hashlib
import sys
from dataclasses import replace

from repro.api import Deployment, SCENARIOS

for name in SCENARIOS.names():
    spec = SCENARIOS.get(name)()
    deployment = Deployment(spec, rng=123)
    digest = hashlib.sha256()
    victim_id = spec.clients[0] if spec.clients else 5
    victim_address = deployment.clients[victim_id].address
    packets = deployment.traffic(victim_id, num_packets=2)
    for index, attacker_name in enumerate(sorted(deployment.attackers)):
        packets.extend(deployment.traffic(
            attacker=attacker_name, victim_address=victim_address,
            num_packets=2, start_s=100.0 + 50.0 * index))
    for event in deployment.process(iter(packets), mode="stream"):
        stripped = replace(event, packet_latency_s=None, batch_latency_s=None)
        digest.update(stripped.to_json().encode())
    for packet in packets:
        for capture in packet.captures.values():
            digest.update(capture.samples.tobytes())
    print(name, digest.hexdigest())
"""


def _run_sweep() -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    digests = dict(line.split() for line in result.stdout.splitlines())
    assert set(digests) == set(SCENARIOS.names())
    return digests


@pytest.fixture(scope="module")
def sweep_digests():
    """Per-scenario digests from two fresh subprocesses."""
    return _run_sweep(), _run_sweep()


@pytest.mark.parametrize("scenario", SCENARIOS.names())
def test_preset_is_byte_identical_across_fresh_processes(scenario,
                                                         sweep_digests):
    first, second = sweep_digests
    assert first[scenario] == second[scenario], (
        f"scenario preset {scenario!r} is not seed-stable across processes")


# ----------------------------------------------------------------- catalog
#: One spec per new attack family, every declared knob set — the JSON
#: round-trip below must preserve each exactly.
NEW_FAMILY_SPECS = {
    "replay": AttackerSpec(type="replay", at_client=9, name="r",
                           recording_snr_db=17.5, playback_gain_db=3.25),
    "reflector": AttackerSpec(type="reflector", outdoor="street-north",
                              name="m", mirror_bearing_deg=123.5,
                              mirror_gain_db=14.0, leak_suppression_db=21.0),
    "swarm": AttackerSpec(type="swarm", at_client=9, name="s",
                          member_offsets=((0.0, 0.0), (2.5, -1.25))),
    "cfo_drift": AttackerSpec(type="cfo_drift", outdoor="street-east",
                              name="c", cfo_start_hz=456.0,
                              cfo_drift_hz_per_s=-78.0),
}


def test_every_attack_family_is_fully_wired():
    """Each new family has a preset, an attack type, and a campaign."""
    from repro.campaign import CAMPAIGNS
    from repro.experiments.attack_matrix import ATTACK_MATRIX_SCENARIOS

    for family in ATTACK_MATRIX_SCENARIOS:
        assert family in SCENARIOS.names()
        assert f"{family}_eval" in CAMPAIGNS.names()
        # The paper's threat model runs as the "spoofing" scenario; its
        # attackers are the omnidirectional/directional/array types.
        if family != "spoofing":
            assert ATTACK_TYPES.canonical(family) == family


class TestAttackCatalogErrorPaths:
    def test_misspelled_attack_type_gets_a_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'replay'"):
            ATTACK_TYPES.get("replai")
        with pytest.raises(KeyError, match="did you mean"):
            AttackerSpec(type="reflectr", at_client=3)

    def test_aliases_resolve_to_canonical_names(self):
        assert ATTACK_TYPES.canonical("multipath_mirror") == "reflector"
        assert ATTACK_TYPES.canonical("coordinated_swarm") == "swarm"
        assert ATTACK_TYPES.canonical("cfo") == "cfo_drift"
        assert SCENARIOS.canonical("multipath_mirror") == "reflector"
        assert SCENARIOS.canonical("coordinated_swarm") == "swarm"
        assert SCENARIOS.canonical("cfo") == "cfo_drift"

    def test_conflicting_placements_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            AttackerSpec(type="replay", at_client=3, outdoor="street-east")
        with pytest.raises(ValueError, match="exactly one"):
            AttackerSpec(type="swarm", position=(1.0, 1.0), at_client=3)
        with pytest.raises(ValueError, match="exactly one"):
            AttackerSpec(type="cfo_drift")

    @pytest.mark.parametrize("family", sorted(NEW_FAMILY_SPECS))
    def test_new_family_config_round_trips_through_json(self, family):
        spec = NEW_FAMILY_SPECS[family]
        revived = AttackerSpec.from_json(spec.to_json())
        assert revived == spec
        assert revived.to_json() == spec.to_json()

    @pytest.mark.parametrize("family", sorted(NEW_FAMILY_SPECS))
    def test_new_family_round_trips_inside_a_scenario(self, family):
        scenario = ScenarioSpec(name=f"rt-{family}",
                                attackers=(NEW_FAMILY_SPECS[family],))
        assert ScenarioSpec.from_json(scenario.to_json()) == scenario
