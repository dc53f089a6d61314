"""ScenarioSpec validation and dict/JSON round-trips (specs and results)."""

import numpy as np
import pytest

from repro.aoa.estimator import EstimatorConfig
from repro.aoa.spectrum import Pseudospectrum
from repro.api import (
    AccessPointSpec,
    ArraySpec,
    AttackerSpec,
    Deployment,
    FenceSpec,
    ScenarioSpec,
    fence_scenario,
    single_ap_scenario,
    spoofing_scenario,
    three_ap_scenario,
)
from repro.core.fence import FenceDecision
from repro.experiments.fence_eval import FenceCase, FenceEvaluation
from repro.experiments.figure5 import ClientBearingRow, Figure5Result
from repro.experiments.figure7 import AntennaCountRow, Figure7Result
from repro.geometry.point import Point


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.environment == "figure4"
        assert spec.resolved_access_points()[0].name == "ap-main"

    def test_unknown_environment_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'figure4'"):
            ScenarioSpec(environment="figure44")

    def test_unknown_array_geometry_suggests(self):
        with pytest.raises(KeyError, match="did you mean"):
            ArraySpec(geometry="linearr")

    def test_duplicate_ap_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(access_points=(AccessPointSpec(name="a"),
                                        AccessPointSpec(name="a")))

    def test_ap_stream_and_seed_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            AccessPointSpec(name="a", rng_stream=1, seed=2)

    def test_attacker_needs_exactly_one_placement(self):
        with pytest.raises(ValueError, match="exactly one"):
            AttackerSpec(type="omni")
        with pytest.raises(ValueError, match="exactly one"):
            AttackerSpec(type="omni", at_client=3, outdoor="street-east")

    def test_omni_attacker_rejects_beam_knobs_at_construction(self):
        with pytest.raises(ValueError, match="does not accept"):
            AttackerSpec(type="omni", at_client=3, beamwidth_deg=10.0)

    def test_omni_attacker_rejects_aim_at_construction(self):
        with pytest.raises(ValueError, match="not directional"):
            AttackerSpec(type="omni", at_client=3, aim_ap="ap-main")

    def test_array_spec_rejects_wrong_knob_for_geometry(self):
        spec = ArraySpec(geometry="linear", radius_m=0.3)
        with pytest.raises(ValueError, match="linear"):
            spec.build()

    def test_unnamed_attackers_of_same_type_collide_at_spec_time(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(attackers=(
                AttackerSpec(type="directional", outdoor="street-east",
                             aim_ap="ap-main"),
                AttackerSpec(type="directional", position=(1.0, 1.0),
                             aim_point=(0.0, 0.0)),
            ))

    def test_misspelled_json_key_raises_with_suggestion(self):
        good = ScenarioSpec().to_dict()
        bad = dict(good)
        bad["acces_points"] = bad.pop("access_points")
        with pytest.raises(ValueError, match="did you mean 'access_points'"):
            ScenarioSpec.from_dict(bad)
        with pytest.raises(ValueError, match="unknown field"):
            ScenarioSpec.from_dict({"fence": {"margin": 5.0}})
        # The removed compute-backend and precision knobs fail loudly in old
        # documents.
        for section in ("simulator", "estimator"):
            for knob, value in (("backend", "numpy"), ("precision", "float32")):
                stale = dict(good)
                stale[section] = dict(good[section], **{knob: value})
                with pytest.raises(ValueError, match=f"unknown field.*'{knob}'"):
                    ScenarioSpec.from_dict(stale)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        ScenarioSpec(),
        single_ap_scenario(geometry="linear", num_elements=8, name="lin"),
        single_ap_scenario(estimator=EstimatorConfig(
            method="capon", resolution_deg=2.0, num_sources=2,
            forward_backward=False)),
        three_ap_scenario(),
        fence_scenario(margin_m=2.0),
        spoofing_scenario(),
    ], ids=["default", "linear", "capon", "three-ap", "fence", "spoofing"])
    def test_json_round_trip_is_exact(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_nested_configs_survive(self):
        spec = fence_scenario()
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.fence == FenceSpec(margin_m=1.0)
        assert rebuilt.policy.spoofing.similarity_threshold == pytest.approx(0.55)
        assert rebuilt.simulator.channel.carrier_frequency_hz == \
            spec.simulator.channel.carrier_frequency_hz
        assert rebuilt.access_points[1].position == (20.0, 11.0)

    def test_save_and_load(self, tmp_path):
        spec = spoofing_scenario()
        path = spec.save_json(tmp_path / "scenario.json")
        assert ScenarioSpec.load_json(path) == spec

    def test_list_built_specs_round_trip_like_tuple_built(self):
        # Lists are what json.loads and hand-written configs naturally carry;
        # __post_init__ canonicalises them so round-trip equality still holds.
        spec = ScenarioSpec(access_points=[
            AccessPointSpec(name="ap-east", position=[20.0, 11.0]),
        ])
        assert spec.access_points[0].position == (20.0, 11.0)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        attacker = AttackerSpec(type="directional", position=[1.0, 2.0],
                                aim_point=[3.0, 4.0])
        assert attacker.aim_point == (3.0, 4.0)
        array = ArraySpec(geometry="arbitrary",
                          element_positions=[[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
        assert array.element_positions == ((0.0, 0.0), (0.05, 0.0), (0.0, 0.05))


class TestResultRoundTrip:
    def test_figure5_result_round_trips_exactly(self):
        result = Figure5Result(
            rows=[ClientBearingRow(client_id=5, ground_truth_deg=135.0,
                                   mean_estimate_deg=136.5,
                                   confidence_halfwidth_deg=2.5, error_deg=1.5,
                                   per_packet_bearings_deg=[135.0, 138.0])],
            num_packets=2, confidence=0.99)
        rebuilt = Figure5Result.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.mean_confidence_halfwidth_deg == pytest.approx(2.5)

    def test_fence_evaluation_round_trips_points_and_enums(self):
        evaluation = FenceEvaluation(cases=[
            FenceCase(label="client-1", true_position=Point(10.0, 9.0),
                      truly_inside=True, decision=FenceDecision.INSIDE,
                      admitted=True, localization_error_m=0.4),
            FenceCase(label="outdoor", true_position=Point(27.0, 7.0),
                      truly_inside=False, decision=FenceDecision.OUTSIDE,
                      admitted=False, localization_error_m=None),
        ])
        rebuilt = FenceEvaluation.from_json(evaluation.to_json())
        assert rebuilt == evaluation
        assert rebuilt.cases[0].decision is FenceDecision.INSIDE
        assert rebuilt.cases[1].localization_error_m is None

    def test_pseudospectrum_results_round_trip(self):
        spectrum = Pseudospectrum(angles_deg=np.array([-90.0, 0.0, 90.0]),
                                  values=np.array([0.1, 1.0, 0.2]),
                                  metadata={"estimator": "music"})
        result = Figure7Result(
            client_id=12, expected_bearing_deg=-40.0,
            rows=[AntennaCountRow(num_antennas=4, spectrum=spectrum,
                                  bearing_deg=-38.0, bearing_error_deg=2.0,
                                  num_peaks=1)])
        rebuilt = Figure7Result.from_json(result.to_json())
        row = rebuilt.rows[0]
        assert np.array_equal(row.spectrum.angles_deg, spectrum.angles_deg)
        assert np.array_equal(row.spectrum.values, spectrum.values)
        assert row.spectrum.metadata == spectrum.metadata
        assert row.bearing_deg == -38.0

    def test_integer_dict_keys_survive_json(self):
        from repro.experiments.accuracy import AccuracyClaim

        claim = AccuracyClaim(per_client_quantile_error_deg={1: 2.0, 11: 9.5},
                              confidence=0.95, num_packets=10)
        rebuilt = AccuracyClaim.from_json(claim.to_json())
        assert rebuilt == claim
        assert set(rebuilt.per_client_quantile_error_deg) == {1, 11}
