"""Integration tests for the experiment runners (small configurations for speed)."""

import numpy as np
import pytest

from repro.experiments.accuracy import evaluate_accuracy_claim
from repro.experiments.ablations import (
    run_calibration_ablation,
    run_estimator_comparison,
    run_packets_per_signature_sweep,
    run_snr_sweep,
)
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.fence_eval import run_fence_evaluation
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.reporting import format_table


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(["a", "value"], [("x", 1.234), ("longer", 2)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.23" in table
        assert "longer" in table

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])


class TestFigure5:
    def test_small_run_matches_the_papers_shape(self):
        result = run_figure5(num_packets=4, client_ids=[1, 5, 7, 10, 11], rng=42)
        assert len(result.rows) == 5
        # Mean bearings track ground truth for the unobstructed clients.
        for row in result.rows:
            if row.client_id != 11:
                assert row.error_deg <= 10.0
        # The blocked client (11) is allowed to be the noisiest, as in the paper.
        assert result.fraction_within(14.0) >= 0.8
        assert result.mean_confidence_halfwidth_deg < 30.0
        assert "client" in result.as_table()

    def test_invalid_packet_count_rejected(self):
        with pytest.raises(ValueError):
            run_figure5(num_packets=0)

    def test_generator_seed_rejected(self):
        # ``rng`` is the campaign's int seed; a generator cannot be one.
        with pytest.raises(TypeError):
            run_figure5(num_packets=1, client_ids=[1], rng=np.random.default_rng(0))


class TestAccuracyClaim:
    def test_majority_of_clients_within_a_few_degrees(self):
        claim = evaluate_accuracy_claim(num_packets=4, client_ids=[1, 3, 5, 7, 9, 13, 17],
                                        rng=42)
        assert claim.fraction_within_14_deg >= 0.8
        assert claim.fraction_within_2_5_deg >= 0.3
        assert claim.worst_client_error_deg < 120.0
        assert "client" in claim.as_table()

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_accuracy_claim(num_packets=0)
        with pytest.raises(ValueError):
            evaluate_accuracy_claim(confidence=1.5)


class TestFigure6:
    def test_direct_path_is_stable_and_reflections_wander(self):
        result = run_figure6(client_ids=(2, 5), time_offsets_s=(0.0, 10.0, 1000.0, 86400.0),
                             rng=42)
        for stability in result.clients.values():
            assert stability.direct_peak_drift_deg[0] == pytest.approx(0.0)
            assert stability.max_direct_drift_deg <= 8.0
            assert len(stability.spectra) == 4
        assert "elapsed" in result.as_table()

    def test_time_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError):
            run_figure6(time_offsets_s=(1.0, 10.0))


class TestFigure7:
    def test_more_antennas_give_lower_error(self):
        result = run_figure7(rng=42, num_packets=3)
        errors = result.errors_by_antenna_count
        assert set(errors) == {2, 4, 6, 8}
        assert errors[8] <= errors[2]
        assert result.peaks_by_antenna_count[8] >= 1
        assert "antennas" in result.as_table()

    def test_antenna_count_validation(self):
        with pytest.raises(ValueError):
            run_figure7(antenna_counts=[1, 2])
        with pytest.raises(ValueError):
            run_figure7(antenna_counts=[4, 16])
        with pytest.raises(ValueError):
            run_figure7(num_packets=0)


class TestApplications:
    def test_fence_separates_inside_from_outside(self):
        evaluation = run_fence_evaluation(packets_per_transmitter=1, rng=42)
        assert evaluation.insider_admit_rate >= 0.85
        assert evaluation.outsider_drop_rate >= 0.75
        assert evaluation.median_localization_error_m < 3.0
        assert "transmitter" in evaluation.as_table()

    def test_spoofing_detection_beats_the_false_alarm_rate(self):
        evaluation = run_attack_matrix("spoofing", num_training_packets=4,
                                       num_test_packets=6, rng=42)
        assert evaluation.false_alarm_rate <= 0.25
        assert evaluation.mean_detection_rate >= 0.75
        # Every attacker type must be detected more often than the legitimate
        # client is falsely flagged.
        for outcome in evaluation.attackers:
            assert outcome.detection_rate > evaluation.false_alarm_rate
        assert "SecureAngle" in evaluation.as_table()

    def test_evaluation_argument_validation(self):
        with pytest.raises(ValueError):
            run_fence_evaluation(packets_per_transmitter=0)
        with pytest.raises(ValueError):
            run_attack_matrix("spoofing", num_training_packets=0)


class TestAblations:
    def test_calibration_is_essential(self):
        ablation = run_calibration_ablation(client_ids=(1, 5), packets_per_client=2, rng=42)
        assert ablation.median_error_calibrated_deg < 10.0
        assert ablation.median_error_uncalibrated_deg > 3.0 * ablation.median_error_calibrated_deg
        assert "uncalibrated" in ablation.as_table()

    def test_estimator_comparison_includes_all_methods(self):
        comparison = run_estimator_comparison(client_ids=(14, 17), packets_per_client=1, rng=42)
        assert set(comparison.median_error_by_method_deg) == {
            "music", "capon", "bartlett", "two-antenna (eq. 1)"}
        assert comparison.median_error_by_method_deg["music"] <= 10.0

    def test_snr_sweep_degrades_at_very_low_power(self):
        sweep = run_snr_sweep(tx_powers_dbm=(-80.0, 15.0), client_ids=(5,),
                              packets_per_point=2, rng=42)
        assert sweep.median_error_by_tx_power_deg[-80.0] > sweep.median_error_by_tx_power_deg[15.0]

    def test_packets_per_signature_improves_separation(self):
        sweep = run_packets_per_signature_sweep(training_sizes=(1, 5), num_probe_packets=2,
                                                rng=42)
        assert sweep.separation(5) > 0.3
        assert sweep.legitimate_similarity_by_packets[5] > sweep.attacker_similarity_by_packets[5]
        assert "training packets" in sweep.as_table()
