"""E6 — address-spoofing detection (Sections 2.3.2, 3.2).

Expected shape: spoofed frames injected from other locations — by omni,
directional-antenna, and antenna-array attackers — are flagged at a high rate
while the legitimate client's own later frames are not, and the AoA check
separates attacker from client better than the RSS-signalprint baseline
(which a directional attacker can evade).
"""

from conftest import print_report

from repro.experiments.attack_matrix import run_attack_matrix


def test_bench_spoofing_detection(benchmark):
    evaluation = benchmark.pedantic(
        run_attack_matrix, args=("spoofing",),
        kwargs={"num_training_packets": 10, "num_test_packets": 20, "rng": 42},
        iterations=1, rounds=1)
    print_report(
        "Address-spoofing detection: SecureAngle vs the RSS signalprint baseline",
        evaluation.as_table()
        + f"\n\nmean SecureAngle detection rate: {evaluation.mean_detection_rate:.0%}"
        + f"\nSecureAngle false-alarm rate:    {evaluation.false_alarm_rate:.0%}",
    )
    assert evaluation.mean_detection_rate >= 0.8
    assert evaluation.false_alarm_rate <= 0.2
