"""E8b — the RSS baseline on its own.

The related-work section argues that RSS signalprints are coarse and can be
subverted by directional antennas.  This benchmark isolates the RSS columns of
the spoofing evaluation so the baseline's behaviour is visible by itself: the
indoor omnidirectional attacker (similar received power to the victim) slips
past the RSS check far more often than past the AoA check.
"""

from conftest import print_report

from repro.experiments.reporting import format_table
from repro.experiments.attack_matrix import run_attack_matrix


def test_bench_rss_baseline(benchmark):
    evaluation = benchmark.pedantic(
        run_attack_matrix, args=("spoofing",),
        kwargs={"num_training_packets": 10, "num_test_packets": 20, "rng": 7},
        iterations=1, rounds=1)
    rows = [(outcome.attacker_name, outcome.rss_detection_rate, outcome.detection_rate)
            for outcome in evaluation.attackers]
    print_report(
        "RSS signalprint baseline vs SecureAngle (detection rate per attacker)",
        format_table(["attacker", "RSS detection", "SecureAngle detection"], rows),
    )
    by_name = {outcome.attacker_name: outcome for outcome in evaluation.attackers}
    indoor = by_name["omni-indoor"]
    # The indoor attacker's received power resembles the victim's, so RSS
    # misses it much more often than the AoA signature does.
    assert indoor.detection_rate >= indoor.rss_detection_rate
