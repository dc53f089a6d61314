"""The spoofing-attack evaluation: the paper's ``spoofing`` scenario and the
attack families, one experiment (:mod:`repro.experiments.attack_matrix`).

``PINNED`` holds, at default settings, per scenario and seed, the legitimate
client's false-alarm rate and RSS false-alarm rate (the families had no RSS
columns: ``None``), then per attacker its name, detection rate, RSS
detection rate and mean similarity.  The rates are those the evaluation gave
before the paper's spoofing scenario moved into the attack matrix; the mean
similarities were re-pinned once when receiver noise moved to one SFC64
draw per packet.
"""

import pytest

from repro.campaign import get_adapter, run_campaign
from repro.experiments.attack_matrix import run_attack_matrix

PINNED = {
    ("spoofing", 42): (0.15, 0.0, (
        ("omni-indoor", 1.0, 0.0, 7.723335110402234e-06),
        ("omni-outdoor", 1.0, 1.0, 1.0415129967448459e-06),
        ("directional-outdoor", 1.0, 1.0, 0.0022677005272435176),
        ("array-indoor", 1.0, 1.0, 7.214594856995775e-06),
    )),
    ("replay", 42): (0.15, None, (
        ("replay-indoor", 1.0, None, 7.681353206641736e-06),
        ("replay-outdoor", 1.0, None, 1.0354539173639505e-06),
    )),
    ("reflector", 42): (0.15, None, (
        ("mirror-tuned", 1.0, None, 0.012597633679749884),
        ("mirror-auto", 0.95, None, 0.22989390124750622),
    )),
    ("swarm", 42): (0.15, None, (
        ("swarm-trio", 1.0, None, 3.316100747084449e-05),
        ("swarm-outdoor", 1.0, None, 0.002448924706607189),
    )),
    ("cfo_drift", 42): (0.15, None, (
        ("cfo-slow", 1.0, None, 7.72337184265155e-06),
        ("cfo-fast", 1.0, None, 1.043580905384927e-06),
    )),
    ("spoofing", 7): (0.2, 0.0, (
        ("omni-indoor", 1.0, 0.0, 7.740840111749583e-06),
        ("omni-outdoor", 1.0, 1.0, 1.2069500368198043e-06),
        ("directional-outdoor", 1.0, 1.0, 8.368978462303707e-07),
        ("array-indoor", 1.0, 1.0, 4.004340215212833e-06),
    )),
    ("replay", 7): (0.2, None, (
        ("replay-indoor", 1.0, None, 7.740788432918935e-06),
        ("replay-outdoor", 1.0, None, 1.2063728139208398e-06),
    )),
    ("reflector", 7): (0.2, None, (
        ("mirror-tuned", 1.0, None, 0.010166197821459907),
        ("mirror-auto", 0.9, None, 0.2647169343355355),
    )),
    ("swarm", 7): (0.2, None, (
        ("swarm-trio", 1.0, None, 3.2494296268464356e-05),
        ("swarm-outdoor", 1.0, None, 0.0018521507793837675),
    )),
    ("cfo_drift", 7): (0.2, None, (
        ("cfo-slow", 1.0, None, 7.74085375420915e-06),
        ("cfo-fast", 1.0, None, 1.213569126029449e-06),
    )),
    ("spoofing", 1): (0.05, 0.0, (
        ("omni-indoor", 1.0, 0.0, 8.084298566035436e-06),
        ("omni-outdoor", 1.0, 1.0, 1.0406683671803094e-06),
        ("directional-outdoor", 1.0, 1.0, 0.002371639693338072),
        ("array-indoor", 1.0, 1.0, 5.954018154303559e-06),
    )),
    ("replay", 1): (0.05, None, (
        ("replay-indoor", 1.0, None, 8.084101155864317e-06),
        ("replay-outdoor", 1.0, None, 1.0339890646603472e-06),
    )),
    ("reflector", 1): (0.05, None, (
        ("mirror-tuned", 1.0, None, 0.011194920773417254),
        ("mirror-auto", 0.85, None, 0.310024586997346),
    )),
    ("swarm", 1): (0.05, None, (
        ("swarm-trio", 1.0, None, 3.204383212418024e-05),
        ("swarm-outdoor", 1.0, None, 0.0022474589562916274),
    )),
    ("cfo_drift", 1): (0.05, None, (
        ("cfo-slow", 1.0, None, 8.084244254309679e-06),
        ("cfo-fast", 1.0, None, 1.0394796066998433e-06),
    )),
}


@pytest.mark.parametrize("scenario,seed", list(PINNED), ids=[
    f"{scenario}-{seed}" for scenario, seed in PINNED])
def test_default_run_gives_the_pinned_values(scenario, seed):
    false_alarms, rss_false_alarms, attackers = PINNED[(scenario, seed)]
    result = run_attack_matrix(scenario, rng=seed)
    assert result.false_alarm_rate == false_alarms
    if rss_false_alarms is not None:
        assert result.rss_false_alarm_rate == rss_false_alarms
    measured = [(outcome.attacker_name, outcome.detection_rate,
                 outcome.rss_detection_rate if rss is not None else None,
                 outcome.mean_similarity)
                for outcome, (_, _, rss, _) in zip(result.attackers, attackers)]
    assert measured == list(attackers)


def _population_subset(spec, *attacker_indices):
    legitimate, *attackers = spec.axes["population"]
    return spec.with_overrides(axes={"population": (legitimate, *(
        attackers[index] for index in attacker_indices))})


@pytest.mark.parametrize("attacker_index", [1, 3])
def test_a_population_subset_measures_its_attacker_as_the_full_run_does(
        attacker_index):
    spec = get_adapter("spoofing_eval").default_spec(num_training_packets=4,
                                                     num_test_packets=5)
    full = run_campaign(spec, workers=1).result
    subset = run_campaign(_population_subset(spec, attacker_index),
                          workers=1).result
    assert subset.false_alarm_rate == full.false_alarm_rate
    assert subset.rss_false_alarm_rate == full.rss_false_alarm_rate
    assert subset.attackers == [full.attackers[attacker_index]]
