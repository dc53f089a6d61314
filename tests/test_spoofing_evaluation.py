"""The spoofing-attack evaluation: the paper's ``spoofing`` scenario and the
attack families, one experiment (:mod:`repro.experiments.attack_matrix`).

``PINNED`` holds, at default settings, the values the evaluation gave before
the paper's spoofing scenario moved into the attack matrix: per scenario and
seed, the legitimate client's false-alarm rate and RSS false-alarm rate (the
families had no RSS columns: ``None``), then per attacker its name,
detection rate, RSS detection rate and mean similarity.
"""

import pytest

from repro.campaign import get_adapter, run_campaign
from repro.experiments.attack_matrix import run_attack_matrix

PINNED = {
    ("spoofing", 42): (0.15, 0.0, (
        ("omni-indoor", 1.0, 0.0, 7.681468691826742e-06),
        ("omni-outdoor", 1.0, 1.0, 1.0491901303544977e-06),
        ("directional-outdoor", 1.0, 1.0, 0.002267949469990357),
        ("array-indoor", 1.0, 1.0, 7.214572757224407e-06),
    )),
    ("replay", 42): (0.15, None, (
        ("replay-indoor", 1.0, None, 7.681341922455357e-06),
        ("replay-outdoor", 1.0, None, 1.0354367934688182e-06),
    )),
    ("reflector", 42): (0.15, None, (
        ("mirror-tuned", 1.0, None, 0.01259752027680448),
        ("mirror-auto", 0.95, None, 0.22988223292151716),
    )),
    ("swarm", 42): (0.15, None, (
        ("swarm-trio", 1.0, None, 3.3161349238171846e-05),
        ("swarm-outdoor", 1.0, None, 0.002439866291185182),
    )),
    ("cfo_drift", 42): (0.15, None, (
        ("cfo-slow", 1.0, None, 7.723359144080066e-06),
        ("cfo-fast", 1.0, None, 1.0295602013354272e-06),
    )),
    ("spoofing", 7): (0.2, 0.0, (
        ("omni-indoor", 1.0, 0.0, 7.740849239047464e-06),
        ("omni-outdoor", 1.0, 1.0, 1.2069997818311293e-06),
        ("directional-outdoor", 1.0, 1.0, 8.367142640009258e-07),
        ("array-indoor", 1.0, 1.0, 4.004350353899746e-06),
    )),
    ("replay", 7): (0.2, None, (
        ("replay-indoor", 1.0, None, 7.74079742232913e-06),
        ("replay-outdoor", 1.0, None, 1.2064071964214576e-06),
    )),
    ("reflector", 7): (0.2, None, (
        ("mirror-tuned", 1.0, None, 0.010166563782259577),
        ("mirror-auto", 0.9, None, 0.2648401241093736),
    )),
    ("swarm", 7): (0.2, None, (
        ("swarm-trio", 1.0, None, 3.249434953168325e-05),
        ("swarm-outdoor", 1.0, None, 0.001852113072357065),
    )),
    ("cfo_drift", 7): (0.2, None, (
        ("cfo-slow", 1.0, None, 7.740855551695082e-06),
        ("cfo-fast", 1.0, None, 1.2073705857830078e-06),
    )),
    ("spoofing", 1): (0.05, 0.0, (
        ("omni-indoor", 1.0, 0.0, 8.08432795937987e-06),
        ("omni-outdoor", 1.0, 1.0, 1.040237147501635e-06),
        ("directional-outdoor", 1.0, 1.0, 0.002367612545330047),
        ("array-indoor", 1.0, 1.0, 5.954066713536453e-06),
    )),
    ("replay", 1): (0.05, None, (
        ("replay-indoor", 1.0, None, 8.084129283592542e-06),
        ("replay-outdoor", 1.0, None, 1.0337449853033587e-06),
    )),
    ("reflector", 1): (0.05, None, (
        ("mirror-tuned", 1.0, None, 0.011195431772799),
        ("mirror-auto", 0.85, None, 0.3099931295199603),
    )),
    ("swarm", 1): (0.05, None, (
        ("swarm-trio", 1.0, None, 3.20437700027143e-05),
        ("swarm-outdoor", 1.0, None, 0.002229344918580754),
    )),
    ("cfo_drift", 1): (0.05, None, (
        ("cfo-slow", 1.0, None, 8.08426858944977e-06),
        ("cfo-fast", 1.0, None, 1.0398744015270512e-06),
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
