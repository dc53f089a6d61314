"""One peak search per spectrum.

The batched AoA engine searches every spectrum it builds and hands the full
index list on with the spectrum (:attr:`Pseudospectrum.peak_indices`), so
:func:`signatures_from_pseudospectra` does not search the same row again.  A
blended tracker signature is a new spectrum and gets its own search.  These
tests count the searches through a spy on ``find_peaks_batch`` and pin that
the reused lists give exactly the signatures a fresh search gives.
"""

from collections import Counter

import numpy as np
import pytest

from repro.aoa import batch as batch_module
from repro.aoa import peaks as peaks_module
from repro.aoa.batch import BatchAoAEstimator
from repro.aoa.spectrum import Pseudospectrum
from repro.api import Deployment, fence_scenario, single_ap_scenario
from repro.core import signature as signature_module
from repro.core.signature import AoASignature, signatures_from_pseudospectra

#: Every module that binds ``find_peaks_batch``; the scalar ``find_peaks``
#: reaches it through the peaks module's own binding.
SEARCHERS = {"peaks": peaks_module, "engine": batch_module,
             "signature": signature_module}

SCENARIOS = {"fence": fence_scenario,
             "figure5": lambda: single_ap_scenario(name="figure5")}


@pytest.fixture
def searches(monkeypatch):
    """Count ``find_peaks_batch`` calls by the module that made them, plus
    engine calls and signature blends."""
    counts = Counter()
    original = peaks_module.find_peaks_batch

    for label, module in SEARCHERS.items():
        def spy(*args, _label=label, **kwargs):
            counts[_label] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "find_peaks_batch", spy)

    process_batch = BatchAoAEstimator.process_batch
    merged_with = AoASignature.merged_with

    def counting_process_batch(self, *args, **kwargs):
        counts["engine_calls"] += 1
        return process_batch(self, *args, **kwargs)

    def counting_merged_with(self, *args, **kwargs):
        counts["blends"] += 1
        return merged_with(self, *args, **kwargs)

    monkeypatch.setattr(BatchAoAEstimator, "process_batch", counting_process_batch)
    monkeypatch.setattr(AoASignature, "merged_with", counting_merged_with)
    return counts


def _trained(name):
    deployment = Deployment(SCENARIOS[name]())
    for client_id in (1, 2, 3):
        deployment.train(deployment.clients[client_id].address, client_id,
                         num_packets=3)
    return deployment


def _traffic(deployment):
    packets = []
    for client_id in (1, 2, 3):
        packets += deployment.traffic(client_id, num_packets=3, start_s=10.0)
    victim = deployment.clients[2].address
    for attacker in list(deployment.attackers)[:1]:
        packets += deployment.traffic(attacker=attacker, victim_address=victim,
                                      num_packets=2, start_s=20.0)
    return packets


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["stream", "batch"])
def test_one_search_per_engine_call_and_per_blend(name, mode, searches):
    deployment = _trained(name)
    packets = _traffic(deployment)
    searches.clear()

    events = list(deployment.process(packets, mode=mode))

    assert len(events) == len(packets)
    assert searches["engine_calls"] == (len(packets) if mode == "stream" else 1)
    assert searches["blends"] > 0
    assert searches["signature"] == 0
    assert searches["engine"] == searches["engine_calls"]
    # The only other searches are the blended signatures' own.
    assert searches["peaks"] == searches["blends"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("max_peaks", [1, 2, 4, 10])
def test_reused_peaks_equal_a_fresh_search(name, max_peaks, searches):
    deployment = _trained(name)
    packets = _traffic(deployment)
    estimates = deployment.controller.analyze_batch(
        [packet.captures for packet in packets])
    spectra = [estimate.pseudospectrum
               for per_ap in estimates for estimate in per_ap.values()]
    timestamps = [float(index) for index in range(len(spectra))]
    assert all(spectrum.peak_indices is not None for spectrum in spectra)
    searches.clear()

    reused = signatures_from_pseudospectra(spectra, captured_at_s=timestamps,
                                           max_peaks=max_peaks, num_packets=3)

    assert searches["signature"] == 0
    fresh = [AoASignature.from_pseudospectrum(spectrum, captured_at_s=timestamp,
                                              max_peaks=max_peaks, num_packets=3)
             for spectrum, timestamp in zip(spectra, timestamps)]
    assert searches["peaks"] == len(spectra)  # from_pseudospectrum searches
    for got, want in zip(reused, fresh):
        assert got.peaks_deg == want.peaks_deg
        assert got.captured_at_s == want.captured_at_s
        assert got.num_packets == want.num_packets
        assert got.spectrum.values.tobytes() == want.spectrum.values.tobytes()


def test_spectra_without_a_search_are_searched_once_per_grid(searches):
    deployment = _trained("figure5")
    packets = deployment.traffic(1, num_packets=4, start_s=10.0)
    engine_spectra = [per_ap[deployment.primary_ap_name].pseudospectrum
                      for per_ap in deployment.controller.analyze_batch(
                          [packet.captures for packet in packets])]
    # Derived spectra carry no search: the blend divides by the peak.
    derived = [spectrum.normalized() for spectrum in engine_spectra]
    assert all(spectrum.peak_indices is None for spectrum in derived)
    searches.clear()

    mixed = signatures_from_pseudospectra(engine_spectra[:2] + derived[2:])

    assert searches["signature"] == 1  # one stacked search for both derived rows
    expected = [AoASignature.from_pseudospectrum(spectrum)
                for spectrum in engine_spectra[:2] + derived[2:]]
    assert [s.peaks_deg for s in mixed] == [s.peaks_deg for s in expected]


def test_a_carried_list_is_cut_only_by_max_peaks():
    values = np.zeros(360)
    for index, height in [(10, 1.0), (100, 0.8), (200, 0.6), (300, 0.4), (330, 0.2)]:
        values[index] = height
    grid = np.arange(360.0)
    assert Pseudospectrum(grid, values).peak_indices is None
    full = peaks_module.find_peaks(values, wrap=True, min_separation=5)
    carried = Pseudospectrum.from_validated(grid, values, {}, peak_indices=tuple(full))
    assert carried.peak_indices == (10, 100, 200, 300, 330)
    signature = signatures_from_pseudospectra([carried])[0]
    assert signature.peaks_deg == [10.0, 100.0, 200.0, 300.0]
    assert signature.spectrum.peak_indices is None
