"""Adapter conformance: every registered campaign adapter, automatically.

The suite discovers adapters through the ``CAMPAIGNS`` registry, so a newly
registered experiment is covered without writing new tests — it only needs a
tiny-grid entry in ``TINY`` below (and the suite fails loudly until it gets
one).  For each adapter it checks the contract the engine relies on:

* ``axis_names`` is declared and covers the default spec's axes;
* the default spec compiles to its canonical shard list and round-trips
  through JSON losslessly (shards included);
* the shards tile the experiment's capture sequence: on every AP, each
  shard draws a prefix all shards share plus its own slice of capture
  ordinals, and the slices follow each other in point order with no gap and
  no overlap — the order one pass over the grid would draw them in.
"""

import pytest

from repro.campaign import CAMPAIGNS, CampaignSpec, ShardSpec, get_adapter, run_campaign
from repro.testbed import scenario

#: Tiny-grid ``default_spec`` kwargs per adapter.  Every adapter in
#: ``CAMPAIGNS`` must have an entry — ``test_has_tiny_grid_entry`` enforces
#: it for future adapters.
TINY = {
    "figure5": dict(client_ids=(1, 2), num_packets=2),
    "figure6": dict(client_ids=(2, 5), time_offsets_s=(0.0, 1.0, 10.0)),
    "figure7": dict(antenna_counts=(2, 4, 8), num_packets=2),
    "roc": dict(num_training_packets=2, num_probe_packets=2,
                attacker_client_ids=(3, 9)),
    "spoofing_eval": dict(num_training_packets=2, num_test_packets=3),
    "calibration_ablation": dict(client_ids=(1, 3), packets_per_client=2),
    "estimator_comparison": dict(client_ids=(13, 14), packets_per_client=2),
    "snr_sweep": dict(tx_powers_dbm=(-45.0, 15.0), client_ids=(1, 5),
                      packets_per_point=2),
    "packets_per_signature": dict(training_sizes=(1, 2), num_probe_packets=2),
    "fence_eval": dict(client_ids=(1, 2), outdoor_labels=("street-east",),
                       packets_per_transmitter=1),
    "mobility": dict(num_samples=3),
    "beamforming": dict(client_ids=(1, 2)),
    "replay_eval": dict(num_training_packets=2, num_test_packets=3),
    "reflector_eval": dict(num_training_packets=2, num_test_packets=3),
    "swarm_eval": dict(num_training_packets=2, num_test_packets=3),
    "cfo_drift_eval": dict(num_training_packets=2, num_test_packets=3),
}

ADAPTER_NAMES = CAMPAIGNS.names()


def tiny_spec(name: str) -> CampaignSpec:
    return get_adapter(name).default_spec(**TINY[name])


class OrdinalSpy:
    """Records, per AP, each capture a shard draws: its ordinal and its
    request (transmitter position and elapsed time).

    An ordinal advances by one per captured request and by ``k`` per
    ``skip_captures(k)``; APs are told apart by their position.
    """

    def __init__(self, monkeypatch):
        self.drawn = {}
        self._next = {}
        capture_batch = scenario.TestbedSimulator.capture_batch
        skip_captures = scenario.TestbedSimulator.skip_captures

        def recording_capture_batch(simulator, requests, *args, **kwargs):
            captures = capture_batch(simulator, requests, *args, **kwargs)
            first = self._advance(simulator, len(captures))
            self._ap(simulator).extend(
                (first + offset,
                 (request.position.x, request.position.y, request.elapsed_s))
                for offset, request in enumerate(requests))
            return captures

        def recording_skip_captures(simulator, num_captures):
            skip_captures(simulator, num_captures)
            self._ap(simulator)
            self._advance(simulator, num_captures)

        monkeypatch.setattr(scenario.TestbedSimulator, "capture_batch",
                            recording_capture_batch)
        monkeypatch.setattr(scenario.TestbedSimulator, "skip_captures",
                            recording_skip_captures)

    def reset(self):
        self.drawn = {}
        self._next = {}

    def _ap(self, simulator):
        return self.drawn.setdefault(
            (simulator.ap_position.x, simulator.ap_position.y), [])

    def _advance(self, simulator, count):
        first = self._next.get(id(simulator), 0)
        self._next[id(simulator)] = first + count
        return first


def shared_prefix(per_shard):
    """How many leading captures every shard draws identically: ordinals
    0, 1, ... with the same requests in every shard."""
    reference = per_shard[0]
    length = 0
    while (length < len(reference) and reference[length][0] == length
           and all(len(draws) > length and draws[length] == reference[length]
                   for draws in per_shard)):
        length += 1
    return length


@pytest.mark.parametrize("name", ADAPTER_NAMES)
class TestAdapterConformance:
    def test_has_tiny_grid_entry(self, name):
        assert name in TINY, (
            f"campaign adapter {name!r} has no tiny-grid entry in TINY; add "
            "one so the conformance suite covers it")

    def test_declares_axes_covering_the_default_spec(self, name):
        adapter = get_adapter(name)
        assert adapter.axis_names, f"{name} declares no axis names"
        spec = tiny_spec(name)
        assert spec.experiment == name
        assert set(spec.axes) <= set(adapter.axis_names)
        # The declaration is enforced: an unknown axis must be rejected.
        bogus = spec.with_overrides(axes={"bogus-axis": (1,)})
        with pytest.raises(ValueError, match="does not shard over"):
            run_campaign(bogus, workers=1)

    def test_spec_compiles_canonically_and_round_trips(self, name):
        spec = tiny_spec(name)
        assert CampaignSpec.from_json(spec.to_json()) == spec
        shards = spec.compile()
        assert len(shards) == spec.num_shards
        assert [shard.index for shard in shards] == list(range(len(shards)))
        for shard in shards:
            assert ShardSpec.from_json(shard.to_json()) == shard
        # Compilation is deterministic: a recompiled plan is identical.
        assert spec.compile() == shards

    def test_shards_tile_the_capture_sequence(self, name, monkeypatch):
        # Guards each shard runner's capture-prefix accounting: a slice that
        # skips too few or too many ordinals (or skips on too few APs)
        # overlaps or leaves a gap.
        spec = tiny_spec(name)
        adapter = get_adapter(name)
        spy = OrdinalSpy(monkeypatch)
        draws = []
        for shard in spec.compile():
            spy.reset()
            adapter.run_shard(spec, shard)
            draws.append(spy.drawn)
        aps = set(draws[0])
        assert aps and all(set(drawn) == aps for drawn in draws), name
        for ap in aps:
            per_shard = [drawn[ap] for drawn in draws]
            prefix = shared_prefix(per_shard)
            # Ordinals only grow, so consecutive concatenated slices mean
            # each slice is contiguous and they meet without gap or overlap.
            tiled = [ordinal for shard_draws in per_shard
                     for ordinal, _request in shard_draws[prefix:]]
            assert tiled == list(range(prefix, prefix + len(tiled))), (name, ap)
