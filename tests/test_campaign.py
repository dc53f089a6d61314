"""Campaign engine: spec compilation, determinism, resume, replicates."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RetryPolicy,
    ShardFailure,
    ShardSpec,
    StoreMismatchError,
    execute_shard,
    get_adapter,
    run_campaign,
)
from repro.experiments.figure5 import run_figure5


# A small figure5 campaign shared by the determinism tests.
def small_figure5_spec(client_ids=(1, 2, 3, 4), num_packets=2):
    return get_adapter("figure5").default_spec(client_ids=client_ids,
                                               num_packets=num_packets)


# -------------------------------------------------------------- capture skip
class TestSkipCaptures:
    def test_simulator_skip_matches_real_captures(self):
        from repro.api import Deployment, single_ap_scenario

        serial = Deployment(single_ap_scenario(), rng=11)
        for index in range(3):
            serial.simulator().capture_from_client(1, elapsed_s=index * 0.5)
        reference = serial.simulator().capture_from_client(2, elapsed_s=0.0)

        jumped = Deployment(single_ap_scenario(), rng=11)
        jumped.simulator().skip_captures(3)
        capture = jumped.simulator().capture_from_client(2, elapsed_s=0.0)
        assert capture.samples.tobytes() == reference.samples.tobytes()

    def test_negative_skip_rejected(self):
        from repro.api import Deployment, single_ap_scenario

        with pytest.raises(ValueError):
            Deployment(single_ap_scenario(), rng=0).simulator().skip_captures(-1)


# ---------------------------------------------------------------------- spec
class TestCampaignSpec:
    def test_compile_orders_shards_canonically(self):
        spec = CampaignSpec(experiment="figure5", seeds=(7, 8),
                            axes={"a": (1, 2), "b": (10, 20)})
        shards = spec.compile()
        assert [shard.index for shard in shards] == list(range(8))
        assert [shard.params for shard in shards][:4] == [
            {"a": 1, "b": 10}, {"a": 1, "b": 20},
            {"a": 2, "b": 10}, {"a": 2, "b": 20},
        ]
        assert [shard.seed for shard in shards] == [7] * 4 + [8] * 4
        assert [shard.replicate for shard in shards] == [0] * 4 + [1] * 4
        assert [shard.point for shard in shards] == [0, 1, 2, 3] * 2
        assert spec.num_shards == 8

    def test_derived_seeds_are_deterministic_and_canonical(self):
        spec = CampaignSpec(experiment="figure5", seed=123, num_seeds=3)
        assert spec.replicate_seeds() == spec.replicate_seeds()
        # Prefix-stable: fewer replicates are a prefix of more replicates.
        wider = CampaignSpec(experiment="figure5", seed=123, num_seeds=5)
        assert wider.replicate_seeds()[:3] == spec.replicate_seeds()

    def test_json_round_trip(self):
        spec = get_adapter("roc").default_spec(num_probe_packets=2)
        assert CampaignSpec.from_json(spec.to_json()) == spec
        shard = spec.compile()[1]
        assert ShardSpec.from_json(shard.to_json()) == shard

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(experiment="")
        with pytest.raises(ValueError):
            CampaignSpec(num_seeds=0)
        with pytest.raises(ValueError):
            CampaignSpec(axes={"empty": ()})
        with pytest.raises(ValueError):
            CampaignSpec(seeds=())

    def test_with_overrides_merges_base_and_axes(self):
        spec = small_figure5_spec()
        updated = spec.with_overrides(base={"num_packets": 5},
                                      axes={"client_id": (9,)},
                                      seeds=(1, 2))
        assert updated.base["num_packets"] == 5
        assert updated.base["confidence"] == spec.base["confidence"]
        assert updated.axes["client_id"] == (9,)
        assert updated.replicate_seeds() == (1, 2)


# --------------------------------------------------------------- determinism
class TestCampaignDeterminism:
    def test_workers_1_vs_4_bit_identical(self):
        spec = small_figure5_spec()
        serial_run = run_campaign(spec, workers=1)
        pooled_run = run_campaign(spec, workers=4)
        assert serial_run.result.to_json() == pooled_run.result.to_json()

    # (Per-adapter capture-slice tiling lives in the auto-discovering
    # conformance suite: tests/test_campaign_conformance.py.)

    def test_unknown_axis_is_rejected_before_execution(self):
        # A typo'd --axis would otherwise multiply shards and silently
        # desynchronise the capture-slice arithmetic.
        spec = small_figure5_spec().with_overrides(axes={"bogus": (1, 2)})
        with pytest.raises(ValueError, match="does not shard over"):
            run_campaign(spec, workers=1)

    def test_single_shard_execution_matches_engine(self):
        spec = small_figure5_spec(client_ids=(2,), num_packets=2)
        shard = spec.compile()[0]
        record = execute_shard(spec, shard)
        run = run_campaign(spec, workers=1)
        assert record.result == run.records[0].result


# -------------------------------------------------------------------- resume
class TestResume:
    def test_resume_after_partial_run_is_bit_identical(self, tmp_path):
        spec = small_figure5_spec()
        store = ResultStore(tmp_path / "campaign")
        run_campaign(spec, workers=2, store=store)
        merged = store.merged_path.read_bytes()

        # Simulate a killed run: one shard record lost.
        store.shard_path(1).unlink()
        kept = {path: path.stat().st_mtime_ns
                for path in store.shard_dir.glob("shard-*.json")}
        resumed = run_campaign(spec, workers=4, store=store)

        assert resumed.executed == 1
        assert store.merged_path.read_bytes() == merged
        # Completed shards were not recomputed (their records untouched).
        for path, mtime in kept.items():
            assert path.stat().st_mtime_ns == mtime

    def test_full_store_resumes_without_executing(self, tmp_path):
        spec = small_figure5_spec(client_ids=(1, 2), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        assert run_campaign(spec, workers=1, store=store).executed == 2
        assert run_campaign(spec, workers=1, store=store).executed == 0

    def test_spec_mismatch_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        run_campaign(small_figure5_spec(client_ids=(1,), num_packets=2),
                     workers=1, store=store)
        with pytest.raises(StoreMismatchError):
            run_campaign(small_figure5_spec(client_ids=(2,), num_packets=2),
                         workers=1, store=store)

    def test_stale_record_is_rejected(self, tmp_path):
        spec = small_figure5_spec(client_ids=(1, 2), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        run_campaign(spec, workers=1, store=store)
        # Tamper with a record's identity (as a stale/foreign store would).
        path = store.shard_path(0)
        data = json.loads(path.read_text())
        data["seed"] += 1
        path.write_text(json.dumps(data))
        store.spec_path.unlink()  # force save_spec to accept, records to fail
        with pytest.raises(StoreMismatchError):
            run_campaign(spec, workers=1, store=store)

    def test_failing_shard_still_persists_completed_work(self, tmp_path):
        # Client 999 does not exist, so its shard raises in the worker; the
        # healthy shards' records must still land in the store so a resume
        # (with the bad axis value fixed or the bug fixed) skips them, and
        # the poison shard parks in quarantine instead of failing the run.
        spec = small_figure5_spec(client_ids=(1, 999, 2), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        run = run_campaign(spec, workers=3, store=store,
                           retry=RetryPolicy(max_attempts=1))
        completed = store.completed_indices()
        assert 1 not in completed
        assert set(completed) == {0, 2}
        assert not run.complete
        assert [entry.index for entry in run.quarantined] == [1]
        assert "unknown client id 999" in run.quarantined[0].error
        # A quarantined campaign never masquerades as the merged artifact.
        assert not store.merged_path.exists()

    def test_strict_mode_fails_fast_on_exhausted_shard(self, tmp_path):
        spec = small_figure5_spec(client_ids=(1, 999, 2), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        with pytest.raises(ShardFailure, match="unknown client id 999"):
            run_campaign(spec, workers=3, store=store, strict=True,
                         retry=RetryPolicy(max_attempts=1))
        # The healthy shards' work still landed before strict raised.
        assert set(store.completed_indices()) == {0, 2}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        spec = small_figure5_spec(client_ids=(1,), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        run_campaign(spec, workers=1, store=store)
        assert not list(store.root.rglob("*.tmp"))

    def test_merged_result_revives(self, tmp_path):
        spec = small_figure5_spec(client_ids=(1, 2), num_packets=2)
        store = ResultStore(tmp_path / "campaign")
        run = run_campaign(spec, workers=1, store=store)
        merged = store.load_merged()
        adapter = get_adapter(spec.experiment)
        revived = adapter.result_type.from_dict(merged.results[0])
        assert revived.to_json() == run.result.to_json()


# ---------------------------------------------------------------- replicates
class TestReplicates:
    def test_multi_seed_campaign_produces_one_result_per_seed(self):
        spec = small_figure5_spec(client_ids=(1, 2), num_packets=2)
        spec = spec.with_overrides(seeds=(42, 43))
        run = run_campaign(spec, workers=2)
        assert len(run.results) == 2
        # Replicate 0 is the pinned-seed serial experiment; replicate 1 differs.
        serial = run_figure5(num_packets=2, client_ids=(1, 2))
        assert run.results[0].to_json() == serial.to_json()
        assert run.results[1].to_json() != serial.to_json()
