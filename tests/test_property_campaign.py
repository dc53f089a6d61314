"""Property-based tests (hypothesis) for the campaign determinism kernel.

The whole distributed-campaign design rests on two small primitives — the
seed derivation in :mod:`repro.utils.rng` and the resume semantics of
:class:`~repro.campaign.store.ResultStore` — so those are tested over *input
spaces*, not hand-picked examples:

* ``derive_seed`` is deterministic, collision-free across a replicate
  sequence, and independent of the campaign's axes (shard orderings);
* deleting *any* subset of a store's shard records and resuming re-merges to
  byte-identical output, recomputing exactly the deleted shards.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ResultStore, get_adapter, run_campaign
from repro.utils.rng import derive_seed, ensure_rng

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDeriveSeedProperties:
    @given(seed=seeds, count=st.integers(1, 64))
    @settings(deadline=None)
    def test_deterministic_and_prefix_stable(self, seed, count):
        first = [derive_seed(ensure_rng(seed)) for _ in range(1)]
        sequence = self._derive(seed, count)
        again = self._derive(seed, count)
        assert sequence == again
        assert sequence[:1] == first
        # A longer campaign extends the seed sequence without rewriting it.
        assert self._derive(seed, count + 8)[:count] == sequence

    @given(seed=seeds, count=st.integers(2, 128))
    @settings(deadline=None)
    def test_collision_free_within_a_replicate_sequence(self, seed, count):
        sequence = self._derive(seed, count)
        assert len(set(sequence)) == count

    @given(seed=seeds, num_seeds=st.integers(1, 8),
           axis=st.lists(st.integers(0, 1000), min_size=1, max_size=6,
                         unique=True))
    @settings(deadline=None)
    def test_replicate_seeds_do_not_depend_on_shard_grid(self, seed,
                                                         num_seeds, axis):
        # Scheduling/grid shape must not perturb seed assignment: the spec
        # derives replicate seeds before any shard exists.
        gridded = CampaignSpec(experiment="figure5", seed=seed,
                               num_seeds=num_seeds,
                               axes={"client_id": tuple(axis)})
        bare = CampaignSpec(experiment="figure5", seed=seed,
                            num_seeds=num_seeds)
        assert gridded.replicate_seeds() == bare.replicate_seeds()
        shards = gridded.compile()
        assert [shard.seed for shard in shards] == [
            seed_value for seed_value in gridded.replicate_seeds()
            for _ in range(len(axis))
        ]

    @staticmethod
    def _derive(seed, count):
        master = ensure_rng(seed)
        return [derive_seed(master) for _ in range(count)]


@pytest.fixture(scope="module")
def store_baseline(tmp_path_factory):
    """One fully-run stored campaign: (spec, store root, merged bytes)."""
    spec = get_adapter("figure5").default_spec(client_ids=(1, 2, 3),
                                               num_packets=1)
    root = tmp_path_factory.mktemp("property-store") / "campaign"
    store = ResultStore(root)
    run_campaign(spec, workers=1, store=store)
    return spec, root, store.merged_path.read_bytes()


class TestResultStoreResumeProperties:
    @given(deleted=st.sets(st.integers(0, 2), max_size=3))
    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_deleted_record_subset_re_merges_identically(
            self, store_baseline, deleted):
        spec, root, merged = store_baseline
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch) / "campaign"
            shutil.copytree(root, copy)
            store = ResultStore(copy)
            for index in deleted:
                store.shard_path(index).unlink()
            untouched = {
                path: path.stat().st_mtime_ns
                for path in store.shard_dir.glob("shard-*.json")
            }
            resumed = run_campaign(spec, workers=1, store=store)
            # Exactly the deleted shards re-ran; the rest were not rewritten.
            assert resumed.executed == len(deleted)
            for path, mtime in untouched.items():
                assert path.stat().st_mtime_ns == mtime
            assert store.merged_path.read_bytes() == merged
