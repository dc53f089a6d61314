"""Executor backends: bit-identity matrix, file-queue protocol, crash recovery.

The campaign engine's core promise is that the merged result is a pure
function of the spec — not of the backend, worker count, scheduling, or crash
history.  These tests run one small campaign under every executor choice and
require the *bytes* of ``merged.json`` to be identical, then attack the
file-queue backend's recovery paths (orphaned leases, a worker killed
mid-run, an interrupted worker).
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    FileQueueBackend,
    ResultStore,
    RetryPolicy,
    SerialBackend,
    ShardFailure,
    get_adapter,
    run_campaign,
    run_worker,
)
from repro.campaign.backends import FileQueue

import repro


def small_spec():
    return get_adapter("figure5").default_spec(client_ids=(1, 2, 3, 4),
                                               num_packets=1)


def worker_env():
    """Subprocess environment that can ``import repro`` like this process."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_worker(store_root, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--queue", str(store_root),
         "--poll", "0.05", *extra],
        env=worker_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_until(predicate, timeout_s=120.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


@pytest.fixture(scope="module")
def reference_merged(tmp_path_factory):
    """The serial run's merged.json bytes (what every backend must hit)."""
    store = ResultStore(tmp_path_factory.mktemp("reference") / "campaign")
    run_campaign(small_spec(), workers=1, store=store)
    return store.merged_path.read_bytes()


def store_run(factory, tmp_path):
    """Run the small campaign with an explicit backend into a store."""
    store = ResultStore(tmp_path / "campaign")
    run = run_campaign(small_spec(), store=store, backend=factory())
    return run, store.merged_path.read_bytes()


def workers_run(workers, with_store):
    """Run the small campaign by worker count; merged.json bytes come from
    the store, or (private queue) from the run's own persistable result."""
    def execute(tmp_path):
        if with_store:
            store = ResultStore(tmp_path / "campaign")
            run = run_campaign(small_spec(), workers=workers, store=store)
            return run, store.merged_path.read_bytes()
        run = run_campaign(small_spec(), workers=workers)
        mirror = ResultStore(tmp_path / "mirror")
        mirror.save_merged(run.campaign_result())
        return run, mirror.merged_path.read_bytes()
    return execute


EXECUTORS = [
    ("serial", lambda tmp_path: store_run(SerialBackend, tmp_path)),
    ("workers-2-private", workers_run(2, with_store=False)),
    ("workers-4-store", workers_run(4, with_store=True)),
    ("file-queue-2", lambda tmp_path: store_run(
        lambda: FileQueueBackend(workers=2, poll_s=0.05, timeout_s=300.0),
        tmp_path)),
]


class TestBackendBitIdentity:
    @pytest.mark.parametrize("label,execute", EXECUTORS,
                             ids=[label for label, _ in EXECUTORS])
    def test_merged_json_byte_identical_across_backends(
            self, label, execute, tmp_path, reference_merged):
        run, merged = execute(tmp_path)
        assert run.executed == 4
        assert merged == reference_merged

    def test_explicit_backend_overrides_workers_heuristic(self, tmp_path):
        # workers=7 would mean the file queue; the explicit serial backend
        # wins.
        store = ResultStore(tmp_path / "campaign")
        run = run_campaign(small_spec(), workers=7, store=store,
                           backend=SerialBackend())
        assert run.executed == 4


class TestPrivateQueue:
    def private_dirs(self, root):
        return sorted(path.name for path in Path(root).iterdir())

    def test_private_store_is_removed_after_a_clean_run(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        seen = []
        run = run_campaign(
            small_spec(), workers=2,
            progress=lambda *_: seen.append(self.private_dirs(tmp_path)))
        assert run.complete
        # The workers really ran on a private store under the temp root ...
        assert seen and all(len(listing) == 1 for listing in seen)
        # ... and nothing of it survives the run.
        assert self.private_dirs(tmp_path) == []

    def test_private_store_is_removed_after_a_strict_failure(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = get_adapter("figure5").default_spec(client_ids=(1, 999),
                                                   num_packets=1)
        with pytest.raises(ShardFailure, match="unknown client id 999"):
            run_campaign(spec, workers=2, strict=True,
                         retry=RetryPolicy(max_attempts=1))
        assert self.private_dirs(tmp_path) == []


class TestFileQueueProtocol:
    def test_requires_a_store(self):
        with pytest.raises(ValueError, match="result store"):
            run_campaign(small_spec(),
                         backend=FileQueueBackend(workers=0, timeout_s=60.0))

    def test_claim_is_exclusive_and_release_clears(self, tmp_path):
        shards = small_spec().compile()
        queue = FileQueue(tmp_path)
        queue.build(shards)
        assert queue.ready
        leases = [queue.claim() for _ in range(len(shards) + 1)]
        assert leases[-1] is None  # nothing left to claim
        claimed = [lease for lease in leases if lease is not None]
        assert len(claimed) == len(shards)
        for lease in claimed:
            queue.release(lease)
        assert queue.empty

    def test_claim_starts_a_fresh_lease_clock(self, tmp_path):
        # os.rename preserves the source mtime, so without an explicit touch
        # a task enqueued long before its claim would count as instantly
        # expired — and get re-queued while its worker is mid-shard.
        queue = FileQueue(tmp_path)
        queue.build(small_spec().compile()[:1])
        task = next(iter(queue._entries(queue.tasks_dir)))
        stale = time.time() - 3600.0
        os.utime(task, (stale, stale))
        lease = queue.claim()
        assert time.time() - lease.stat().st_mtime < 60.0
        assert queue.requeue_expired(lease_timeout_s=60.0, done=set()) == []

    def test_expired_lease_requeues_without_record(self, tmp_path):
        queue = FileQueue(tmp_path)
        queue.build(small_spec().compile()[:2])
        lease = queue.claim()
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))
        # A fresh lease stays put; the stale one goes back to the task queue.
        fresh = queue.claim()
        requeued = queue.requeue_expired(lease_timeout_s=60.0, done=set())
        assert requeued == [0]
        assert not lease.exists()
        assert fresh.exists()
        assert queue.claim() is not None  # shard 0 is claimable again

    def test_lease_with_record_is_cleared_not_requeued(self, tmp_path):
        queue = FileQueue(tmp_path)
        queue.build(small_spec().compile()[:1])
        lease = queue.claim()
        stale = time.time() - 3600.0
        os.utime(lease, (stale, stale))
        assert queue.requeue_expired(lease_timeout_s=60.0, done={0}) == []
        assert queue.empty

    def test_failed_shard_raises_with_worker_traceback(self, tmp_path):
        # Client 999 does not exist; the worker quarantines the failure
        # (max_attempts=1: no retries) and the strict coordinator reports it
        # instead of spinning forever.
        spec = get_adapter("figure5").default_spec(client_ids=(1, 999),
                                                   num_packets=1)
        store = ResultStore(tmp_path / "campaign")
        backend = FileQueueBackend(workers=1, poll_s=0.05, timeout_s=300.0,
                                   keep_queue=True,
                                   retry=RetryPolicy(max_attempts=1))
        with pytest.raises(ShardFailure, match="unknown client id 999"):
            run_campaign(spec, store=store, backend=backend, strict=True)
        # The healthy shard's record still landed before the failure raised.
        assert 0 in store.completed_indices()


class TestWorkerLoop:
    def test_run_worker_drains_a_prebuilt_queue(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "campaign")
        store.save_spec(spec)
        FileQueue(store.root).build(spec.compile())
        result = run_worker(store.root, poll_s=0.05, exit_when_empty=True)
        assert result.executed == 4
        assert result.exit_code == 0
        assert store.completed_indices() == (0, 1, 2, 3)
        # A second worker finds nothing to do.
        again = run_worker(store.root, poll_s=0.05, exit_when_empty=True)
        assert again.executed == 0

    def test_never_ready_queue_raises_instead_of_fake_success(self, tmp_path):
        with pytest.raises(TimeoutError, match="never became ready"):
            run_worker(tmp_path / "nonexistent", poll_s=0.05,
                       exit_when_empty=True, startup_timeout_s=0.2)

    def test_max_shards_stops_early(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "campaign")
        store.save_spec(spec)
        FileQueue(store.root).build(spec.compile())
        result = run_worker(store.root, poll_s=0.05, max_shards=1,
                            exit_when_empty=True)
        assert result.executed == 1
        assert len(store.completed_indices()) == 1

    def test_interrupt_propagates_without_counting_an_attempt(
            self, tmp_path, monkeypatch):
        # Ctrl-C mid-shard stops the worker: the healthy shard is neither
        # charged an attempt nor quarantined (even with a one-attempt
        # budget), and the worker does not go on to the next shard.
        spec = small_spec()
        store = ResultStore(tmp_path / "campaign")
        store.save_spec(spec)
        queue = FileQueue(store.root)
        queue.build(spec.compile(), retry=RetryPolicy(max_attempts=1))

        def interrupted(spec, shard):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.campaign.worker.execute_shard", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_worker(store.root, poll_s=0.05, exit_when_empty=True)
        assert store.attempt_counts() == {}
        assert store.quarantined_indices() == ()
        assert store.completed_indices() == ()
        # The interrupted shard's lease stays for the coordinator to
        # re-queue; the other shards were never claimed.
        assert len(queue.leases()) == 1
        assert len(queue._entries(queue.tasks_dir)) == 3

    def test_interrupt_propagates_from_the_serial_backend(
            self, tmp_path, monkeypatch):
        def interrupted(spec, shard):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.campaign.engine.execute_shard", interrupted)
        store = ResultStore(tmp_path / "campaign")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_spec(), workers=1, store=store,
                         retry=RetryPolicy(max_attempts=1))
        assert store.attempt_counts() == {}
        assert store.quarantined_indices() == ()


class TestCrashRecovery:
    def test_killed_worker_mid_run_recovers_bit_identically(
            self, tmp_path, reference_merged):
        """Kill -9 one worker mid-campaign; the lease re-queues and a healthy
        worker finishes the campaign to the exact same merged bytes."""
        spec = small_spec()
        store = ResultStore(tmp_path / "campaign")
        backend = FileQueueBackend(workers=0, lease_timeout_s=1.5,
                                   poll_s=0.05, timeout_s=300.0)
        outcome = {}

        def coordinate():
            try:
                outcome["run"] = run_campaign(spec, store=store, backend=backend)
            except BaseException as error:  # surfaced after join
                outcome["error"] = error

        coordinator = threading.Thread(target=coordinate, daemon=True)
        coordinator.start()
        queue = FileQueue(store.root)
        assert wait_until(lambda: queue.ready)

        # The victim claims work; kill it the moment a lease appears (i.e.
        # mid-shard, before the record can land).
        victim = spawn_worker(store.root)
        healthy = None
        try:
            wait_until(lambda: queue._entries(queue.leases_dir)
                       or len(store.record_indices()) >= 4)
            victim.kill()
            victim.wait(timeout=30)
            # A healthy long-lived worker picks up the remaining tasks plus
            # the victim's shard once its lease expires.
            healthy = spawn_worker(store.root)
            coordinator.join(timeout=300)
            assert not coordinator.is_alive(), "campaign never completed"
        finally:
            for proc in (victim, healthy):
                if proc is not None and proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["run"].spec == spec
        assert store.merged_path.read_bytes() == reference_merged


class TestProgressHeartbeat:
    def test_progress_json_tracks_completion(self, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        run_campaign(small_spec(), workers=1, store=store)
        heartbeat = store.load_progress()
        assert heartbeat is not None
        assert heartbeat["total_shards"] == 4
        assert heartbeat["completed_shards"] == 4
        assert heartbeat["executed_this_run"] == 4
        assert heartbeat["done"] is True
        assert heartbeat["eta_s"] == 0.0
        assert heartbeat["throughput_shards_per_s"] > 0

    def test_resume_reports_only_new_executions(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "campaign")
        run_campaign(spec, workers=1, store=store)
        store.shard_path(2).unlink()
        run_campaign(spec, workers=1, store=store)
        heartbeat = store.load_progress()
        assert heartbeat["completed_shards"] == 4
        assert heartbeat["executed_this_run"] == 1
