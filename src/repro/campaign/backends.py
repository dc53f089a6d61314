"""Campaign executor backends.

The engine plans a campaign (compile shards, load resumable records, merge);
*how* the pending shards get executed is a backend decision, and the worker
count makes it (``run_campaign(workers=N)`` / ``--workers N``):

* :class:`SerialBackend` (``workers=1``) — in-process, in order.  No
  pickling, no child processes: the backend to debug a shard under.
* :class:`FileQueueBackend` (``workers=N`` for ``N >= 2``; ``0`` for external
  workers only) — scatter/gather over a result store.  The coordinator
  enqueues one task file per pending shard under the store; worker processes
  claim tasks via atomic rename, execute them, and write records into the
  shared :class:`~repro.campaign.store.ResultStore`.  Its ``N`` local workers
  are forked processes running the same
  :func:`~repro.campaign.worker.run_worker` loop as ``python -m repro worker
  --queue DIR``, which any other host that mounts the store can add.  Without
  a store, the local workers share a private temporary one.

Fault tolerance:

* both backends judge a failed attempt with the same
  :meth:`~repro.campaign.retry.RetryPolicy.after_failure` — a failing shard
  is re-attempted with exponential, deterministically jittered backoff, its
  attempt count persisted in the store's ``attempts/`` directory, and a shard
  that exhausts the budget is *parked* (handed to the engine's ``park``
  callback, which quarantines it) instead of failing the whole campaign;
* file-queue workers heartbeat their leases (``leases/<task>.heartbeat``),
  so the coordinator re-queues a shard only when the *heartbeat* goes stale
  — a slow-but-alive worker keeps its lease for as long as it keeps
  beating, while a dead worker's shard returns to the queue after
  ``lease_timeout_s`` (and a crashed local worker is respawned);
* near the campaign tail the file-queue coordinator re-dispatches
  stragglers: when few shards remain and one has been running far longer
  than the completed-shard median, its task is speculatively re-enqueued and
  whichever record lands first wins (records are bit-identical, so the
  duplicate is harmless).

Both backends feed the same ``land`` callback and the merge consumes
JSON-canonicalised records in shard-index order, so the merged campaign
result is bit-identical whichever backend (and however many workers,
wherever they run, however many retries and re-dispatches it took) executed
the shards.
"""

from __future__ import annotations

import abc
import contextlib
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.campaign.retry import RetryPolicy
from repro.campaign.spec import CampaignSpec, ShardSpec
from repro.campaign.store import (
    QuarantineEntry,
    ResultStore,
    fsync_directory,
    write_atomic,
)

__all__ = [
    "ExecutorBackend",
    "FileQueue",
    "FileQueueBackend",
    "SerialBackend",
    "ShardFailure",
    "quarantine_summary",
]

#: Landing callback the engine hands to a backend: ``land(record)`` registers
#: a completed shard (and persists it unless ``persisted`` says the record is
#: already in the store, as file-queue workers write their own records).
LandCallback = Callable[..., None]

#: Parking callback: ``park(entry)`` registers a shard that exhausted its
#: retry budget (``persisted=True`` when the entry is already quarantined in
#: the store, as file-queue workers quarantine their own shards).
ParkCallback = Callable[..., None]


class ShardFailure(RuntimeError):
    """One or more shards failed to execute."""


def quarantine_summary(entries: Dict[int, QuarantineEntry],
                       store: Optional[ResultStore]) -> str:
    """One aggregated report covering *every* parked shard.

    Lists each failed shard's index, attempt count, terminal error line, and
    quarantine-entry path (so nothing hides behind "first failure wins"),
    then appends the first shard's full traceback for immediate diagnosis.
    """
    lines = [f"{len(entries)} shard(s) exhausted their retry budget:"]
    for index in sorted(entries):
        entry = entries[index]
        where = (str(store.quarantine_path(index)) if store is not None
                 else "(in-memory)")
        error_lines = entry.error.strip().splitlines()
        last = error_lines[-1] if error_lines else "unknown error"
        lines.append(f"  shard {index}: {entry.attempts} attempt(s), "
                     f"{last} [{where}]")
    first = entries[min(entries)]
    lines.append(f"first failed shard ({min(entries)}) traceback:")
    lines.append(first.error.rstrip())
    return "\n".join(lines)


def _attempt_counter(store: Optional[ResultStore]) -> Callable[[int, str], int]:
    """Per-shard attempt bumping: store-backed when available, else local."""
    if store is not None:
        return store.bump_attempts
    counts: Dict[int, int] = {}

    def bump(index: int, error: str) -> int:
        counts[index] = counts.get(index, 0) + 1
        return counts[index]

    return bump


class ExecutorBackend(abc.ABC):
    """How a campaign's pending shards get executed."""

    @abc.abstractmethod
    def execute(self, spec: CampaignSpec, pending: Sequence[ShardSpec],
                land: LandCallback, store: Optional[ResultStore],
                park: ParkCallback) -> None:
        """Execute ``pending`` shards, calling ``land`` for each record.

        ``land`` may be called in any completion order; the engine re-orders
        records canonically before merging.  ``park`` receives each shard
        that exhausted the retry budget; the engine decides whether that
        fails the run.
        """


class SerialBackend(ExecutorBackend):
    """Execute shards in-process, in canonical order (the debug backend)."""

    def __init__(self, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = retry

    def execute(self, spec: CampaignSpec, pending: Sequence[ShardSpec],
                land: LandCallback, store: Optional[ResultStore],
                park: ParkCallback) -> None:
        from repro.campaign.engine import execute_shard

        retry = self.retry if self.retry is not None else RetryPolicy()
        bump = _attempt_counter(store)
        for shard in pending:
            while True:
                try:
                    record = execute_shard(spec, shard)
                except Exception:
                    verdict = retry.after_failure(shard, bump, "serial")
                    if isinstance(verdict, QuarantineEntry):
                        park(verdict)
                        break
                    time.sleep(verdict)
                else:
                    land(record)
                    break


class FileQueue:
    """The on-disk task queue of a file-queue campaign.

    Lives inside the result store (``<store>/queue``) so one shared directory
    carries the whole protocol:

    * ``tasks/task-00042.json`` — a pending shard (its ``ShardSpec`` JSON); a
      task whose mtime lies in the *future* is deferred — a retry waiting out
      its backoff — and is skipped by :meth:`claim` until the time arrives;
    * ``leases/task-00042.json`` — a shard some worker has claimed; the
      claim is the atomic ``os.rename`` from ``tasks/`` (exactly one worker
      can win it), and the lease file's mtime is the claim time;
    * ``leases/task-00042.heartbeat`` — the claiming worker's liveness
      beacon, atomically refreshed every ``--heartbeat`` seconds while the
      shard executes.  The coordinator re-queues a lease only when *both*
      the lease and its heartbeat are stale, so a slow-but-alive worker is
      never preempted;
    * ``retry.json`` — the coordinator's :class:`RetryPolicy`, persisted
      before the queue opens so detached workers apply the same budget;
    * ``ready`` — marker written after every task is enqueued, so workers
      that start before the coordinator never see a half-built queue.

    Shard *failures* are not queue state: workers persist attempt counts and
    quarantine entries in the :class:`~repro.campaign.store.ResultStore`
    (surviving both worker and coordinator crashes), and re-queue their own
    failed shard with a backoff-deferred task file while budget remains.
    """

    QUEUE_DIR = "queue"
    RETRY_FILE = "retry.json"

    def __init__(self, store_root: Union[str, Path]) -> None:
        self.root = Path(store_root) / self.QUEUE_DIR
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.ready_marker = self.root / "ready"
        self.retry_path = self.root / self.RETRY_FILE

    # ------------------------------------------------------------- coordinator
    def build(self, shards: Sequence[ShardSpec],
              retry: Optional[RetryPolicy] = None) -> None:
        """(Re)build the queue with one task per shard, then open it."""
        if self.root.exists():
            shutil.rmtree(self.root)
        for directory in (self.tasks_dir, self.leases_dir):
            directory.mkdir(parents=True, exist_ok=True)
        for shard in shards:
            # Queue protocol file, not a store record: workers only read
            # tasks after the ready marker lands, and build() rebuilds the
            # whole queue from scratch, so a torn task file cannot survive.
            self._task_path(self.tasks_dir, shard.index).write_text(  # repro-lint: disable=atomic-write
                shard.to_json() + "\n", encoding="utf-8")
        # The retry policy ships with the queue (also pre-ready, so workers
        # never observe it torn); workers fall back to the default when the
        # file is absent (a queue built by an older coordinator).
        self.retry_path.write_text(  # repro-lint: disable=atomic-write
            (retry if retry is not None else RetryPolicy()).to_json() + "\n",
            encoding="utf-8")
        fsync_directory(self.tasks_dir)
        # Single-block marker written after every task is in place; a torn
        # marker just means "not ready yet" and the coordinator rebuilds.
        self.ready_marker.write_text("ready\n", encoding="utf-8")  # repro-lint: disable=atomic-write
        fsync_directory(self.root)

    def requeue_expired(self, lease_timeout_s: float,
                        done: Set[int]) -> List[int]:
        """Return dead-worker leases to the task queue (crash recovery).

        A lease whose shard is still unaccounted for and whose freshest
        liveness signal — the lease's claim time or its heartbeat, whichever
        is newer — is older than ``lease_timeout_s`` means the worker died
        (or lost the plot) mid-shard; the task goes back to ``tasks/`` for
        any live worker to claim.  A heartbeating worker therefore keeps its
        lease indefinitely, however slow the shard.  Leases for ``done``
        shards (recorded or quarantined) are simply cleared.
        """
        requeued: List[int] = []
        now = time.time()
        for lease in self._entries(self.leases_dir):
            index = self._task_index(lease)
            if index is None:
                continue
            heartbeat = self.heartbeat_path(lease)
            if index in done:
                self._unlink(lease)
                self._unlink(heartbeat)
                continue
            try:
                fresh = lease.stat().st_mtime
            except OSError:  # the worker just finished or got requeued
                continue
            with contextlib.suppress(OSError):
                fresh = max(fresh, heartbeat.stat().st_mtime)
            if now - fresh < lease_timeout_s:
                continue
            try:
                os.rename(lease, self._task_path(self.tasks_dir, index))
            except OSError:
                continue
            self._unlink(heartbeat)
            requeued.append(index)
        return requeued

    def speculate(self, shard: ShardSpec) -> None:
        """Re-enqueue a *leased* shard's task (straggler re-dispatch).

        The straggler keeps its lease and keeps running; another worker can
        claim the duplicate task and race it.  Records are bit-identical, so
        whichever lands first wins and the loser's write is a no-op.
        """
        write_atomic(self._task_path(self.tasks_dir, shard.index),
                     shard.to_json() + "\n")

    def retire(self, index: int) -> None:
        """Drop every queue artifact of a finished (or quarantined) shard."""
        lease = self._task_path(self.leases_dir, index)
        self._unlink(self._task_path(self.tasks_dir, index))
        self._unlink(lease)
        self._unlink(self.heartbeat_path(lease))

    def leases(self) -> List[Path]:
        """The currently claimed lease files (heartbeats excluded)."""
        return self._entries(self.leases_dir)

    def destroy(self) -> None:
        """Remove the queue directory (after a fully-landed campaign)."""
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------ worker
    @property
    def ready(self) -> bool:
        """True once the coordinator has finished enqueueing tasks."""
        return self.ready_marker.exists()

    def load_retry(self) -> RetryPolicy:
        """The queue's retry policy (the default for pre-policy queues)."""
        try:
            return RetryPolicy.load_json(self.retry_path)
        except (OSError, ValueError):
            return RetryPolicy()

    def claim(self) -> Optional[Path]:
        """Claim one pending task via atomic rename; ``None`` when empty.

        The returned path is the caller's lease file: it holds the shard
        spec, and its existence (with a fresh mtime, kept alive by
        :meth:`beat`) is what keeps the coordinator from re-queueing the
        shard.  Tasks deferred into the future by retry backoff are skipped
        until their time arrives.
        """
        now = time.time()
        for task in self._entries(self.tasks_dir):
            try:
                if task.stat().st_mtime > now:
                    continue  # a retry still waiting out its backoff
            except OSError:  # claimed (or retired) under us
                continue
            lease = self.leases_dir / task.name
            try:
                os.rename(task, lease)
            except OSError:  # another worker won the rename
                continue
            # Start the lease clock now: the rename preserved the *task*
            # file's mtime (its enqueue time), which would make any claim
            # late in a long campaign look instantly expired.
            with contextlib.suppress(OSError):
                os.utime(lease)
            # A previous holder's heartbeat must not vouch for us.
            self._unlink(self.heartbeat_path(lease))
            return lease
        return None

    def beat(self, lease: Path) -> None:
        """Refresh the lease's heartbeat (atomic; liveness is the mtime)."""
        with contextlib.suppress(OSError):
            write_atomic(self.heartbeat_path(lease), f"{time.time():.3f}\n",
                         durable=False)

    def release(self, lease: Path) -> None:
        """Drop a lease after its record landed (missing is fine)."""
        self._unlink(lease)
        self._unlink(self.heartbeat_path(lease))

    def requeue_with_backoff(self, lease: Path, delay_s: float) -> None:
        """Return a failed lease to the queue, deferred by ``delay_s``.

        The shard's task file is rewritten atomically with its mtime pushed
        ``delay_s`` into the future, which :meth:`claim` honours as
        "not claimable yet" — backoff without making any worker sleep.  The
        task is written before the lease is dropped, so a crash in between
        leaves both (harmless: the claim rename simply replaces the stale
        lease) rather than neither.
        """
        try:
            text = lease.read_text(encoding="utf-8")
        except OSError:  # the coordinator re-queued it under us
            return
        task = self.tasks_dir / lease.name
        write_atomic(task, text)
        if delay_s > 0:
            due = time.time() + delay_s
            with contextlib.suppress(OSError):
                os.utime(task, (due, due))
        self._unlink(lease)
        self._unlink(self.heartbeat_path(lease))

    @property
    def empty(self) -> bool:
        """True when no task is pending or claimed."""
        return (not self._entries(self.tasks_dir)
                and not self._entries(self.leases_dir))

    @property
    def has_pending_tasks(self) -> bool:
        """True while unclaimed tasks exist (claimed leases do not count).

        Backoff-deferred tasks count: they will become claimable without any
        coordinator action, so an ``--exit-when-empty`` worker must not exit
        while one exists.
        """
        return bool(self._entries(self.tasks_dir))

    # --------------------------------------------------------------- internals
    @staticmethod
    def heartbeat_path(lease: Path) -> Path:
        """The heartbeat beacon beside a lease (or task) file."""
        return lease.with_suffix(".heartbeat")

    @staticmethod
    def _task_path(directory: Path, index: int) -> Path:
        return directory / f"task-{index:05d}.json"

    @staticmethod
    def _task_index(path: Path) -> Optional[int]:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return None

    @staticmethod
    def _entries(directory: Path) -> List[Path]:
        # The suffix filter keeps heartbeat beacons (task-00042.heartbeat)
        # out of the task/lease listings.
        try:
            return sorted(path for path in directory.iterdir()
                          if path.name.startswith("task-")
                          and path.suffix == ".json")
        except OSError:
            return []

    @staticmethod
    def _unlink(path: Path) -> None:
        with contextlib.suppress(OSError):
            os.unlink(path)


def _local_worker(store_root: str, ordinal: int, poll_s: float,
                  heartbeat_s: float) -> None:
    """Body of a forked local worker: ``python -m repro worker
    --exit-when-empty`` without the interpreter start-up.

    Everything the worker prints goes to ``queue/worker-<ordinal>.log``; the
    process exit code is :attr:`~repro.campaign.worker.WorkerResult.exit_code`.
    """
    from repro.campaign.worker import run_worker

    # The coordinator may have turned SIGTERM into an interrupt; its own
    # terminate() of this worker should still end it at once.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    log_path = FileQueue(store_root).root / f"worker-{ordinal}.log"
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    for stream in (1, 2):
        os.dup2(log, stream)
    os.close(log)
    # The inherited Python streams may be wrappers of the parent's (a test
    # runner's capture, say); rebind them to the log descriptors.
    sys.stdout = os.fdopen(1, "w", buffering=1, closefd=False)
    sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    result = run_worker(store_root, poll_s=poll_s, exit_when_empty=True,
                        heartbeat_s=heartbeat_s)
    sys.exit(result.exit_code)


class FileQueueBackend(ExecutorBackend):
    """Scatter shards to file-queue workers over a shared filesystem.

    ``workers`` local worker processes are forked for the run (``0`` means
    the operator runs every worker externally — other terminals, other
    hosts — which needs a store they can all see).  Without a store, the
    local workers share a private temporary one that is removed however the
    run ends.  The coordinator itself executes nothing: it enqueues tasks,
    polls the store for landed records and quarantined shards, re-queues
    leases whose heartbeat went stale, speculatively re-dispatches stragglers
    near the tail, and keeps the local worker population alive until the
    campaign drains.
    """

    def __init__(self, workers: int = 0, lease_timeout_s: float = 60.0,
                 poll_s: float = 0.2, timeout_s: Optional[float] = None,
                 keep_queue: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 heartbeat_s: Optional[float] = None,
                 speculate_factor: float = 3.0,
                 speculate_tail_frac: float = 0.1,
                 speculate_min_records: int = 3) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        if heartbeat_s is None:
            # Several beats per lease timeout, without busy-writing.
            heartbeat_s = max(0.05, min(5.0, lease_timeout_s / 4.0))
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if speculate_factor <= 0:
            raise ValueError("speculate_factor must be positive")
        if not 0 < speculate_tail_frac <= 1:
            raise ValueError("speculate_tail_frac must be in (0, 1]")
        if speculate_min_records < 1:
            raise ValueError("speculate_min_records must be at least 1")
        self.workers = workers
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.keep_queue = keep_queue
        self.retry = retry
        self.heartbeat_s = heartbeat_s
        self.speculate_factor = speculate_factor
        self.speculate_tail_frac = speculate_tail_frac
        self.speculate_min_records = speculate_min_records

    # ---------------------------------------------------------------- spawning
    def _spawn_worker(self, store: ResultStore,
                      ordinal: int) -> multiprocessing.Process:
        process = multiprocessing.Process(
            target=_local_worker, name=f"repro-worker-{ordinal}", daemon=True,
            args=(str(store.root), ordinal, self.poll_s, self.heartbeat_s))
        process.start()
        return process

    # ------------------------------------------------------------- speculation
    def _respeculate(self, queue: FileQueue,
                     by_index: Dict[int, ShardSpec], missing: Set[int],
                     elapsed: List[float], total: int,
                     speculated: Set[int]) -> None:
        """Re-dispatch tail stragglers running far beyond the median.

        Only in the campaign tail (at most ``speculate_tail_frac`` of the
        shards still missing), only with enough completed shards for the
        median to mean something, and at most once per shard — speculation
        trades a duplicate execution for tail latency, and an unbounded
        version would stampede the queue.
        """
        if len(missing) > max(1, int(self.speculate_tail_frac * total)):
            return
        if len(elapsed) < self.speculate_min_records:
            return
        median = statistics.median(elapsed)
        if median <= 0:
            return
        threshold = self.speculate_factor * median
        now = time.time()
        for lease in queue.leases():
            index = queue._task_index(lease)
            if index is None or index not in missing or index in speculated:
                continue
            try:
                runtime = now - lease.stat().st_mtime
            except OSError:
                continue
            if runtime <= threshold:
                continue
            shard = by_index.get(index)
            if shard is None:
                continue
            if queue._task_path(queue.tasks_dir, index).exists():
                continue  # already back in the queue (requeue or retry)
            queue.speculate(shard)
            speculated.add(index)

    # --------------------------------------------------------------- execution
    def execute(self, spec: CampaignSpec, pending: Sequence[ShardSpec],
                land: LandCallback, store: Optional[ResultStore],
                park: ParkCallback) -> None:
        if store is not None:
            self._drain(pending, land, store, park)
            return
        if not self.workers:
            raise ValueError(
                "the file-queue backend needs a result store when every "
                "worker is external: they communicate through it (pass "
                "store=/--out)")
        root = tempfile.mkdtemp(prefix="repro-campaign-")
        try:
            private = ResultStore(root)
            private.save_spec(spec)  # workers read it via require_spec()
            self._drain(pending, land, private, park)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _drain(self, pending: Sequence[ShardSpec], land: LandCallback,
               store: ResultStore, park: ParkCallback) -> None:
        """Enqueue ``pending`` and coordinate until every shard is settled."""
        retry = self.retry if self.retry is not None else RetryPolicy()
        queue = FileQueue(store.root)
        queue.build(pending, retry=retry)
        by_index = {shard.index: shard for shard in pending}
        total = len(pending)
        missing: Set[int] = set(by_index)
        quarantined: Set[int] = set()
        speculated: Set[int] = set()
        elapsed: List[float] = []
        procs: List[multiprocessing.Process] = []
        spawned = 0
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s is not None else None)
        try:
            for _ in range(self.workers):
                procs.append(self._spawn_worker(store, spawned))
                spawned += 1
            while missing:
                # One directory listing per tick (it may be a network
                # filesystem); land newly persisted records from it.
                recorded = set(store.record_indices())
                for index in sorted(recorded & missing):
                    record = store.load_record(index)
                    land(record, persisted=True)
                    elapsed.append(record.elapsed_s)
                    missing.discard(index)
                    queue.retire(index)
                # Workers park shards that exhausted the retry budget in the
                # store's quarantine; stop waiting for those shards (the
                # engine decides whether quarantine fails the run).
                for index in sorted(set(store.quarantined_indices()) & missing):
                    park(store.load_quarantine_entry(index), persisted=True)
                    missing.discard(index)
                    quarantined.add(index)
                    queue.retire(index)
                if not missing:
                    break
                queue.requeue_expired(self.lease_timeout_s,
                                      done=recorded | quarantined)
                self._respeculate(queue, by_index, missing, elapsed, total,
                                  speculated)
                # Keep the local population at strength while *unclaimed*
                # tasks exist (a crashed worker's requeued shards must never
                # wait on an operator).  Leases alone spawn nothing: local
                # workers exit-when-empty, so one started during the
                # campaign tail would only churn.
                if self.workers:
                    procs = [proc for proc in procs if proc.is_alive()]
                    while len(procs) < self.workers and queue.has_pending_tasks:
                        procs.append(self._spawn_worker(store, spawned))
                        spawned += 1
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"file-queue campaign timed out with {len(missing)} "
                        f"shard(s) outstanding (no worker progress within "
                        f"{self.timeout_s:.0f}s?)")
                # A local worker exits right after its last shard lands, so
                # waking on its exit ends the campaign without a poll's lag.
                if procs:
                    multiprocessing.connection.wait(
                        [proc.sentinel for proc in procs], timeout=self.poll_s)
                else:
                    time.sleep(self.poll_s)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        if not self.keep_queue:
            queue.destroy()
