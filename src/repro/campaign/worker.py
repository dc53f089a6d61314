"""File-queue campaign worker: claim shards, execute, persist records.

``python -m repro worker --queue DIR`` runs this loop against a campaign
result store (``DIR`` is the same directory the coordinator was given via
``--out``).  ``run_campaign(workers=N)`` / ``--workers N`` forks ``N`` local
processes running this same loop; any number of further workers — on this
host or any host that mounts the store's filesystem — drain the queue
cooperatively:

1. wait for the coordinator's ``ready`` marker (the queue may not exist yet);
2. claim one task via atomic rename (``queue/tasks`` -> ``queue/leases``);
3. heartbeat the lease every ``--heartbeat`` seconds while the shard runs,
   so the coordinator can tell slow-but-alive from dead;
4. execute the shard and write its record durably into ``shards/``;
5. release the lease and go back to 2.

A worker that dies mid-shard leaves a lease whose heartbeat goes silent; the
coordinator re-queues it once the staleness exceeds the lease timeout.
Because shards are pure functions of ``(spec, shard)``, a shard executed
twice — a re-queued crash, or a speculative straggler re-dispatch — writes
byte-compatible records and the merged result is unaffected.

Shard *failures* are retried under the queue's persisted
:class:`~repro.campaign.retry.RetryPolicy`, judged by the same
:meth:`~repro.campaign.retry.RetryPolicy.after_failure` the serial backend
uses: the worker bumps the shard's attempt count in the store, re-enqueues
the task deferred by the policy's backoff, and — once the budget is
exhausted — parks the shard in the store's ``quarantine/`` directory with its
traceback.  Only exceptions count as failures; an interrupt (Ctrl-C) stops
the worker and leaves the shard's attempts untouched.  The coordinator
decides whether quarantine fails the campaign; the worker just reports it in
its exit code.

Deterministic chaos: when ``$REPRO_FAULT_PLAN`` names a fault plan (see
:mod:`repro.campaign.faults`), the worker injects the plan's crashes and
heartbeat delays at the exact production seams — which is how the chaos
suite proves every recovery path above against real worker processes.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.campaign.backends import FileQueue
from repro.campaign.engine import execute_shard
from repro.campaign.faults import (
    CRASH_EXIT_BEFORE_RECORD,
    CRASH_EXIT_MID_WRITE,
    ENV_WORKER_ID,
    KIND_CRASH_MID_WRITE,
    FaultInjector,
    default_worker_id,
)
from repro.campaign.spec import ShardSpec
from repro.campaign.store import QuarantineEntry, ResultStore, ShardRecord

__all__ = ["WorkerResult", "run_worker"]

#: ``python -m repro worker`` exit codes (documented in ``--help``).
EXIT_DRAINED = 0
EXIT_STARTUP_TIMEOUT = 3
EXIT_SHARD_FAILED = 4


@dataclass(frozen=True)
class WorkerResult:
    """What one worker run accomplished."""

    #: Shards executed to a persisted record.
    executed: int
    #: Shards this worker parked in quarantine (budget exhausted).
    quarantined: int

    @property
    def exit_code(self) -> int:
        """0 drained clean, 4 when any shard terminally failed."""
        return EXIT_SHARD_FAILED if self.quarantined else EXIT_DRAINED


class _Heartbeat:
    """Background thread atomically touching a lease's heartbeat beacon.

    ``delay_s`` suppresses the first beats — the ``delay-heartbeat`` fault:
    the worker is alive but silent, which the coordinator must treat as dead
    once the silence outlives the lease timeout.
    """

    def __init__(self, queue: FileQueue, lease: Path, interval_s: float,
                 delay_s: float = 0.0) -> None:
        self._queue = queue
        self._lease = lease
        self._interval_s = interval_s
        self._delay_s = delay_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        if self._delay_s > 0 and self._stop.wait(self._delay_s):
            return
        self._queue.beat(self._lease)
        while not self._stop.wait(self._interval_s):
            self._queue.beat(self._lease)


def _log(message: str, quiet: bool) -> None:
    if not quiet:
        sys.stderr.write(f"[worker] {message}\n")


def _crash(kind: str, record: ShardRecord, store: ResultStore) -> None:
    """Perform an injected crash (never returns).

    ``crash-mid-write`` first drops a torn partial-record artifact — the
    debris a *non-atomic* writer would leave when killed — into the shard
    directory.  It deliberately bypasses the atomic-write idiom: the chaos
    suite's point is that such debris never matches the store's
    ``shard-*.json`` listing and therefore never corrupts a campaign.
    ``os._exit`` stands in for kill -9: no cleanup, no flush, no release.
    """
    if kind == KIND_CRASH_MID_WRITE:
        target = store.shard_path(record.index)
        target.parent.mkdir(parents=True, exist_ok=True)
        torn = target.with_name(f"{target.name}.{os.getpid()}.torn.tmp")
        text = record.to_json()
        torn.write_text(text[:max(1, len(text) // 2)],  # repro-lint: disable=atomic-write
                        encoding="utf-8")
        os._exit(CRASH_EXIT_MID_WRITE)
    os._exit(CRASH_EXIT_BEFORE_RECORD)


def run_worker(queue_dir: Union[str, Path], poll_s: float = 0.2,
               max_shards: Optional[int] = None,
               exit_when_empty: bool = False,
               startup_timeout_s: float = 60.0,
               heartbeat_s: float = 1.0,
               worker_id: Optional[str] = None,
               quiet: bool = False) -> WorkerResult:
    """Drain a file-queue campaign; returns a :class:`WorkerResult`.

    Parameters
    ----------
    queue_dir:
        The campaign's result-store directory (the coordinator's ``--out``).
    poll_s:
        Sleep between polls while the queue is empty or not yet ready.
    max_shards:
        Stop after executing this many shards (``None``: unbounded).
    exit_when_empty:
        Exit once the queue is ready and holds no pending task, instead of
        waiting for more work.  This is the mode CI and tests use; a
        long-lived fleet worker omits it and is simply terminated.
    startup_timeout_s:
        With ``exit_when_empty``, how long to wait for the queue to become
        ready before giving up (covers workers started before the
        coordinator); expiry raises :class:`TimeoutError` so a misconfigured
        ``--queue`` path cannot masquerade as a successful drain.
    heartbeat_s:
        Interval between heartbeat touches while executing a shard.  Keep it
        well under the coordinator's lease timeout — the heartbeat is what
        distinguishes this worker's slow shard from a dead worker's orphan.
    worker_id:
        Identity recorded in quarantine entries and matched against
        worker-addressed faults; defaults to ``$REPRO_WORKER_ID`` or
        ``<host>-<pid>``.
    """
    if poll_s <= 0:
        raise ValueError("poll_s must be positive")
    if heartbeat_s <= 0:
        raise ValueError("heartbeat_s must be positive")
    store = ResultStore(queue_dir)
    queue = FileQueue(store.root)
    if worker_id is None:
        worker_id = default_worker_id()
    # Publish the identity so faults addressed by worker id also match when
    # evaluated deeper in the stack (execute_shard's injection point).
    os.environ[ENV_WORKER_ID] = worker_id
    injector = FaultInjector.from_env(worker_id=worker_id)
    started = time.monotonic()
    executed = 0
    quarantined = 0
    retry = None
    spec = None
    while True:
        if not queue.ready:
            if exit_when_empty and time.monotonic() - started > startup_timeout_s:
                raise TimeoutError(
                    f"queue at {queue.root} never became ready within "
                    f"{startup_timeout_s:.0f}s (wrong --queue path, or no "
                    "coordinator running?)")
            time.sleep(poll_s)
            continue
        lease = queue.claim()
        if lease is None:
            if exit_when_empty and not queue.has_pending_tasks:
                _log(f"queue drained after {executed} shard(s); exiting", quiet)
                return WorkerResult(executed=executed, quarantined=quarantined)
            time.sleep(poll_s)
            continue
        if spec is None:
            spec = store.require_spec()
        if retry is None:
            retry = queue.load_retry()
        try:
            shard = ShardSpec.load_json(lease)
        except FileNotFoundError:
            # The coordinator deemed our lease expired and re-queued it
            # between the claim and the read; the shard is someone else's
            # now — move on rather than dying.
            continue
        if store.shard_path(shard.index).exists():
            # A stale duplicate — the shard landed while its speculative
            # re-dispatch (or re-queued task) sat in the queue.  Drain it.
            queue.release(lease)
            continue
        delay_s = injector.heartbeat_delay_s(shard.index) if injector else 0.0
        try:
            with _Heartbeat(queue, lease, heartbeat_s, delay_s=delay_s):
                record = execute_shard(spec, shard)
        except Exception:
            # Only a shard's own failure counts as an attempt: an interrupt
            # (KeyboardInterrupt, SystemExit) propagates and leaves the lease
            # for the coordinator to re-queue.
            verdict = retry.after_failure(shard, store.bump_attempts,
                                          worker_id)
            if isinstance(verdict, QuarantineEntry):
                store.save_quarantine(verdict)
                queue.release(lease)
                quarantined += 1
                _log(f"shard {shard.index} quarantined after "
                     f"{verdict.attempts} attempt(s)", quiet)
            else:
                queue.requeue_with_backoff(lease, verdict)
                _log(f"shard {shard.index} failed; re-queued with "
                     f"{verdict:.2f}s backoff", quiet)
            continue
        crash = injector.crash_kind(shard.index) if injector else None
        if crash is not None:
            _crash(crash, record, store)
        store.save_record(record)
        queue.release(lease)
        executed += 1
        _log(f"shard {record.index} done in {record.elapsed_s:.2f}s "
             f"(total {executed})", quiet)
        if max_shards is not None and executed >= max_shards:
            _log(f"reached max-shards={max_shards}; exiting", quiet)
            return WorkerResult(executed=executed, quarantined=quarantined)
