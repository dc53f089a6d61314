"""Sharded campaign execution over two executor backends.

``run_campaign`` compiles a :class:`~repro.campaign.spec.CampaignSpec` into
its canonical shard list, hands the pending shards to an
:class:`~repro.campaign.backends.ExecutorBackend` — in-process serial for one
worker, otherwise a file queue drained by forked local workers and/or
workers on other hosts — and reduces the records into one merged experiment
result per seed replicate.

Determinism contract: a shard is a pure function of ``(spec, shard)`` (its
seed was fixed at compile time, in canonical order), every record is
canonicalised through the JSON serde before merging (so in-process, pickled,
and disk-loaded records are indistinguishable), and merging consumes records
in shard-index order.  The merged result is therefore bit-identical for any
backend, worker count, scheduling order, or resume history.

With a :class:`~repro.campaign.store.ResultStore` attached, each completed
shard is persisted atomically (and durably) as it lands, already-persisted
shards are skipped on resume, and a ``progress.json`` heartbeat tracks
completed/total shards, throughput, and ETA — so a killed campaign continues
where it stopped and a long one can be watched from any host that sees the
store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.adapters import CampaignAdapter, get_adapter
from repro.campaign.backends import (
    ExecutorBackend,
    FileQueueBackend,
    SerialBackend,
    ShardFailure,
    quarantine_summary,
)
from repro.campaign.faults import FaultInjector
from repro.campaign.progress import CampaignProgress
from repro.campaign.retry import RetryPolicy
from repro.campaign.spec import CampaignSpec, ShardSpec
from repro.campaign.store import (
    CampaignResult,
    QuarantineEntry,
    ResultStore,
    ShardRecord,
    StoreMismatchError,
)
from repro.utils.serde import from_jsonable, to_jsonable

if TYPE_CHECKING:
    from repro.aoa.estimator import EstimatorConfig

__all__ = ["CampaignRun", "execute_shard", "run_campaign", "run_serial"]

#: Progress callback: ``(completed_shards, total_shards, record)``.
ProgressCallback = Callable[[int, int, ShardRecord], None]


@dataclass(frozen=True)
class CampaignRun:
    """The in-memory outcome of one campaign execution."""

    spec: CampaignSpec
    #: One record per shard, in canonical shard-index order.
    records: Tuple[ShardRecord, ...]
    #: One merged experiment result per seed replicate (typed dataclasses).
    #: With quarantined shards, only the replicates whose every shard landed
    #: are merged — a partial replicate would silently change its result.
    results: Tuple[Any, ...]
    #: How many shards were actually executed (the rest came from the store).
    executed: int
    #: Shards parked after exhausting the retry budget (empty on a clean run).
    quarantined: Tuple[QuarantineEntry, ...] = ()

    @property
    def result(self) -> Any:
        """The merged result of the first (often only) replicate."""
        return self.results[0]

    @property
    def complete(self) -> bool:
        """True when every shard landed (nothing quarantined)."""
        return not self.quarantined

    def campaign_result(self) -> CampaignResult:
        """The merged artifact in its persistable form."""
        return CampaignResult(
            name=self.spec.name,
            experiment=self.spec.experiment,
            seeds=self.spec.replicate_seeds(),
            num_shards=len(self.records),
            results=tuple(to_jsonable(result) for result in self.results),
        )


def execute_shard(spec: CampaignSpec, shard: ShardSpec) -> ShardRecord:
    """Run one shard and wrap its payload in a :class:`ShardRecord`.

    This is the chaos seam shared by both backends: when a fault plan is
    active (``$REPRO_FAULT_PLAN``), injected hangs and transient failures
    fire here — before the adapter runs — so serial and file-queue
    executions both exercise the same retry machinery.
    """
    injector = FaultInjector.from_env()
    if injector is not None:
        injector.on_execute(shard.index)
    adapter = get_adapter(spec.experiment)
    start = time.perf_counter()
    payload = adapter.run_shard(spec, shard)
    return ShardRecord(
        index=shard.index,
        point=shard.point,
        replicate=shard.replicate,
        seed=shard.seed,
        experiment=spec.experiment,
        params=dict(shard.params),
        result=to_jsonable(payload),
        elapsed_s=time.perf_counter() - start,
    )


def run_campaign(spec: CampaignSpec, workers: int = 1,
                 store: Optional[ResultStore] = None,
                 progress: Optional[ProgressCallback] = None,
                 backend: Optional[ExecutorBackend] = None,
                 retry: Optional[RetryPolicy] = None,
                 strict: bool = False) -> CampaignRun:
    """Execute a campaign and merge its shards into experiment results.

    Parameters
    ----------
    spec:
        The campaign to run.
    workers:
        The executor when no explicit ``backend`` is given: ``1`` executes
        in-process (:class:`~repro.campaign.backends.SerialBackend`); ``N >=
        2`` forks ``N`` local workers draining a
        :class:`~repro.campaign.backends.FileQueueBackend` (on a private
        temporary store when ``store`` is omitted); ``0`` enqueues for
        external ``python -m repro worker`` processes only, which needs a
        ``store``.
    store:
        Optional on-disk store.  Completed shards are persisted atomically as
        they land; shards already persisted (from an earlier, possibly
        killed, run of the same spec) are not recomputed; a ``progress.json``
        heartbeat tracks completion and ETA.
    progress:
        Optional callback invoked after every completed shard.
    backend:
        Explicit executor backend; overrides the ``workers`` heuristic.  The
        merged result is bit-identical whichever backend runs the shards.
    retry:
        Retry budget/backoff for failing shards when no explicit ``backend``
        is given (an explicit backend carries its own policy).
    strict:
        Fail the run (one aggregated :class:`ShardFailure` listing *every*
        parked shard) when any shard exhausts its retry budget.  The default
        parks such shards in the store's quarantine, merges the complete
        replicates, withholds ``merged.json``, and returns normally with
        :attr:`CampaignRun.quarantined` populated — so one poison shard
        cannot throw away a night of fleet work.
    """
    if backend is None:
        backend = (SerialBackend(retry=retry) if workers == 1
                   else FileQueueBackend(workers=workers, retry=retry))
    adapter = get_adapter(spec.experiment)
    # An axis the shard runner does not understand would silently multiply
    # shards and desynchronise the capture-slice arithmetic, and a bad
    # parameter would fail shard by shard (or merge into a meaningless
    # result); fail up front.
    adapter.validate(spec)
    shards = spec.compile()

    records: Dict[int, ShardRecord] = {}
    if store is not None:
        store.save_spec(spec)
        by_index = {shard.index: shard for shard in shards}
        for index, record in store.load_records().items():
            shard = by_index.get(index)
            if shard is None or not record.matches(shard):
                raise StoreMismatchError(
                    f"stored shard {index} does not match the campaign plan "
                    f"(stale store at {store.root}); use a fresh directory")
            records[index] = record

    pending = [shard for shard in shards if shard.index not in records]
    completed = len(records)
    total = len(shards)
    tracker = CampaignProgress(spec.name, spec.experiment, total=total,
                               completed=completed)
    if store is not None:
        store.save_progress(tracker.snapshot())

    def _land(record: ShardRecord, persisted: bool = False) -> None:
        nonlocal completed
        records[record.index] = record
        completed += 1
        if store is not None and not persisted:
            store.save_record(record)
        tracker.record_completed(completed)
        if store is not None:
            store.save_progress(tracker.snapshot())
        if progress is not None:
            progress(completed, total, record)

    parked: Dict[int, QuarantineEntry] = {}

    def _park(entry: QuarantineEntry, persisted: bool = False) -> None:
        parked[entry.index] = entry
        if store is not None and not persisted:
            store.save_quarantine(entry)

    if pending:
        if store is not None:
            # A fresh execution (including a resume) re-attempts previously
            # quarantined shards with a fresh budget.
            store.clear_quarantine()
            store.clear_attempts()
        backend.execute(spec, pending, _land, store, _park)

    if parked and strict:
        raise ShardFailure(quarantine_summary(parked, store))

    executed = len(pending) - len(parked)
    ordered = [records[shard.index] for shard in shards
               if shard.index in records]
    results = _merge(adapter, spec, ordered,
                     complete_only=bool(parked), shards=shards)
    run = CampaignRun(spec=spec, records=tuple(ordered), results=results,
                      executed=executed,
                      quarantined=tuple(parked[index]
                                        for index in sorted(parked)))
    if store is not None:
        # merged.json is the bit-identity artifact; a quarantined campaign
        # must never masquerade as it.
        if not parked:
            store.save_merged(run.campaign_result())
        store.save_progress(tracker.snapshot())
    return run


def run_serial(spec: CampaignSpec,
               estimator_config: Optional[EstimatorConfig] = None) -> Any:
    """The merged result of ``spec``'s first replicate, run in-process.

    Every serial experiment runner (``run_figure5`` ...) is this call on its
    experiment's campaign.  ``estimator_config`` travels as the
    ``estimator`` base parameter that shards read through
    :func:`~repro.campaign.spec.estimator_from_params`.  Shards are pure, so
    a failing one is not retried: it raises :class:`ShardFailure` at once.
    """
    if estimator_config is not None:
        spec = spec.with_overrides(
            base={"estimator": to_jsonable(estimator_config)})
    return run_campaign(spec, workers=1, retry=RetryPolicy(max_attempts=1),
                        strict=True).result


def _merge(adapter: CampaignAdapter, spec: CampaignSpec,
           ordered: List[ShardRecord], complete_only: bool = False,
           shards: Optional[List[ShardSpec]] = None) -> Tuple[Any, ...]:
    """Reduce records into one typed result per replicate.

    Every payload is revived from its JSON form — including records that
    never left the parent process — so the merge input is canonical no
    matter where a shard ran.  With ``complete_only`` (a quarantined run),
    replicates missing any of their planned shards are skipped entirely:
    merging a partial replicate would silently change its result.
    """
    planned: Dict[int, int] = {}
    if complete_only and shards is not None:
        for shard in shards:
            planned[shard.replicate] = planned.get(shard.replicate, 0) + 1
    by_replicate: Dict[int, List[ShardRecord]] = {}
    for record in ordered:
        by_replicate.setdefault(record.replicate, []).append(record)
    results = []
    for replicate in sorted(by_replicate):
        replicate_records = sorted(by_replicate[replicate],
                                   key=lambda record: record.point)
        if complete_only and len(replicate_records) < planned.get(replicate, 0):
            continue
        payloads = [from_jsonable(adapter.shard_type, record.result)
                    for record in replicate_records]
        results.append(adapter.merge(spec, payloads))
    return tuple(results)
