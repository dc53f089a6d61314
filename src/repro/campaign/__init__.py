"""Parallel experiment campaigns: sharded multi-process Monte-Carlo sweeps.

Describe a sweep declaratively with :class:`CampaignSpec` (experiment name,
parameter axes, seed replicates), compile it into canonical
:class:`ShardSpec` units, and execute them with :func:`run_campaign` on one
of two executor backends, picked by the worker count — in-process for one
worker (:class:`SerialBackend`), otherwise a file queue
(:class:`FileQueueBackend`) drained by ``N`` forked local workers and/or
``python -m repro worker`` processes on any hosts that share the store's
filesystem — each worker builds its own deployment and runs the batched
engine.  Per-shard seeds are fixed at compile time in canonical
order, so the merged result is bit-identical regardless of backend, worker
count, or scheduling; a :class:`ResultStore` makes runs resumable (atomic
durable per-shard records, skip-on-resume) and carries a ``progress.json``
heartbeat (completed/total shards, throughput, ETA).

Execution is fault-tolerant: failing shards are retried under a shared
:class:`RetryPolicy` (exponential, deterministically jittered backoff) and
parked in the store's quarantine with their tracebacks once the budget is
exhausted; file-queue workers heartbeat their leases so the coordinator
re-queues only dead workers' shards, never slow ones (and respawns dead
local workers); and tail stragglers
are speculatively re-dispatched (duplicate records are byte-identical, so
whichever lands first wins).  Every recovery path is exercised
deterministically by the chaos suite via :class:`FaultPlan`
(:mod:`repro.campaign.faults`).

The paper's figure and evaluation experiments are registered in
:data:`CAMPAIGNS`; ``python -m repro`` drives everything from the command
line.

>>> from repro.campaign import get_adapter, run_campaign
>>> spec = get_adapter("figure5").default_spec(num_packets=2)
>>> run = run_campaign(spec, workers=4)
>>> run.result.mean_confidence_halfwidth_deg  # == run_figure5's, exactly
"""

from repro.campaign.adapters import CAMPAIGNS, CampaignAdapter, get_adapter
from repro.campaign.backends import (
    ExecutorBackend,
    FileQueueBackend,
    SerialBackend,
    ShardFailure,
    quarantine_summary,
)
from repro.campaign.engine import CampaignRun, execute_shard, run_campaign
from repro.campaign.faults import FaultInjector, FaultPlan, FaultSpec
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
from repro.campaign.worker import WorkerResult, run_worker

__all__ = [
    "CAMPAIGNS",
    "CampaignAdapter",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRun",
    "CampaignSpec",
    "ExecutorBackend",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FileQueueBackend",
    "QuarantineEntry",
    "ResultStore",
    "RetryPolicy",
    "SerialBackend",
    "ShardFailure",
    "ShardRecord",
    "ShardSpec",
    "StoreMismatchError",
    "WorkerResult",
    "execute_shard",
    "get_adapter",
    "quarantine_summary",
    "run_campaign",
    "run_worker",
]
