"""Deterministic fault injection for campaign chaos testing.

Every recovery path in the campaign machinery — lease re-queue after a crash,
retry with backoff, quarantine after the budget, heartbeat staleness,
straggler re-dispatch — exists because real fleets fail.  None of them can be
trusted unless CI can *drive* them, with real worker processes, on every
push.  This module makes failure a first-class, reproducible input:

* a :class:`FaultPlan` is a JSON document describing which faults to inject
  where (addressed by shard index and/or worker id), built by hand or sampled
  deterministically via :meth:`FaultPlan.sample` (seeded through
  :func:`repro.utils.rng.derive_seed`, like everything else in the project);
* workers activate a plan through the ``REPRO_FAULT_PLAN`` environment
  variable (or the ``--fault-plan`` CLI flag), so chaos tests exercise the
  exact production code path in real worker processes;
* a :class:`FaultInjector` evaluates the plan at the worker's injection
  points.  Firing counts are claimed through ``O_EXCL`` marker files in a
  shared state directory next to the plan, so "crash once, then succeed"
  works across the process boundary the crash itself creates.

Fault kinds:

``transient``
    Raise :class:`TransientFaultError` from shard execution (retried by the
    :class:`~repro.campaign.retry.RetryPolicy` until the budget runs out).
``hang``
    Sleep ``delay_s`` (deterministically jittered) before executing the
    shard — a slow-but-alive worker; its heartbeats must keep the lease.
``delay-heartbeat``
    Suppress the worker's heartbeat for ``delay_s`` seconds — alive but
    silent; the coordinator should treat it as dead and re-queue.
``crash-before-record``
    ``os._exit`` after executing the shard but before its record is written
    (all work lost; the lease must expire and re-queue).
``crash-mid-write``
    Write a torn, non-atomic partial record artifact and ``os._exit`` —
    the kill -9 that the tmp + ``os.replace`` idiom must make harmless.

The crash kinds are honoured by the file-queue worker loop, so they apply to
every ``--workers N`` run with ``N >= 2`` (forked local workers) or ``0``
(external workers); a serial run never crashes itself.  ``transient`` and
``hang`` fire inside :func:`~repro.campaign.engine.execute_shard` and
therefore cover both backends.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.serde import JsonSerializable

__all__ = [
    "CRASH_KINDS",
    "ENV_FAULT_PLAN",
    "ENV_WORKER_ID",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "TransientFaultError",
]

#: Environment variable naming the fault-plan JSON file to activate.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
#: Environment variable carrying the worker id (set by ``run_worker`` so
#: nested execution code can match worker-addressed faults).
ENV_WORKER_ID = "REPRO_WORKER_ID"

KIND_TRANSIENT = "transient"
KIND_HANG = "hang"
KIND_DELAY_HEARTBEAT = "delay-heartbeat"
KIND_CRASH_BEFORE_RECORD = "crash-before-record"
KIND_CRASH_MID_WRITE = "crash-mid-write"

#: Every recognised fault kind.
FAULT_KINDS: Tuple[str, ...] = (
    KIND_TRANSIENT, KIND_HANG, KIND_DELAY_HEARTBEAT,
    KIND_CRASH_BEFORE_RECORD, KIND_CRASH_MID_WRITE,
)
#: Kinds that terminate the worker process (file-queue workers only).
CRASH_KINDS: Tuple[str, ...] = (KIND_CRASH_BEFORE_RECORD, KIND_CRASH_MID_WRITE)

#: Exit codes used by the injected crashes (distinct from the worker's own
#: exit codes so a chaos log reads unambiguously).
CRASH_EXIT_BEFORE_RECORD = 70
CRASH_EXIT_MID_WRITE = 71


class TransientFaultError(RuntimeError):
    """The injected transient failure (retryable by design)."""


@dataclass(frozen=True)
class FaultSpec(JsonSerializable):
    """One fault to inject.

    ``shard``/``worker`` address where it fires (``None`` matches any);
    ``times`` bounds how often it fires across *all* processes sharing the
    plan's state directory; ``delay_s`` parameterises the hang / heartbeat
    kinds; ``seed`` drives the deterministic delay jitter.
    """

    kind: str
    shard: Optional[int] = None
    worker: Optional[str] = None
    times: int = 1
    delay_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {known}")
        if self.times < 1:
            raise ValueError("times must be at least 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    def matches(self, shard_index: int, worker_id: Optional[str]) -> bool:
        """Does this fault address ``(shard_index, worker_id)``?"""
        if self.shard is not None and self.shard != shard_index:
            return False
        if self.worker is not None and self.worker != worker_id:
            return False
        return True

    def jittered_delay_s(self) -> float:
        """``delay_s`` stretched deterministically into [1.0x, 1.25x].

        Only ever lengthens the delay, so a chaos test that needs "slower
        than the lease timeout" can reason about the lower bound exactly.
        """
        if self.delay_s == 0:
            return 0.0
        rng = ensure_rng(self.seed)
        return self.delay_s * (1.0 + 0.25 * float(rng.uniform(0.0, 1.0)))


@dataclass(frozen=True)
class FaultPlan(JsonSerializable):
    """A set of faults plus the master seed they were sampled from."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def sample(cls, num_shards: int,
               kinds: Tuple[str, ...] = (KIND_TRANSIENT,
                                         KIND_CRASH_BEFORE_RECORD,
                                         KIND_CRASH_MID_WRITE, KIND_HANG),
               fraction: float = 0.25, seed: int = 0, times: int = 1,
               delay_s: float = 1.0) -> "FaultPlan":
        """A deterministic plan hitting ``fraction`` of the shard indices.

        The faulted shard indices are drawn without replacement from a
        generator seeded with ``seed``; kinds rotate over the chosen shards
        and each fault's jitter seed is derived canonically via
        :func:`~repro.utils.rng.derive_seed` — so the same ``(num_shards,
        kinds, fraction, seed)`` always yields the same chaos, on any host.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        count = min(num_shards, max(1, math.ceil(fraction * num_shards)))
        rng = ensure_rng(seed)
        chosen = sorted(int(index) for index in
                        rng.choice(num_shards, size=count, replace=False))
        faults = tuple(
            FaultSpec(kind=kinds[position % len(kinds)], shard=index,
                      times=times, delay_s=delay_s, seed=derive_seed(rng))
            for position, index in enumerate(chosen))
        return cls(seed=seed, faults=faults)

    def faulted_shards(self) -> Tuple[int, ...]:
        """The shard indices this plan addresses (ascending, unique)."""
        return tuple(sorted({fault.shard for fault in self.faults
                             if fault.shard is not None}))


def default_worker_id() -> str:
    """The ambient worker id: ``$REPRO_WORKER_ID`` or ``<host>-<pid>``."""
    ambient = os.environ.get(ENV_WORKER_ID)
    if ambient:
        return ambient
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at a worker's injection points.

    Firing slots are claimed with ``O_CREAT | O_EXCL`` marker files under
    ``state_dir`` — the only primitive that still counts correctly when the
    fault's whole point is to kill the process right after it fires.  The
    state directory defaults to ``<plan-path>.state`` so every process
    reading the same plan shares the same budget.
    """

    def __init__(self, plan: FaultPlan, state_dir: Path,
                 worker_id: Optional[str] = None) -> None:
        self.plan = plan
        self.state_dir = Path(state_dir)
        self.worker_id = worker_id if worker_id is not None else \
            os.environ.get(ENV_WORKER_ID)

    @classmethod
    def from_env(cls, worker_id: Optional[str] = None
                 ) -> Optional["FaultInjector"]:
        """The active injector, or ``None`` when no plan is configured.

        A plan path that does not load is a loud error — a chaos run whose
        faults silently never fire would pass for the wrong reason.
        """
        path = os.environ.get(ENV_FAULT_PLAN)
        if not path:
            return None
        plan_path = Path(path)
        plan = FaultPlan.load_json(plan_path)
        return cls(plan, plan_path.with_name(plan_path.name + ".state"),
                   worker_id=worker_id)

    # ------------------------------------------------------- injection points
    def on_execute(self, shard_index: int) -> None:
        """Shard-execution faults: hang first, then a transient failure."""
        for position, fault in self._matching(shard_index, KIND_HANG):
            if self._claim(position, fault):
                time.sleep(fault.jittered_delay_s())
        for position, fault in self._matching(shard_index, KIND_TRANSIENT):
            if self._claim(position, fault):
                raise TransientFaultError(
                    f"injected transient fault #{position} on shard "
                    f"{shard_index}")

    def crash_kind(self, shard_index: int) -> Optional[str]:
        """The crash to perform after executing ``shard_index``, if any."""
        for position, fault in self._matching(shard_index, *CRASH_KINDS):
            if self._claim(position, fault):
                return fault.kind
        return None

    def heartbeat_delay_s(self, shard_index: int) -> float:
        """Seconds the worker's heartbeat must stay silent for this shard."""
        delay = 0.0
        for position, fault in self._matching(shard_index,
                                              KIND_DELAY_HEARTBEAT):
            if self._claim(position, fault):
                delay = max(delay, fault.jittered_delay_s())
        return delay

    # --------------------------------------------------------------- internals
    def _matching(self, shard_index: int, *kinds: str
                  ) -> Iterator[Tuple[int, FaultSpec]]:
        for position, fault in enumerate(self.plan.faults):
            if fault.kind in kinds and fault.matches(shard_index,
                                                     self.worker_id):
                yield position, fault

    def _claim(self, position: int, fault: FaultSpec) -> bool:
        """Claim one of the fault's ``times`` firing slots (cross-process)."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(fault.times):
            marker = self.state_dir / f"fault-{position:03d}.fired-{slot:03d}"
            try:
                handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(handle)
            return True
        return False
