"""Retry policy for campaign shard execution.

One :class:`RetryPolicy` is shared by both executor backends: the serial
backend applies it in-process, and the file-queue coordinator persists it
into the queue (``queue/retry.json``) so every worker — forked locally or
detached on another host — applies the exact same budget and backoff
schedule.  :meth:`RetryPolicy.after_failure` is the one place a failed
attempt is counted and judged: the serial backend sleeps out the backoff it
returns, a worker defers its task file by it.

Backoff is exponential with *deterministic* jitter: the jitter draw is seeded
from the shard's own seed and the attempt number via
:func:`repro.utils.rng.spawn_rng`, so two workers retrying the same shard
compute the same delay and a chaos test can assert the schedule exactly.
Retrying is safe because shards are pure functions of ``(spec, shard)`` — a
retried shard writes byte-compatible records, so the merged campaign result
is unaffected by how many attempts a shard needed.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.campaign.spec import ShardSpec
from repro.campaign.store import QuarantineEntry
from repro.utils.rng import spawn_rng
from repro.utils.serde import JsonSerializable

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy(JsonSerializable):
    """How many times a failing shard is re-attempted, and how fast.

    ``max_attempts`` counts *executions*, not retries: the default of 3 means
    one initial attempt plus up to two retries.  A shard that fails
    ``max_attempts`` times is parked in the store's ``quarantine/`` directory
    (with its traceback) instead of failing the campaign; ``strict`` runs
    restore fail-fast.  ``max_attempts=1`` disables retrying entirely.
    """

    max_attempts: int = 3
    #: First-retry delay; attempt ``n`` waits ``base * factor**(n-1)``.
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay (before jitter).
    backoff_max_s: float = 10.0
    #: Jitter fraction: the delay is spread uniformly over ``+/- frac``.
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")
        if not 0 <= self.jitter_frac < 1:
            raise ValueError("jitter_frac must be in [0, 1)")

    def backoff_s(self, seed: int, attempt: int) -> float:
        """The delay before retrying after failed attempt ``attempt``.

        Deterministic: the jitter generator is spawned from ``seed`` (use the
        shard's seed) with the attempt number as the stream, so the schedule
        is a pure function of ``(seed, attempt)`` on every host.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        base = min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_factor ** (attempt - 1))
        if base <= 0 or self.jitter_frac == 0:
            return base
        rng = spawn_rng(int(seed), stream=attempt)
        spread = self.jitter_frac * float(rng.uniform(-1.0, 1.0))
        return base * (1.0 + spread)

    def exhausted(self, attempts: int) -> bool:
        """True once ``attempts`` failed executions used up the budget."""
        return attempts >= self.max_attempts

    def after_failure(self, shard: ShardSpec, bump: Callable[[int, str], int],
                      worker: Optional[str]) -> Union[QuarantineEntry, float]:
        """Count the failure being handled; park the shard or back off.

        Call from an ``except Exception`` block: the current traceback is
        handed to ``bump`` (which persists the attempt and returns the new
        count).  Returns the :class:`QuarantineEntry` to park once the budget
        is exhausted, else the seconds to wait before the next attempt.
        """
        trace = traceback.format_exc()
        attempts = bump(shard.index, trace)
        if self.exhausted(attempts):
            return QuarantineEntry(index=shard.index, attempts=attempts,
                                   error=trace, worker=worker,
                                   shard=shard.to_dict())
        return self.backoff_s(shard.seed, attempts)
