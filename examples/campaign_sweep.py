#!/usr/bin/env python3
"""Campaign sweep: a sharded multi-process Monte-Carlo run in a few lines.

The campaign engine turns an experiment's parameter grid into independent
shards, executes them on forked local workers draining a file queue (each
worker compiles its own deployment and rides the batched engine), and merges
the records back into the experiment's result dataclass:

1. ``snr_sweep_campaign`` declares the grid — one shard per transmit power,
2. ``run_campaign(..., workers=2)`` fans the shards out; per-shard seeds were
   fixed at compile time in canonical order, so the merged result is
   bit-identical to ``run_snr_sweep`` (the same campaign at one worker) no
   matter the worker count,
3. attaching a ``ResultStore`` makes the run resumable from disk (one atomic
   JSON record per shard; completed shards are never recomputed).

The same sweep runs from the shell:

    python -m repro campaign snr_sweep --workers 2 --out sweep-results

Run with:  python examples/campaign_sweep.py
"""

import tempfile

from repro.campaign import ResultStore, run_campaign
from repro.experiments.ablations import run_snr_sweep, snr_sweep_campaign

TX_POWERS_DBM = (-60.0, -25.0, 15.0)


def main() -> None:
    spec = snr_sweep_campaign(tx_powers_dbm=TX_POWERS_DBM,
                              client_ids=(1, 5), packets_per_point=2)
    print(f"campaign {spec.name!r}: {spec.num_shards} shard(s), "
          f"axes {list(spec.axes)}; spec JSON is {len(spec.to_json())} bytes\n")

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        run = run_campaign(spec, workers=2, store=store)
        print(f"executed {run.executed} shard(s) on 2 workers")
        print(run.result.as_table())

        # Resuming a finished (or killed) campaign recomputes nothing.
        resumed = run_campaign(spec, workers=2, store=store)
        print(f"\nresume executed {resumed.executed} shard(s) "
              f"(records came from {store.root})")

    one_worker = run_snr_sweep(tx_powers_dbm=TX_POWERS_DBM,
                               client_ids=(1, 5), packets_per_point=2)
    identical = run.result.to_json() == one_worker.to_json()
    print(f"\nbit-identical to the one-worker run_snr_sweep: {identical}")
    if not identical:
        raise SystemExit("2-worker/1-worker mismatch")


if __name__ == "__main__":
    main()
