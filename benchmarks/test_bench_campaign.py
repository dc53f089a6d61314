"""E14 — Campaign engine: sharded multi-process Figure 5 sweep.

Measures the campaign engine's end-to-end wall clock for a Figure 5 style
sweep (one shard per client) on the file queue with two forked local workers,
and reports the single-worker wall clock next to it.  The merged results are asserted
bit-identical to each other and to the serial experiment runner — the
engine's core determinism contract.
"""

import time

from conftest import print_report

from repro.campaign import get_adapter, run_campaign
from repro.experiments.figure5 import run_figure5

CLIENT_IDS = (1, 2, 3, 4, 5, 6, 7, 8)
NUM_PACKETS = 4


def _spec():
    return get_adapter("figure5").default_spec(client_ids=CLIENT_IDS,
                                               num_packets=NUM_PACKETS)


def test_bench_campaign_workers(benchmark):
    queued = benchmark.pedantic(run_campaign, args=(_spec(),),
                                kwargs={"workers": 2}, iterations=1, rounds=1)

    start = time.perf_counter()
    single = run_campaign(_spec(), workers=1)
    single_s = time.perf_counter() - start

    serial = run_figure5(num_packets=NUM_PACKETS, client_ids=CLIENT_IDS)
    assert queued.result.to_json() == single.result.to_json()
    assert queued.result.to_json() == serial.to_json()

    shard_times = sorted(record.elapsed_s for record in queued.records)
    print_report(
        "Campaign engine: 8-shard Figure 5 sweep, 2 local file-queue workers",
        f"shards: {len(queued.records)} (one client each, "
        f"{NUM_PACKETS} packets per client)\n"
        f"single-worker wall clock: {single_s:.2f} s\n"
        f"shard wall clock (min/max): {shard_times[0]:.2f} / "
        f"{shard_times[-1]:.2f} s\n"
        "merged result bit-identical across worker counts and vs the "
        "serial runner: True",
    )
