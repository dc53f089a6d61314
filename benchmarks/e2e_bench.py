"""End-to-end burst benchmark: streaming vs batched engine.

Measures a Figure-5-style 64-packet burst (synthesis + analysis) two ways:

* **streaming** — the per-packet path: ``Deployment.process`` over
  ``client_packets`` (shares the vectorized kernels and caches with the
  batched engine).
* **batched** — ``Deployment.run_batch`` over ``Deployment.traffic``: the
  batched capture-synthesis engine end to end.

The two paths are asserted bit-identical.  The committed ``BENCH_e2e.json``
also keeps the historical number of the pre-engine scalar pipeline
(``legacy_scalar_ms``, ``speedup_batched_vs_legacy``), which this benchmark no
longer measures.

Run directly to write a fresh result::

    PYTHONPATH=src python benchmarks/e2e_bench.py --packets 64 \
        --out bench-artifacts/BENCH_e2e.json

or to gate CI against the committed baseline::

    PYTHONPATH=src python benchmarks/e2e_bench.py --packets 64 \
        --out bench-artifacts/BENCH_e2e.json \
        --check BENCH_e2e.json --max-regression 0.20
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List

import numpy as np

from repro.api import ScenarioSpec
from repro.api.deployment import Deployment

BENCH_NAME = "e2e_64_packet_burst"
SEED = 1234
CLIENT_ID = 1


# ------------------------------------------------------------------ measurement
def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_info() -> Dict:
    """NumPy version and BLAS build details, for artifact provenance."""
    info: Dict = {"numpy": np.__version__}
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - numpy < 1.25 without mode=
        return info
    blas = build.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {key: blas[key] for key in ("name", "version")
                    if key in blas}
    return info


def measure(num_packets: int = 64, repeats: int = 4) -> Dict:
    """Time the streaming and batched paths and verify their outputs."""
    spec = ScenarioSpec(name="bench-e2e", seed=SEED)

    streaming_dep = Deployment(spec)
    batched_dep = Deployment(spec)

    def run_streaming():
        return list(streaming_dep.process(
            streaming_dep.client_packets(CLIENT_ID, num_packets=num_packets)))

    def run_batched():
        return batched_dep.run_batch(
            batched_dep.traffic(CLIENT_ID, num_packets=num_packets))

    # Warm caches (path cache, preamble, mixer tables, BLAS) on both paths,
    # and verify outputs while at it.
    streaming_events = run_streaming()
    batched_events = run_batched()

    bit_identical = all(
        s.source == b.source and s.verdict == b.verdict
        and s.bearings_deg == b.bearings_deg
        for s, b in zip(streaming_events, batched_events))
    expected = streaming_dep.expected_bearing(CLIENT_ID)
    ap_name = streaming_dep.primary_ap_name

    def max_bearing_error(events):
        return max(abs(event.bearings_deg[ap_name] - expected)
                   for event in events)

    errors = {
        "streaming": max_bearing_error(streaming_events),
        "batched": max_bearing_error(batched_events),
    }

    streaming_s = _best_of(run_streaming, repeats)
    batched_s = _best_of(run_batched, repeats)

    return {
        "benchmark": BENCH_NAME,
        "packets": num_packets,
        "seed": SEED,
        "build": build_info(),
        "streaming_ms": round(streaming_s * 1e3, 2),
        "batched_ms": round(batched_s * 1e3, 2),
        "packets_per_sec": {
            "streaming": round(num_packets / streaming_s, 1),
            "batched": round(num_packets / batched_s, 1),
        },
        "speedup_batched_vs_streaming": round(streaming_s / batched_s, 3),
        "bit_identical_streaming_vs_batched": bit_identical,
        "max_bearing_error_deg": {k: round(v, 4) for k, v in errors.items()},
    }


def check_regression(result: Dict, baseline: Dict,
                     max_regression: float) -> List[str]:
    """Compare the machine-independent speedup ratio against a baseline."""
    problems = []
    key = "speedup_batched_vs_streaming"
    old = baseline.get(key)
    new = result.get(key)
    if old is not None and new is not None:
        floor = old * (1.0 - max_regression)
        if new < floor:
            problems.append(
                f"{key} regressed: {new:.2f}x < {floor:.2f}x "
                f"(baseline {old:.2f}x, tolerance {max_regression:.0%})")
    if not result.get("bit_identical_streaming_vs_batched", False):
        problems.append("streaming and batched events are no longer identical")
    return problems


def format_report(result: Dict) -> str:
    return "\n".join([
        f"packets:                 {result['packets']}",
        f"streaming (process):     {result['streaming_ms']:8.1f} ms "
        f"({result['packets_per_sec']['streaming']:7.0f} pkt/s)",
        f"batched path (run_batch):{result['batched_ms']:8.1f} ms "
        f"({result['packets_per_sec']['batched']:7.0f} pkt/s)",
        f"speedup vs streaming:    {result['speedup_batched_vs_streaming']:8.2f}x",
        f"streaming == batched:    {result['bit_identical_streaming_vs_batched']}",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--out", type=str, default=None,
                        help="write the result JSON here")
    parser.add_argument("--check", type=str, default=None,
                        help="baseline JSON to compare the speedup against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional speedup regression vs baseline")
    args = parser.parse_args()

    result = measure(num_packets=args.packets, repeats=args.repeats)
    print(format_report(result))

    if args.out:
        import os
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_regression(result, baseline, args.max_regression)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
