"""Service-layer benchmark: sustained ingest with two concurrent tenants.

Drives the live :mod:`repro.serve` pipeline — submit -> micro-batch ->
``run_batch`` -> backlog publish — for two tenants concurrently on one event
loop, and records to ``bench-artifacts/BENCH_serve.json`` (gitignored;
uploaded by CI's serve-smoke job):

* **sustained packets/second** across both tenants (wall-clock from the
  first submit to the last publish);
* **p50/p99 decision latency** (submit -> publish per packet, which
  includes micro-batch queueing — the service's user-visible latency);
* micro-batch shape (batches actually formed, mean size), proving the
  batcher engaged rather than degenerating to one-packet batches;
* a byte-identity re-check of one tenant's stream against the offline
  replay, so the throughput being measured is the *verified* path.

Gates are structural (counts, ordering, identity, batching engaged) —
absolute rates are recorded but machine-dependent, so not gated.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import pytest

from conftest import print_report

from repro.serve import (
    SecureAngleService,
    ServeConfig,
    TenantConfig,
    replay_events,
    resolve_scenario,
)
from repro.serve.smoke import canonical_event, seeded_requests

PACKETS_PER_TENANT = 96
OUTPUT_PATH = (Path(__file__).resolve().parents[1] / "bench-artifacts"
               / "BENCH_serve.json")

#: The batcher must actually batch under saturation: with a saturating
#: producer the mean micro-batch must exceed one packet.
MIN_MEAN_BATCH = 1.5


def _tenant_configs():
    return [
        TenantConfig(name="alpha", spec=resolve_scenario("figure5"),
                     train=(7,)),
        TenantConfig(name="beta", spec=resolve_scenario("figure6"),
                     train=(5,)),
    ]


async def _drive(service, configs, num_packets):
    """Saturate both tenants concurrently; returns the consumed events."""
    events = {config.name: [] for config in configs}

    async def produce(config):
        tenant = service.tenants[config.name]
        for request in seeded_requests(config, num_packets):
            await tenant.submit(request)

    async def consume(config):
        subscription = service.tenants[config.name].backlog.subscribe(0)
        while len(events[config.name]) < num_packets:
            events[config.name].extend(await subscription.next_batch())

    await asyncio.gather(*[produce(config) for config in configs],
                         *[consume(config) for config in configs])
    return events


@pytest.fixture(scope="module")
def serve_bench_results():
    configs = _tenant_configs()
    service = SecureAngleService(configs, ServeConfig(
        port=0, max_batch=16, max_delay_s=0.005, max_pending=64,
        backlog_capacity=4 * PACKETS_PER_TENANT))

    async def scenario():
        # No sockets: the bench times the pipeline itself (submit ->
        # micro-batch -> run_batch -> publish); CI's serve-smoke job covers
        # the TCP path end to end.
        for tenant in service.tenants.values():
            tenant.start()
        start = time.perf_counter()
        events = await _drive(service, configs, PACKETS_PER_TENANT)
        elapsed = time.perf_counter() - start
        await service.stop()
        return events, elapsed

    events, elapsed = asyncio.run(scenario())

    results = {
        "benchmark": "serve",
        "tenants": [config.name for config in configs],
        "packets_per_tenant": PACKETS_PER_TENANT,
        "total_packets": len(configs) * PACKETS_PER_TENANT,
        "elapsed_s": round(elapsed, 4),
        "sustained_packets_per_sec": round(
            len(configs) * PACKETS_PER_TENANT / elapsed, 1),
        "per_tenant": {},
        "events": events,
    }
    for config in configs:
        tenant = service.tenants[config.name]
        snapshot = tenant.stats.snapshot()
        results["per_tenant"][config.name] = {
            "scenario": config.spec.name,
            "published": snapshot["published"],
            "batches": snapshot["batches"],
            "mean_batch": round(snapshot["mean_batch"], 2),
            "p50_decision_latency_ms": round(
                snapshot["p50_latency_s"] * 1e3, 3),
            "p99_decision_latency_ms": round(
                snapshot["p99_latency_s"] * 1e3, 3),
        }

    document = {key: value for key, value in results.items() if key != "events"}
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    lines = [
        f"sustained throughput:     "
        f"{results['sustained_packets_per_sec']:8.1f} pkt/s "
        f"({results['total_packets']} packets, 2 tenants, "
        f"{results['elapsed_s']:.2f}s)",
    ]
    for name, row in results["per_tenant"].items():
        lines.append(
            f"{name} ({row['scenario']}):        p50 "
            f"{row['p50_decision_latency_ms']:7.2f} ms   p99 "
            f"{row['p99_decision_latency_ms']:7.2f} ms   "
            f"mean batch {row['mean_batch']:.1f}")
    lines.append(f"wrote:                    bench-artifacts/{OUTPUT_PATH.name}")
    print_report("serve - two-tenant sustained streaming", "\n".join(lines))
    return results


# ---------------------------------------------------------------------- gates
def test_bench_serve_all_packets_published_in_order(serve_bench_results):
    for name in serve_bench_results["tenants"]:
        events = serve_bench_results["events"][name]
        assert [event.index for event in events] == \
            list(range(PACKETS_PER_TENANT))


def test_bench_serve_micro_batching_engaged(serve_bench_results):
    for name, row in serve_bench_results["per_tenant"].items():
        assert row["published"] == PACKETS_PER_TENANT
        assert row["mean_batch"] >= MIN_MEAN_BATCH, (
            f"tenant {name} degenerated to near-scalar batches "
            f"(mean {row['mean_batch']})")


def test_bench_serve_latency_percentiles_sane(serve_bench_results):
    for row in serve_bench_results["per_tenant"].values():
        assert 0 < row["p50_decision_latency_ms"] <= row["p99_decision_latency_ms"]


def test_bench_serve_throughput_recorded(serve_bench_results):
    assert serve_bench_results["sustained_packets_per_sec"] > 0


def test_bench_serve_stream_is_the_verified_path(serve_bench_results):
    # The throughput above is only meaningful if what streamed is what the
    # offline batch path computes: re-check one tenant byte for byte.
    config = _tenant_configs()[0]
    live = [canonical_event(event.to_dict())
            for event in serve_bench_results["events"][config.name]]
    offline = [canonical_event(event.to_dict()) for event in
               replay_events(config.build(),
                             seeded_requests(config, PACKETS_PER_TENANT))]
    assert live == offline


def test_bench_serve_json_artifact_written(serve_bench_results):
    written = json.loads(OUTPUT_PATH.read_text())
    assert written["benchmark"] == "serve"
    assert written["tenants"] == ["alpha", "beta"]
    assert set(written["per_tenant"]) == {"alpha", "beta"}
    for row in written["per_tenant"].values():
        assert "p50_decision_latency_ms" in row
        assert "p99_decision_latency_ms" in row
