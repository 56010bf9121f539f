"""Service throughput under a 90/10 hot/cold request mix.

A load generator drives a real :class:`StencilService` (HTTP and all) with
200 ``estimate`` requests from four client threads: 90% repeat a small hot
set, 10% are cold unique configurations — the shape of real traffic against
a result-caching service.  The run asserts the cache hierarchy actually
absorbs the hot set (service hit rate ≥ 0.75) and emits
``BENCH_service.json`` into ``bench-out/``; CI gates the next PR's
artifact against it through ``benchmarks/check_perf_trajectory.py
--service``.

Absolute requests/sec depends on the CI machine and is recorded but not
gated — the hit rate and the case coverage are the trajectory.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import run_once, write_artifact
from repro.service import ServiceClient, ServiceConfig, serve_background

#: The acceptance floor on the service-level cache hit rate for the 90/10
#: mix (theoretical: 0.875 = 175 repeat hits / 200; concurrency dedup can
#: shave the early window, hence the slack).
MIN_HIT_RATE = 0.75

TOTAL_REQUESTS = 200
CLIENT_THREADS = 4


@pytest.fixture(scope="module")
def artifact():
    """Collects cases and writes BENCH_service.json on teardown."""
    results = {}
    yield results
    payload = {
        "benchmark": "service-throughput",
        "unit": "requests/second",
        "cases": results,
    }
    write_artifact("BENCH_service.json", payload)


def _request_mix():
    """The deterministic 90/10 schedule: index -> request payload."""
    hot = [
        {"kind": "estimate", "stencil": "1d-heat", "method": "folded", "m": m}
        for m in (1, 2, 4, 8, 16)
    ]
    cold_methods = ("folded", "multiple_loads", "dlt", "transpose")
    schedule = []
    cold_index = 0
    for i in range(TOTAL_REQUESTS):
        if i % 10 == 0:  # every 10th request is cold: a never-seen config
            schedule.append(
                {
                    "kind": "estimate",
                    "stencil": "2d-heat",
                    "method": cold_methods[cold_index % len(cold_methods)],
                    "m": 1 + cold_index,
                }
            )
            cold_index += 1
        else:
            schedule.append(hot[i % len(hot)])
    return schedule


def _drive(base_url, schedule):
    client = ServiceClient(base_url)

    def one(payload):
        reply = client.submit(payload)
        assert reply["ok"] and reply["result"]["gflops"] > 0
        return reply["served_from"]

    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        return list(pool.map(one, schedule))


@pytest.mark.benchmark(group="service")
def test_service_throughput_hot_cold_mix(benchmark, artifact, tmp_path):
    config = ServiceConfig(
        port=0,
        store_path=str(tmp_path / "store"),
        workers=0,  # inline execution: the benchmark measures the service
        queue_size=64,  # plumbing and cache hierarchy, not fork() costs
        request_timeout=60.0,
    )
    handle = serve_background(config)
    try:
        schedule = _request_mix()
        started = time.perf_counter()
        served_from = run_once(benchmark, _drive, handle.base_url, schedule)
        elapsed = time.perf_counter() - started
        stats = ServiceClient(handle.base_url).stats()
    finally:
        handle.stop()

    requests_per_sec = TOTAL_REQUESTS / elapsed
    hit_rate = stats["service"]["hit_rate"]
    totals = stats["service"]["totals"]
    latency = stats["service"]["latency_ms"]["estimate"]

    artifact["service-hot90-cold10"] = {
        "kind": "service-throughput",
        "requests": TOTAL_REQUESTS,
        "client_threads": CLIENT_THREADS,
        "seconds": elapsed,
        "requests_per_sec": requests_per_sec,
        "hit_rate": hit_rate,
        "memory_hits": totals["memory_hits"],
        "store_hits": totals["store_hits"],
        "computed": totals["computed"],
        "deduplicated": totals["deduplicated"],
        "mean_latency_ms": latency["mean_ms"],
    }
    print(
        f"\nservice 90/10 mix: {TOTAL_REQUESTS} requests in {elapsed:.2f}s "
        f"({requests_per_sec:.0f} req/s), hit rate {hit_rate:.3f} "
        f"({totals['memory_hits']} memory / {totals['store_hits']} store / "
        f"{totals['computed']} computed / {totals['deduplicated']} dedup), "
        f"mean latency {latency['mean_ms']:.2f}ms"
    )

    assert totals["completed"] == TOTAL_REQUESTS
    assert totals["errors"] == 0 and totals["shed"] == 0
    assert requests_per_sec > 0
    assert hit_rate >= MIN_HIT_RATE
    # Every served_from tag is one of the known tiers.
    assert set(served_from) <= {"memory", "store", "computed"}
