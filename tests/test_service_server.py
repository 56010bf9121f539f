"""The async front end: dedup, backpressure, timeouts, drain, persistence.

Most tests drive :meth:`StencilService.handle_request` directly on an event
loop (no sockets, inline workers) — the HTTP layer gets its own end-to-end
tests at the bottom via :func:`serve_background` and the real client.

Slow jobs are manufactured with the seeded fault framework: a ``delay``
rule on the ``worker.execute`` site, scoped by ``where`` to one payload
shape, replaces the retired ``_sleep`` request kind.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro
from repro.service import (
    ServiceClient,
    ServiceConfig,
    StencilService,
    faults,
    serve_background,
)


@pytest.fixture(autouse=True)
def _isolated_injector():
    """ServiceConfig.faults installs process-globally; always clean up."""
    yield
    faults.deactivate()


def drive(config, scenario):
    """Run ``scenario(service)`` against a started service on a fresh loop."""

    async def runner():
        service = StencilService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.shutdown(drain=False)

    return asyncio.run(runner())


def _config(tmp_path, rules=(), **overrides) -> ServiceConfig:
    settings = {
        "port": 0,
        "store_path": str(tmp_path / "store"),
        "workers": 0,
        "queue_size": 8,
        "request_timeout": 30.0,
        "drain_timeout": 2.0,
    }
    if rules:
        settings["faults"] = {"seed": 0, "rules": list(rules)}
    settings.update(overrides)
    return ServiceConfig(**settings)


def _delay(seconds, **where):
    """A worker-side delay rule scoped to payloads matching ``where``."""
    return {"site": "worker.execute", "kind": "delay", "seconds": seconds, "where": where}


ESTIMATE = {"kind": "estimate", "stencil": "1d-heat", "m": 4}


def _estimate(m):
    return {"kind": "estimate", "stencil": "1d-heat", "m": m}


class TestCacheHierarchy:
    def test_memory_hit_on_repeat(self, tmp_path):
        async def scenario(service):
            first = await service.handle_request(dict(ESTIMATE))
            second = await service.handle_request(dict(ESTIMATE))
            return first, second

        (s1, e1), (s2, e2) = drive(_config(tmp_path), scenario)
        assert s1 == s2 == 200
        assert e1["served_from"] == "computed"
        assert e2["served_from"] == "memory"
        assert e1["key"] == e2["key"]
        assert e1["result"] == e2["result"]

    def test_store_hit_after_restart_is_bit_identical(self, tmp_path):
        payload = {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}

        async def first_life(service):
            return await service.handle_request(dict(payload))

        async def second_life(service):
            return await service.handle_request(dict(payload))

        _, before = drive(_config(tmp_path), first_life)
        _, after = drive(_config(tmp_path), second_life)
        assert before["served_from"] == "computed"
        assert after["served_from"] == "store"
        from repro.service import serial

        assert json.dumps(serial.encode(before["result"]), sort_keys=True) == \
            json.dumps(serial.encode(after["result"]), sort_keys=True)
        assert np.array_equal(before["result"]["values"], after["result"]["values"])

    def test_a_store_written_by_another_version_is_not_answered_from(self, tmp_path, monkeypatch):
        """Request keys include ``repro.__version__``: after a restart under
        another version the store misses, under the same version it hits."""

        async def life(service):
            return await service.handle_request(dict(ESTIMATE))

        monkeypatch.setattr(repro, "__version__", "0.1.0")
        _, first = drive(_config(tmp_path), life)
        monkeypatch.setattr(repro, "__version__", "0.2.0")
        _, other = drive(_config(tmp_path), life)
        monkeypatch.setattr(repro, "__version__", "0.1.0")
        _, same = drive(_config(tmp_path), life)
        assert first["served_from"] == other["served_from"] == "computed"
        assert other["key"] != first["key"]
        assert same["served_from"] == "store"
        assert same["key"] == first["key"]
        assert same["result"] == first["result"]

    def test_the_memo_stays_within_the_byte_budget(self, tmp_path):
        """Cold results past ``store_max_bytes`` evict the least recently
        used from memory; a hot key requested between them stays a memory
        hit, and an evicted key comes back with the same result bytes."""
        budget = 40_000  # three 32x32 run results (11 kB each)
        payload = {"kind": "run", "stencil": "2d9p", "m": 2, "shape": [32, 32], "steps": 2}

        def run(seed):
            return dict(payload, seed=seed)

        async def scenario(service):
            first, hot_tiers, sizes = {}, [], []
            for seed in range(1, 9):
                _, _, first[seed] = await service._answer(run(seed))
                sizes.append(service.memo.bytes)
                _, envelope, _ = await service._answer(run(0))
                hot_tiers.append(envelope["served_from"])
            _, again, fragment = await service._answer(run(1))
            return first, hot_tiers, sizes, again["served_from"], fragment

        config = _config(tmp_path, store_max_bytes=budget)
        first, hot_tiers, sizes, tier, fragment = drive(config, scenario)
        assert max(sizes) <= budget
        assert hot_tiers == ["computed"] + ["memory"] * 7
        assert tier != "memory" and fragment == first[1]

    def test_stats_reflect_the_hierarchy(self, tmp_path):
        async def scenario(service):
            await service.handle_request(dict(ESTIMATE))
            await service.handle_request(dict(ESTIMATE))
            return service.stats_payload()

        stats = drive(_config(tmp_path), scenario)
        totals = stats["service"]["totals"]
        assert totals["received"] == 2
        assert totals["computed"] == 1
        assert totals["memory_hits"] == 1
        assert stats["service"]["hit_rate"] == pytest.approx(0.5)
        assert stats["cache"]["by_kind"]["estimate"]["hits"] == 1
        assert stats["store"]["puts"] == 1
        assert "estimate" in stats["service"]["latency_ms"]
        assert stats["workers"]["mode"] == "inline"


class TestSingleFlight:
    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.3, kind="estimate")])

        async def scenario(service):
            results = await asyncio.gather(
                *(service.handle_request(_estimate(4)) for _ in range(5))
            )
            return results, service.stats_payload()

        results, stats = drive(config, scenario)
        assert all(status == 200 for status, _ in results)
        totals = stats["service"]["totals"]
        assert totals["computed"] == 1  # one execution...
        assert totals["deduplicated"] == 4  # ...four riders
        assert totals["completed"] == 5

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.05, kind="estimate")])

        async def scenario(service):
            await asyncio.gather(
                service.handle_request(_estimate(4)),
                service.handle_request(_estimate(5)),
            )
            return service.stats_payload()

        stats = drive(config, scenario)
        assert stats["service"]["totals"]["computed"] == 2
        assert stats["service"]["totals"]["deduplicated"] == 0


class TestTimeouts:
    def test_waiter_timeout_does_not_poison_the_cell(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.5, m=6)])

        async def scenario(service):
            status, envelope = await service.handle_request(dict(_estimate(6), timeout=0.1))
            assert status == 504 and envelope["error"]["code"] == "timeout"
            # The timed-out cell was released, not poisoned: the identical
            # request computes fresh (with a roomy deadline) and succeeds.
            return await service.handle_request(_estimate(6))

        status, envelope = drive(config, scenario)
        assert status == 200
        assert envelope["served_from"] == "computed"

    def test_rider_timeout_leaves_the_owners_computation_running(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.4, m=6)])

        async def scenario(service):
            owner = asyncio.create_task(service.handle_request(_estimate(6)))
            await asyncio.sleep(0.05)
            rider_status, rider_env = await service.handle_request(dict(_estimate(6), timeout=0.1))
            owner_status, owner_env = await owner
            return (rider_status, rider_env), (owner_status, owner_env), service.stats_payload()

        rider, owner, stats = drive(config, scenario)
        assert rider[0] == 504 and rider[1]["error"]["code"] == "timeout"
        assert owner[0] == 200 and owner[1]["served_from"] == "computed"
        assert stats["service"]["totals"]["computed"] == 1

    def test_request_expired_in_queue_is_cancelled_cleanly(self, tmp_path):
        # One dispatcher, grinding on a slow job: the queued request's
        # deadline lapses before it is ever picked up.
        config = _config(tmp_path, rules=[_delay(0.6, m=1)], concurrency=1)

        async def scenario(service):
            grind = asyncio.create_task(service.handle_request(_estimate(1)))
            await asyncio.sleep(0.05)
            status, envelope = await service.handle_request(dict(_estimate(2), timeout=0.1))
            assert status == 504 and envelope["error"]["code"] == "timeout"
            await grind
            # The expired cell was released: the same request now executes.
            return await service.handle_request(_estimate(2))

        status, envelope = drive(config, scenario)
        assert status == 200
        assert envelope["served_from"] in ("computed", "memory")


class TestBackpressure:
    def test_overload_sheds_instead_of_queueing_forever(self, tmp_path):
        config = _config(
            tmp_path,
            rules=[_delay(0.4, kind="estimate")],
            queue_size=1,
            concurrency=1,
        )

        async def scenario(service):
            jobs = [service.handle_request(_estimate(m)) for m in range(1, 7)]
            return await asyncio.gather(*jobs)

        results = drive(config, scenario)
        statuses = sorted(status for status, _ in results)
        assert statuses.count(200) >= 1
        assert statuses.count(503) >= 1
        shed = [e for s, e in results if s == 503]
        assert all(e["error"]["code"] == "overloaded" for e in shed)
        # Load-shedding 503s carry the backoff hint for well-behaved clients.
        assert all(e["error"]["retry_after"] > 0 for e in shed)

    def test_cheap_requests_jump_cold_expensive_jobs(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.3, m=1)], concurrency=1)

        async def scenario(service):
            order = []

            async def tagged(payload, tag):
                status, _ = await service.handle_request(payload)
                order.append(tag)
                return status

            # Occupy the single dispatcher, then enqueue an expensive and a
            # cheap request while it grinds: the cheap one must run first.
            grind = asyncio.create_task(tagged(_estimate(1), "grind"))
            await asyncio.sleep(0.05)
            expensive = asyncio.create_task(
                tagged(
                    {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 2},
                    "expensive",
                )
            )
            await asyncio.sleep(0.01)
            cheap = asyncio.create_task(tagged({"kind": "plan", "stencil": "1d-heat"}, "cheap"))
            await asyncio.gather(grind, expensive, cheap)
            return order

        order = drive(config, scenario)
        assert order.index("cheap") < order.index("expensive")


class TestValidationAndDraining:
    def test_invalid_request_is_a_structured_400(self, tmp_path):
        async def scenario(service):
            return await service.handle_request({"kind": "estimate", "stencil": "??"})

        status, envelope = drive(_config(tmp_path), scenario)
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "invalid-request"

    def test_retired_fault_kinds_are_always_rejected(self, tmp_path):
        async def scenario(service):
            return (
                await service.handle_request({"kind": "_sleep", "seconds": 0.01}),
                await service.handle_request({"kind": "_crash", "marker": "x"}),
            )

        (s1, e1), (s2, e2) = drive(_config(tmp_path), scenario)
        assert s1 == s2 == 400
        assert "retired" in e1["error"]["message"]
        assert "retired" in e2["error"]["message"]

    def test_draining_rejects_new_work_and_finishes_old(self, tmp_path):
        config = _config(tmp_path, rules=[_delay(0.3, m=7)])

        async def scenario(service):
            inflight = asyncio.create_task(service.handle_request(_estimate(7)))
            await asyncio.sleep(0.05)
            drain = asyncio.create_task(service.shutdown(drain=True))
            await asyncio.sleep(0.05)
            rejected = await service.handle_request(dict(ESTIMATE))
            finished = await inflight
            await drain
            return rejected, finished

        (reject_status, reject_env), (done_status, done_env) = drive(config, scenario)
        assert reject_status == 503
        assert reject_env["error"]["code"] == "draining"
        assert reject_env["error"]["retry_after"] > 0
        assert done_status == 200
        assert done_env["served_from"] == "computed"


class TestHttpEndToEnd:
    def test_full_http_round_trip_and_restart(self, tmp_path):
        config = _config(tmp_path)
        handle = serve_background(config)
        try:
            with ServiceClient(handle.base_url) as client:
                assert client.healthy()
                reply = client.submit(
                    {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}
                )
                assert reply["served_from"] == "computed"
                assert reply["result"]["values"].shape == (64,)
                _, raw_first = client.submit_raw(
                    {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}
                )
                stats = client.stats()
            assert stats["service"]["totals"]["received"] == 2
        finally:
            handle.stop()

        # New process-equivalent life over the same store directory.
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                status, raw_second = client.submit_raw(
                    {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}
                )
            assert status == 200
            first = json.loads(raw_first)
            second = json.loads(raw_second)
            assert second["served_from"] == "store"
            # The replayed payload is bit-identical to the computed one.
            assert json.dumps(first["result"], sort_keys=True) == json.dumps(
                second["result"], sort_keys=True
            )
        finally:
            handle.stop()

    def test_http_errors(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                status, _ = client.request_raw("GET", "/no/such/route")
                assert status == 404
                status, _ = client.request_raw("POST", "/v1/requests", b"not json")
                assert status == 400
                with pytest.raises(RuntimeError, match="invalid-request"):
                    client.submit({"kind": "nope"})
        finally:
            handle.stop()
