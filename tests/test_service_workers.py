"""The worker tier: job execution, study sharding, crash recovery.

Crashes are provoked with the seeded fault framework: a ``crash`` rule on
the ``worker.execute`` site is decided on the submitting side and shipped
to the worker as a directive, where process mode turns it into a hard
``os._exit`` — the real dead-worker signature the pool must survive.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.service import faults
from repro.service.faults import FaultInjector, FaultRule
from repro.service.protocol import ServiceError, expand_study_cells, normalize
from repro.service.resilience import RetryPolicy
from repro.service.workers import WorkerPool, execute_payload


@pytest.fixture(autouse=True)
def _isolated_injector():
    yield
    faults.deactivate()


def _payload(raw):
    return normalize(raw).to_payload()


def _crash_rules(*specs):
    """Install worker-crash rules; returns the injector for inspection."""
    return faults.install(
        FaultInjector(
            seed=0,
            rules=[FaultRule(site="worker.execute", kind="crash", **spec) for spec in specs],
        )
    )


class TestExecutePayload:
    """Jobs executed in-process agree with the plan API they wrap."""

    def test_plan(self):
        result = execute_payload(_payload({"kind": "plan", "stencil": "1d-heat", "m": 4}))
        plan = repro.plan("1d-heat").method("folded").isa("avx2").unroll(4).compile()
        assert result["label"] == plan.label
        assert result["steps_per_update"] == plan.steps_per_update
        # explain() less what reads the process and the host: the engine
        # state ending the execution path line, the fold kernel and kernel
        # backend lines.
        lines = plan.explain().splitlines()
        (path,) = [i for i, line in enumerate(lines) if line.startswith("  execution path :")]
        lines[path] = lines[path].split("; native program: ")[0]
        host = ("  fold kernel    :", "  kernel backend :")
        assert result["explain"].splitlines() == [
            line for line in lines if not line.startswith(host)
        ]
        assert result["profitability"]["collect_optimized"] > 0

    def test_plan_result_does_not_depend_on_what_the_worker_ran_before(self):
        """A run() and its native build between two identical requests
        change nothing in the result, and no host path reaches it."""
        from repro.backend import clear_kernel_cache
        from repro.backend.codegen import wait_for_builds

        assert wait_for_builds(timeout=600)
        clear_kernel_cache()  # no build of this configuration yet
        payload = _payload(
            {"kind": "plan", "stencil": "2d9p", "method": "folded", "isa": "avx2", "m": 2}
        )
        first = execute_payload(payload)
        plan = repro.plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
        plan.run(repro.Grid.random((16, 16), seed=0), 2)
        assert wait_for_builds(timeout=600)
        assert execute_payload(payload) == first
        assert ".so" not in first["explain"] and "native program:" not in first["explain"]

    def test_estimate_matches_direct_api(self):
        result = execute_payload(
            _payload(
                {
                    "kind": "estimate",
                    "stencil": "1d-heat",
                    "m": 4,
                    "shape": [1 << 16],
                    "time_steps": 100,
                }
            )
        )
        plan = repro.plan("1d-heat").method("folded").unroll(4).compile()
        estimate = plan.estimate([1 << 16], time_steps=100)
        assert result["gflops"] == pytest.approx(estimate.gflops)
        assert result["bound"] == estimate.bound

    def test_simulate_matches_direct_api(self):
        result = execute_payload(
            _payload(
                {
                    "kind": "simulate",
                    "stencil": "1d-heat",
                    "m": 2,
                    "shape": [64],
                    "steps": 4,
                    "seed": 7,
                }
            )
        )
        from repro.stencils.grid import Grid

        plan = repro.plan("1d-heat").method("folded").unroll(2).compile()
        values, counts = plan.simulate(Grid.random((64,), seed=7), 4)
        assert np.array_equal(result["values"], values)
        assert result["instructions"]["total"] == counts.total
        assert all(isinstance(k, str) for k in result["instructions"]["counts"])

    def test_backend_selection_reaches_execution(self):
        base = {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}
        trace = execute_payload(_payload(base))
        assert trace["backend"] == "trace"
        kernel = execute_payload(_payload({**base, "backend": "kernel"}))
        assert kernel["backend"] == "kernel"
        assert np.array_equal(kernel["values"], trace["values"])
        assert kernel["instructions"] == trace["instructions"]

        run_auto = execute_payload(_payload({**base, "kind": "run"}))
        assert run_auto["backend"] == "auto"
        run_kernel = execute_payload(_payload({**base, "kind": "run", "backend": "kernel"}))
        assert run_kernel["backend"] == "kernel"
        assert np.array_equal(run_kernel["values"], run_auto["values"])

    def test_study_rows_match_estimates(self):
        payload = _payload(
            {
                "kind": "study",
                "stencil": "1d-heat",
                "axes": {"method": ["folded", "dlt"], "m": [1, 2]},
            }
        )
        result = execute_payload(payload)
        assert result["cells"] == 4
        assert [row["index"] for row in result["rows"]] == [0, 1, 2, 3]
        single = execute_payload(
            _payload({"kind": "estimate", "stencil": "1d-heat", "method": "dlt", "m": 2})
        )
        by_config = {(r["method"], r["m"]): r for r in result["rows"]}
        assert by_config[("dlt", 2)]["gflops"] == pytest.approx(single["gflops"])


class TestWorkerPool:
    def test_inline_and_process_results_agree(self):
        payload = _payload({"kind": "estimate", "stencil": "2d-heat", "m": 4})
        inline, procs = WorkerPool(0), WorkerPool(1)
        try:
            assert inline.run_sync(payload) == procs.run_sync(payload)
        finally:
            inline.shutdown()
            procs.shutdown()

    def test_sharded_study_equals_unsharded(self):
        payload = _payload(
            {
                "kind": "study",
                "stencil": "1d-heat",
                "axes": {"method": ["folded", "multiple_loads", "dlt"], "m": [1, 2, 4]},
            }
        )
        unsharded = execute_payload(payload)
        pool = WorkerPool(2)
        try:
            cells = expand_study_cells(payload)
            sharded = asyncio.run(pool.run_study(dict(payload), cells, shards=3))
        finally:
            pool.shutdown()
        assert sharded == unsharded

    def test_crash_is_retried_and_succeeds(self):
        # Crash exactly the first worker.execute invocation: the pool
        # rebuilds, retries, and the second attempt runs clean.
        injector = _crash_rules({"at": [0]})
        pool = WorkerPool(1, sleep=lambda _s: None)
        try:
            result = pool.run_sync(_payload({"kind": "estimate", "stencil": "1d-heat"}))
            assert result["gflops"] > 0
            # The rebuilt pool keeps serving ordinary jobs.
            after = pool.run_sync(_payload({"kind": "estimate", "stencil": "1d-heat", "m": 8}))
            assert after["gflops"] > 0
            counters = pool.resilience_stats()["pool"]
            assert counters["crashes"] == 1
            assert counters["retries"] == 1
            assert counters["rebuilds"] == 1
            assert injector.stats()["injected"]["worker.execute"]["crash"] == 1
        finally:
            pool.shutdown()

    def test_persistent_crash_surfaces_structured_error(self):
        # Every invocation crashes: the retry budget runs out and the
        # caller gets the structured worker-crash error, not a raw one.
        _crash_rules({"every": 1})
        pool = WorkerPool(
            1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
            sleep=lambda _s: None,
        )
        try:
            with pytest.raises(ServiceError) as info:
                pool.run_sync(_payload({"kind": "estimate", "stencil": "1d-heat"}))
        finally:
            pool.shutdown()
        assert info.value.code == "worker-crash"
        assert info.value.status == 500

    def test_inline_pool_crash_directive_does_not_exit_the_process(self):
        # workers=0 executes on threads; a process-mode exit would kill the
        # test runner, so inline directives must raise instead.
        _crash_rules({"at": [0]})
        pool = WorkerPool(0, sleep=lambda _s: None)
        try:
            result = pool.run_sync(_payload({"kind": "estimate", "stencil": "1d-heat"}))
            assert result["gflops"] > 0
            assert pool.resilience_stats()["pool"]["retries"] == 1
        finally:
            pool.shutdown()

    def test_execution_errors_are_not_retried_as_crashes(self):
        pool = WorkerPool(1)
        payload = _payload({"kind": "plan", "stencil": "1d-heat"})
        payload["m"] = -3  # valid at the protocol layer? no — forge it past it
        try:
            with pytest.raises(Exception) as info:
                pool.run_sync(payload)
        finally:
            pool.shutdown()
        assert not isinstance(info.value, ServiceError)
