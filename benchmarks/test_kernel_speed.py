"""Kernel-backend benchmark: content-key-cached IR replay vs the interpreter.

Times ``CompiledPlan.simulate()`` under the interpret, trace and kernel
backends on a 1-D, a 2-D and a 3-D grid, asserts the acceptance bar
(kernel ≥ 5× faster than interpret with bit-identical values and identical
instruction counts) and emits ``BENCH_kernel.json`` into ``bench-out/``.
CI gates the next PR on the emitted cases through
``benchmarks/check_perf_trajectory.py --kernel``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from benchmarks.conftest import run_once, write_artifact
from repro.stencils.grid import Grid

#: Acceptance bar: the asserted floor for interpret_seconds / kernel_seconds.
MIN_KERNEL_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def artifact():
    """Collects per-case results and writes BENCH_kernel.json on teardown."""
    results = {}
    yield results
    payload = {
        "benchmark": "kernel-speed",
        "unit": "seconds",
        "cases": results,
    }
    write_artifact("BENCH_kernel.json", payload)


def _best_of(repeats, fn):
    """Min-of-N wall clock; kernel replays are ~ms-scale and noisy."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_backends(plan, grid, steps):
    """Time interpret/trace/kernel, check exact agreement, return timings."""
    # Warm-up compiles (and caches) both compiled engines so the timed
    # section measures steady-state execution.
    ref, ref_counts = plan.simulate(grid, steps, backend="interpret")
    for backend in ("trace", "kernel"):
        out, counts = plan.simulate(grid, steps, backend=backend)
        np.testing.assert_array_equal(out, ref)
        assert counts.counts == ref_counts.counts

    interp_s = _best_of(3, lambda: plan.simulate(grid, steps, backend="interpret"))
    trace_s = _best_of(5, lambda: plan.simulate(grid, steps, backend="trace"))
    kernel_s = _best_of(5, lambda: plan.simulate(grid, steps, backend="kernel"))
    return interp_s, trace_s, kernel_s, ref_counts.total


def _record(artifact, case, grid, steps, interp_s, trace_s, kernel_s, total_instr):
    speedup = interp_s / kernel_s
    artifact[case] = {
        "grid": list(grid.values.shape),
        "steps": steps,
        "interpret_seconds": interp_s,
        "trace_seconds": trace_s,
        "kernel_seconds": kernel_s,
        "speedup": speedup,
        "simulated_instructions": total_instr,
    }
    print(
        f"\n{case}: interpret {interp_s:.3f}s, trace {trace_s:.4f}s, "
        f"kernel {kernel_s:.4f}s -> {speedup:.0f}x vs interpret"
    )
    assert speedup >= MIN_KERNEL_SPEEDUP


@pytest.mark.benchmark(group="kernel-speed")
def test_kernel_speed_1d(benchmark, artifact):
    """1-D heat, 32768 points, 8 steps, m=2, AVX-2."""
    p = repro.plan("1d-heat").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((1 << 15,), seed=0)
    timings = _time_backends(p, grid, steps=8)
    run_once(benchmark, p.simulate, grid, 8, backend="kernel")
    _record(artifact, "1d-heat-32768x8", grid, 8, *timings)


@pytest.mark.benchmark(group="kernel-speed")
def test_kernel_speed_2d(benchmark, artifact):
    """Acceptance: 2D9P on a 256×256 grid, 8 steps — kernel ≥ 5× interpret."""
    p = repro.plan("2d9p").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((256, 256), seed=0)
    timings = _time_backends(p, grid, steps=8)
    run_once(benchmark, p.simulate, grid, 8, backend="kernel")
    _record(artifact, "2d9p-256x256x8", grid, 8, *timings)


@pytest.mark.benchmark(group="kernel-speed")
def test_kernel_speed_3d(benchmark, artifact):
    """3-D heat on a 16×16×16 grid, 4 steps — kernel ≥ 5× interpret."""
    p = repro.plan("3d-heat").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((16, 16, 16), seed=0)
    timings = _time_backends(p, grid, steps=4)
    run_once(benchmark, p.simulate, grid, 4, backend="kernel")
    _record(artifact, "3d-heat-16x16x16x4", grid, 4, *timings)
