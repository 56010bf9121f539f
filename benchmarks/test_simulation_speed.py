"""Simulation-speed benchmark: trace replay vs the interpreted simulator.

Times ``CompiledPlan.simulate()`` under both backends on a 1-D, a 2-D and a
3-D grid, asserts the acceptance bar (trace replay ≥ 10× faster with
bit-identical values and identical instruction counts) and emits
``BENCH_simulation.json`` into ``bench-out/`` so the perf trajectory of
future PRs can be compared against this one.  CI runs this module with
``--benchmark-json``, uploads both artifacts and gates the next PR on the
emitted cases through ``benchmarks/check_perf_trajectory.py``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

import repro
from benchmarks.conftest import run_once, write_artifact
from repro.simd.machine import SimdMachine
from repro.stencils.grid import Grid

#: Acceptance bar for every case (the asserted floor, not the typical
#: speedup, which is two orders of magnitude larger).
MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def artifact():
    """Collects per-case results and writes BENCH_simulation.json on teardown."""
    results = {}
    yield results
    payload = {
        "benchmark": "simulation-speed",
        "unit": "seconds",
        "cases": results,
    }
    write_artifact("BENCH_simulation.json", payload)


def _time_backends(plan, grid, steps):
    """Run both backends, check exact agreement, return timings + outputs."""
    machine_t = SimdMachine(plan.isa_spec)
    # Warm-up builds (and caches) the compiled trace so the timed section
    # measures steady-state replay, the regime simulate() lives in.
    plan.simulate(grid, steps, backend="trace")
    t0 = time.perf_counter()
    out_trace, _ = plan.simulate(grid, steps, machine=machine_t, backend="trace")
    trace_s = time.perf_counter() - t0

    machine_i = SimdMachine(plan.isa_spec)
    t0 = time.perf_counter()
    out_interp, _ = plan.simulate(grid, steps, machine=machine_i, backend="interpret")
    interp_s = time.perf_counter() - t0

    np.testing.assert_array_equal(out_trace, out_interp)
    assert machine_t.counts.counts == machine_i.counts.counts
    assert machine_t.peak_live_registers == machine_i.peak_live_registers
    assert machine_t.spill_count == machine_i.spill_count
    return trace_s, interp_s, machine_t.counts.total


@pytest.mark.benchmark(group="simulation-speed")
def test_simulation_speed_1d(benchmark, artifact):
    """1-D heat, 32768 points (2048 vector sets), 8 steps, m=2, AVX-2."""
    p = repro.plan("1d-heat").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((1 << 15,), seed=0)
    trace_s, interp_s, total_instr = _time_backends(p, grid, steps=8)
    run_once(benchmark, p.simulate, grid, 8)
    speedup = interp_s / trace_s
    artifact["1d-heat-32768x8"] = {
        "grid": list(grid.values.shape),
        "steps": 8,
        "trace_seconds": trace_s,
        "interpret_seconds": interp_s,
        "speedup": speedup,
        "simulated_instructions": total_instr,
    }
    print(
        f"\n1-D 32768x8: interpret {interp_s:.3f}s, trace {trace_s:.4f}s "
        f"-> {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP


@pytest.mark.benchmark(group="simulation-speed")
def test_simulation_speed_2d(benchmark, artifact):
    """Acceptance: 2D9P on a 256×256 grid, 8 steps, m=2 — trace ≥ 10× faster."""
    p = repro.plan("2d9p").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((256, 256), seed=0)
    trace_s, interp_s, total_instr = _time_backends(p, grid, steps=8)
    run_once(benchmark, p.simulate, grid, 8)
    speedup = interp_s / trace_s
    artifact["2d9p-256x256x8"] = {
        "grid": list(grid.values.shape),
        "steps": 8,
        "trace_seconds": trace_s,
        "interpret_seconds": interp_s,
        "speedup": speedup,
        "simulated_instructions": total_instr,
    }
    print(
        f"\n2-D 256x256x8: interpret {interp_s:.3f}s, trace {trace_s:.4f}s "
        f"-> {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP


#: Noise floor for the pass ablation's wall-clock ratios, on IR replay and
#: on native code.  The optimized program executes no more ops than the raw
#: one, so only timing noise sits between it and parity — the count
#: reduction is the pipeline's model-side signal, and these floors only guard
#: against a gross pessimisation.
MIN_ABLATION_REPLAY = 0.9

#: Pass-ablation cases: (stencil, isa, m, grid shape, steps), each run raw
#: and through the default pipeline (``optimize=True``).
ABLATION_CASES = {
    "pass-ablation-1d-heat-avx512": ("1d-heat", "avx512", 2, (1 << 15,), 8),
    "pass-ablation-2d9p-avx2": ("2d9p", "avx2", 3, (128, 128), 6),
    "pass-ablation-3d-heat-avx512": ("3d-heat", "avx512", 2, (16, 16, 16), 4),
}


#: Interleaved (unoptimized, optimized) timing pairs per ablation case.
ABLATION_PAIRS = 15

#: Shortest native sample: a sample repeats ``run()`` until its faster side
#: takes this long, so timer resolution and per-call jitter stay small.
MIN_SAMPLE_SECONDS = 0.005


def _paired(base_fn, opt_fn, calls=1):
    """``(median speed ratio, median base seconds, median opt seconds)``.

    Each pair times both sides back to back, ``calls`` calls per sample,
    alternating which runs first, so host load that comes and goes moves
    both sides of a pair's ratio together; the median over pairs drops the
    pairs a burst split.  (The ratio of two separate min-of-N blocks read
    anywhere from 0.6 to 1.8 on the same code on a shared 2-core host.)
    Seconds are per call.
    """
    base_s, opt_s, ratios = [], [], []
    for i in range(ABLATION_PAIRS):
        sides = [(base_s, base_fn), (opt_s, opt_fn)]
        for samples, fn in sides if i % 2 == 0 else reversed(sides):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - t0) / calls)
        ratios.append(base_s[-1] / opt_s[-1])
    return statistics.median(ratios), statistics.median(base_s), statistics.median(opt_s)


def _calls_per_sample(*fns):
    """Calls per sample that keep the fastest of ``fns`` at or above
    :data:`MIN_SAMPLE_SECONDS` (doubling, like ``timeit``'s autorange)."""
    calls = 1
    while True:
        fastest = float("inf")
        for fn in fns:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            fastest = min(fastest, time.perf_counter() - t0)
        if fastest >= MIN_SAMPLE_SECONDS:
            return calls
        calls *= 2


def _native_ablation(p, grid, steps):
    """``{"native_speedup": ...}``: raw over default-pipeline time under
    ``run(backend="kernel")``, or ``{"native_skip_reason": ...}`` when either
    program cannot be built natively."""
    from repro.backend import compile_kernel

    for optimize in (False, True):
        program = compile_kernel(p.schedule, p.isa_spec, optimize=optimize)
        if program.native is None:
            return {"native_skip_reason": program.detail}
    base_fn = lambda: p.run(grid, steps, backend="kernel")  # noqa: E731
    opt_fn = lambda: p.run(grid, steps, backend="kernel", optimize=True)  # noqa: E731
    np.testing.assert_array_equal(opt_fn(), base_fn())
    speedup, _, _ = _paired(base_fn, opt_fn, _calls_per_sample(base_fn, opt_fn))
    return {"native_speedup": speedup}


@pytest.mark.benchmark(group="simulation-speed")
@pytest.mark.parametrize("case_name", sorted(ABLATION_CASES))
def test_pass_ablation_replay(benchmark, artifact, case_name):
    """The default pass pipeline against the raw program, per case.

    Each case runs the same schedule with and without the pipeline and
    records the simulated instruction-count reduction next to two measured
    wall-clock ratios, both medians of interleaved pairs on bit-identical
    outputs: IR replay (``replay_speedup``) and native code under
    ``run(backend="kernel")`` (``native_speedup``).  A host that cannot
    build the native programs records why and skips after the other gates.
    """
    stencil, isa, m, shape, steps = ABLATION_CASES[case_name]
    p = repro.plan(stencil).method("folded").unroll(m).isa(isa).compile()
    grid = Grid.random(shape, seed=0)
    # Warm-up compiles (and caches) both variants.
    base_out, _ = p.simulate(grid, steps, backend="trace")
    opt_out, _ = p.simulate(grid, steps, backend="trace", optimize=True)
    np.testing.assert_array_equal(opt_out, base_out)

    replay_speedup, base_s, opt_s = _paired(
        lambda: p.simulate(grid, steps, backend="trace"),
        lambda: p.simulate(grid, steps, backend="trace", optimize=True),
    )
    machine_b = SimdMachine(p.isa_spec)
    p.simulate(grid, steps, machine=machine_b, backend="trace")
    machine_o = SimdMachine(p.isa_spec)
    p.simulate(grid, steps, machine=machine_o, backend="trace", optimize=True)

    run_once(benchmark, p.simulate, grid, steps, optimize=True)
    count_reduction = machine_b.counts.total / machine_o.counts.total
    native = _native_ablation(p, grid, steps)

    artifact[case_name] = {
        "kind": "pass-ablation",
        "grid": list(grid.values.shape),
        "steps": steps,
        "pipeline": "default",
        "unoptimized_seconds": base_s,
        "optimized_seconds": opt_s,
        "replay_speedup": replay_speedup,
        "unoptimized_instructions": machine_b.counts.total,
        "optimized_instructions": machine_o.counts.total,
        "count_reduction": count_reduction,
        **native,
    }
    skip_reason = native.get("native_skip_reason")
    if skip_reason:
        native_text = f"native skipped ({skip_reason})"
    else:
        native_text = f"native {native['native_speedup']:.2f}x"
    print(
        f"\n{case_name}: {machine_b.counts.total:.0f} -> "
        f"{machine_o.counts.total:.0f} instr ({count_reduction:.3f}x), "
        f"replay {base_s:.4f}s -> {opt_s:.4f}s ({replay_speedup:.2f}x), {native_text}"
    )
    assert count_reduction > 1.0
    assert replay_speedup >= MIN_ABLATION_REPLAY
    if skip_reason:
        pytest.skip(f"native pass ablation: {skip_reason}")
    assert native["native_speedup"] >= MIN_ABLATION_REPLAY


@pytest.mark.benchmark(group="simulation-speed")
def test_simulation_speed_3d(benchmark, artifact):
    """3-D heat on a 16×16×16 grid, 4 steps, m=2 — trace ≥ 10× faster."""
    p = repro.plan("3d-heat").method("folded").unroll(2).isa("avx2").compile()
    grid = Grid.random((16, 16, 16), seed=0)
    trace_s, interp_s, total_instr = _time_backends(p, grid, steps=4)
    run_once(benchmark, p.simulate, grid, 4)
    speedup = interp_s / trace_s
    artifact["3d-heat-16x16x16x4"] = {
        "grid": list(grid.values.shape),
        "steps": 4,
        "trace_seconds": trace_s,
        "interpret_seconds": interp_s,
        "speedup": speedup,
        "simulated_instructions": total_instr,
    }
    print(
        f"\n3-D 16x16x16x4: interpret {interp_s:.3f}s, trace {trace_s:.4f}s "
        f"-> {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP
