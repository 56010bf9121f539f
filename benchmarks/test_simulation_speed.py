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


#: Noise floor for optimized-over-unoptimized replay wall clock.  The
#: optimized program executes strictly fewer (or equally many) NumPy ops, so
#: only scheduler noise sits between it and parity — the count and
#: critical-path reductions below are the real perf signal, the wall clock
#: only guards against a gross pipeline pessimisation.
MIN_ABLATION_REPLAY = 0.9

#: Looser replay floor for the accumulator-splitting case, which executes a
#: few *more* NumPy ops (extra partial seeds and merges) in exchange for the
#: shorter serial chain — parity is not its claim, the critical path is.
MIN_SPLIT_REPLAY = 0.7

#: Pass-ablation cases: (stencil, isa, m, grid shape, steps, pipeline).
#: ``pipeline=None`` means the default pipeline (``optimize=True``) with
#: bit-identical replay; the split-accum case opts into the reassociating
#: reduction splitter, whose replay is gated with ``allclose`` instead and
#: whose perf signal is the critical-path reduction, not the op count.
ABLATION_CASES = {
    "pass-ablation-1d-heat-avx512": ("1d-heat", "avx512", 2, (1 << 15,), 8, None),
    "pass-ablation-2d9p-avx2": ("2d9p", "avx2", 3, (128, 128), 6, None),
    "pass-ablation-3d-heat-avx512": ("3d-heat", "avx512", 2, (16, 16, 16), 4, None),
    "pass-ablation-split-accum-3d-heat-avx2": (
        "3d-heat",
        "avx2",
        3,
        (16, 16, 16),
        3,
        ("cse", "coalesce", "fuse-fma", "dce", "split-accum", "hoist", "reschedule"),
    ),
}


#: Interleaved (unoptimized, optimized) timing pairs per ablation case.
ABLATION_PAIRS = 15


def _paired_replay(base_fn, opt_fn):
    """``(median speed ratio, median base seconds, median opt seconds)``.

    Each pair times both sides back to back, alternating which runs first,
    so host load that comes and goes moves both sides of a pair's ratio
    together; the median over pairs drops the pairs a burst split.  (The
    ratio of two separate min-of-N blocks read anywhere from 0.6 to 1.8 on
    the same code on a shared 2-core host.)
    """
    base_s, opt_s, ratios = [], [], []
    for i in range(ABLATION_PAIRS):
        sides = [(base_s, base_fn), (opt_s, opt_fn)]
        for samples, fn in sides if i % 2 == 0 else reversed(sides):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        ratios.append(base_s[-1] / opt_s[-1])
    return statistics.median(ratios), statistics.median(base_s), statistics.median(opt_s)


@pytest.mark.benchmark(group="simulation-speed")
@pytest.mark.parametrize("case_name", sorted(ABLATION_CASES))
def test_pass_ablation_replay(benchmark, artifact, case_name):
    """Optimized vs unoptimized IR replay across 1-D/2-D/3-D cases.

    Each case replays the same schedule with and without the IR pass
    pipeline and records three deterministic deltas next to the (noisy)
    wall clock: the simulated instruction-count reduction, the
    dependency-graph critical-path reduction, and the graph's alias-analysis
    summary (how many memory-op pairs the :class:`MemoryRef` model proved
    independent).  The default-pipeline cases must stay bit-identical; the
    split-accum case reassociates a reduction chain, so it is compared with
    ``allclose`` and its perf signal is the critical path, not the count.
    """
    from repro.ir.dependency import program_critical_path, program_stats
    from repro.ir.passes import PassManager

    stencil, isa, m, shape, steps, pipeline = ABLATION_CASES[case_name]
    exact = pipeline is None
    optimize = True if pipeline is None else pipeline
    p = repro.plan(stencil).method("folded").unroll(m).isa(isa).compile()
    grid = Grid.random(shape, seed=0)
    # Warm-up compiles (and caches) both variants.
    base_out, _ = p.simulate(grid, steps, backend="trace")
    opt_out, _ = p.simulate(grid, steps, backend="trace", optimize=optimize)
    if exact:
        np.testing.assert_array_equal(opt_out, base_out)
    else:
        np.testing.assert_allclose(opt_out, base_out, rtol=1e-12, atol=1e-12)

    replay_speedup, base_s, opt_s = _paired_replay(
        lambda: p.simulate(grid, steps, backend="trace"),
        lambda: p.simulate(grid, steps, backend="trace", optimize=optimize),
    )
    machine_b = SimdMachine(p.isa_spec)
    p.simulate(grid, steps, machine=machine_b, backend="trace")
    machine_o = SimdMachine(p.isa_spec)
    p.simulate(grid, steps, machine=machine_o, backend="trace", optimize=optimize)

    run_once(benchmark, p.simulate, grid, steps, optimize=optimize)
    count_reduction = machine_b.counts.total / machine_o.counts.total

    # Deterministic graph-side deltas of the same two programs.
    raw_ir = p.schedule.schedule_ir(p.isa_spec.vector_lanes, optimize=False)
    opt_ir, _reports = PassManager(optimize).run(raw_ir)
    cp_before = program_critical_path(raw_ir)
    cp_after = program_critical_path(opt_ir)
    stats = program_stats(opt_ir)
    graph = {
        "nodes": sum(s.nodes for s in stats.values()),
        "def_use_edges": sum(s.def_use_edges for s in stats.values()),
        "memory_edges": sum(s.memory_edges for s in stats.values()),
        "memory_edges_broken": sum(s.memory_edges_broken for s in stats.values()),
    }

    artifact[case_name] = {
        "kind": "pass-ablation",
        "grid": list(grid.values.shape),
        "steps": steps,
        "pipeline": "default" if pipeline is None else list(pipeline),
        "unoptimized_seconds": base_s,
        "optimized_seconds": opt_s,
        "replay_speedup": replay_speedup,
        "unoptimized_instructions": machine_b.counts.total,
        "optimized_instructions": machine_o.counts.total,
        "count_reduction": count_reduction,
        "critical_path_before_cycles": cp_before,
        "critical_path_after_cycles": cp_after,
        "critical_path_reduction": cp_before / cp_after if cp_after else 1.0,
        "graph": graph,
    }
    print(
        f"\n{case_name}: {machine_b.counts.total:.0f} -> "
        f"{machine_o.counts.total:.0f} instr ({count_reduction:.3f}x), "
        f"cp {cp_before:g} -> {cp_after:g} cyc "
        f"({cp_before / cp_after if cp_after else 1.0:.2f}x), "
        f"replay {base_s:.4f}s -> {opt_s:.4f}s ({replay_speedup:.2f}x)"
    )
    if exact:
        assert count_reduction > 1.0
        assert replay_speedup >= MIN_ABLATION_REPLAY
    else:
        # The splitter trades a few extra merge/seed ops for a shorter
        # serial chain; the critical path is the gated signal here.
        assert cp_before / cp_after > 1.0
        assert replay_speedup >= MIN_SPLIT_REPLAY


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
