"""Generated-megakernel backend (repro.backend): the contract under test.

* The kernel's replay is **bit-identical** to the interpreted SIMD sweep on
  every linear library stencil, both ISAs, both store layouts and all
  supported dimensionalities — unoptimized and through the default pass
  pipeline — and its derived accounting reproduces the interpreted machine.
* Kernels are content-key cached: identical programs share one compiled
  function, and the cache is observable (stats) and clearable.
* The plan layer exposes the backend (``simulate(backend="kernel")``,
  ``run(backend=...)``, ``measure()``), the backend registry names exactly
  the engines the service validates against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    EXECUTION_BACKENDS,
    backend_keys,
    clear_kernel_cache,
    compile_kernel,
    is_backend,
    kernel_cache_stats,
    kernel_content_key,
)
from repro.backend.codegen import generate_kernel_source
from repro.core.plan import plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.ir import lower_schedule
from repro.layout.transpose_layout import to_transpose_layout
from repro.simd.isa import AVX2, AVX512
from repro.simd.machine import SimdMachine
from repro.stencils.grid import Grid
from repro.stencils.library import BENCHMARKS

#: Every registered linear library stencil (the non-linear ones cannot fold).
LINEAR_KEYS = tuple(key for key, case in BENCHMARKS.items() if case.spec.linear)
ISAS = [AVX2, AVX512]
#: Every (stencil, m, ISA) the engines accept: the folded radius fits the lanes.
ENGINE_CONFIGS = [
    pytest.param(key, m, isa, id=f"{key}-m{m}-{isa.name}")
    for key in LINEAR_KEYS
    for m in (1, 2, 3, 4)
    for isa in ISAS
    if m * BENCHMARKS[key].spec.radius <= isa.vector_lanes
]
#: Periodic grids in the engines' block multiples on both ISAs.
ENGINE_SHAPES = {1: (128,), 2: (16, 16), 3: (3, 8, 8)}


def _schedule_inputs(spec, isa, m=2, seed=5):
    """(schedule, grid values, shape-key) or None when the IR cannot express it."""
    sched = FoldingSchedule(spec, m)
    vl = isa.vector_lanes
    if sched.radius > vl:
        return None
    if sched.dims == 1:
        grid = Grid.random((3 * vl * vl,), seed=seed)
        data = to_transpose_layout(grid.values, vl)
        return sched, data, data.size
    if sched.dims == 2:
        grid = Grid.random((2 * vl, 3 * vl), seed=seed)
    else:
        grid = Grid.random((3, 2 * vl, 2 * vl), seed=seed)
    return sched, grid.values, grid.values.shape


def _interpret(sched, machine, values, transpose_back=True):
    if sched.dims == 1:
        return sched.simd_sweep_1d(machine, values.copy())
    if sched.dims == 2:
        return sched.simd_sweep_2d(machine, values.copy(), transpose_back=transpose_back)
    return sched.simd_sweep_3d(machine, values.copy(), transpose_back=transpose_back)


# --------------------------------------------------------------------------- #
# equivalence vs the interpreted oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
@pytest.mark.parametrize("key", LINEAR_KEYS)
class TestKernelEquivalence:
    def test_bit_identical_and_counts_reproduced(self, key, isa):
        bundle = _schedule_inputs(BENCHMARKS[key].spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, shape = bundle
        machine = SimdMachine(isa)
        ref = _interpret(sched, machine, values)
        kernel = compile_kernel(sched, isa)
        np.testing.assert_array_equal(kernel.replay(values.copy()), ref)
        counts, peak, spills = kernel.sweep_counts(shape)
        assert counts.counts == machine.counts.counts
        assert peak == machine.peak_live_registers
        assert spills == machine.spill_count

    def test_optimized_kernel_bit_identical(self, key, isa):
        bundle = _schedule_inputs(BENCHMARKS[key].spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, shape = bundle
        ref = _interpret(sched, SimdMachine(isa), values)
        kernel = compile_kernel(sched, isa, optimize=True)
        np.testing.assert_array_equal(kernel.replay(values.copy()), ref)
        base, _, _ = compile_kernel(sched, isa).sweep_counts(shape)
        opt, _, _ = kernel.sweep_counts(shape)
        assert opt.total <= base.total

    def test_transposed_store_layout_bit_identical(self, key, isa):
        spec = BENCHMARKS[key].spec
        if spec.dims == 1:
            pytest.skip("1-D programs always stay in the transpose layout")
        bundle = _schedule_inputs(spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, _shape = bundle
        ref = _interpret(sched, SimdMachine(isa), values, transpose_back=False)
        kernel = compile_kernel(sched, isa, transpose_back=False, optimize=True)
        np.testing.assert_array_equal(kernel.replay(values.copy()), ref)


class TestKernelExecution:
    def test_run_sweeps_matches_repeated_replay(self):
        for isa in ISAS:
            sched, values, _ = _schedule_inputs(BENCHMARKS["2d9p"].spec, isa)
            kernel = compile_kernel(sched, isa)
            expected = values.copy()
            for _ in range(3):
                expected = kernel.replay(expected)
            np.testing.assert_array_equal(kernel.run_sweeps(values.copy(), 3), expected)
            np.testing.assert_array_equal(kernel.run_sweeps(values.copy(), 0), values)

    def test_shape_validation(self):
        sched, _, _ = _schedule_inputs(BENCHMARKS["2d9p"].spec, AVX2)
        kernel = compile_kernel(sched, AVX2)
        with pytest.raises(ValueError, match="multiple"):
            kernel.replay(np.zeros((5, 7)))
        with pytest.raises(ValueError, match="2-D"):
            kernel.replay(np.zeros(64))

    def test_generated_source_is_deterministic(self):
        ir = lower_schedule(FoldingSchedule(BENCHMARKS["2d9p"].spec, 2), AVX2)
        src_a, ns_a = generate_kernel_source(ir)
        src_b, ns_b = generate_kernel_source(ir)
        assert src_a == src_b
        assert set(ns_a) == set(ns_b)
        assert "def megakernel(values, out):" in src_a


# --------------------------------------------------------------------------- #
# content-key cache
# --------------------------------------------------------------------------- #
class TestKernelCache:
    def test_identical_programs_share_one_kernel(self):
        clear_kernel_cache()
        sched = FoldingSchedule(BENCHMARKS["1d-heat"].spec, 2)
        first = compile_kernel(sched, AVX2)
        again = compile_kernel(sched, AVX2)
        assert again is first
        # A structurally identical schedule from a separate plan also hits.
        other = compile_kernel(FoldingSchedule(BENCHMARKS["1d-heat"].spec, 2), AVX2)
        assert other is first
        stats = kernel_cache_stats()
        assert stats["entries"] == 1 and stats["misses"] == 1 and stats["hits"] == 2

    def test_key_depends_on_program(self):
        sched = FoldingSchedule(BENCHMARKS["1d-heat"].spec, 2)
        ir = lower_schedule(sched, AVX2)
        assert kernel_content_key(ir) == kernel_content_key(ir)
        other = lower_schedule(sched, AVX512)
        assert kernel_content_key(ir) != kernel_content_key(other)


# --------------------------------------------------------------------------- #
# plan-layer wiring
# --------------------------------------------------------------------------- #
class TestPlanBackend:
    def test_simulate_kernel_matches_trace_and_interpret(self):
        for key, shape in (("1d-heat", (4 * 16,)), ("2d9p", (8, 8)), ("3d-heat", (3, 8, 8))):
            p = plan(key).method("folded").isa("avx2").unroll(2).compile()
            grid = Grid.random(shape, seed=3)
            ref, ref_counts = p.simulate(grid, 4, backend="interpret")
            for backend in ("trace", "kernel"):
                out, counts = p.simulate(grid, 4, backend=backend)
                np.testing.assert_array_equal(out, ref)
                assert counts.counts == ref_counts.counts

    def test_simulate_kernel_optimized_bit_identical_fewer_ops(self):
        p = plan("2d9p").method("folded").isa("avx512").unroll(2).compile()
        grid = Grid.random((16, 16), seed=9)
        ref, base_counts = p.simulate(grid, 2, backend="kernel")
        out, opt_counts = p.simulate(grid, 2, backend="kernel", optimize=True)
        np.testing.assert_array_equal(out, ref)
        assert opt_counts.total < base_counts.total

    @pytest.mark.parametrize("key,m,isa", ENGINE_CONFIGS)
    def test_run_backend_matches_auto_including_remainder(self, key, m, isa):
        p = plan(key).method("folded").isa(isa.name).unroll(m).compile()
        grid = Grid.random(ENGINE_SHAPES[p.spec.dims], seed=1)
        for steps in (m, 2 * m + 1):  # one folded sweep; two plus one reference step
            expected = p.run(grid, steps)
            for backend in ("kernel", "trace", "interpret"):
                np.testing.assert_array_equal(
                    p.run(grid, steps, backend=backend), expected
                )

    def test_run_rejects_unknown_backend_and_stray_optimize(self):
        p = plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
        grid = Grid.random((8, 8), seed=1)
        with pytest.raises(ValueError, match="backend"):
            p.run(grid, 2, backend="jit")
        with pytest.raises(ValueError, match="backend"):
            p.run(grid, 2, optimize=True)

    def test_plan_measure_with_injected_clock(self):
        p = plan("1d-heat").method("folded").isa("avx2").unroll(2).compile()
        grid = Grid.random((4 * 16,), seed=0)
        ticks = iter(range(100))
        measured = p.measure(grid, 2, warmup=1, repeats=3, clock=lambda: float(next(ticks)))
        assert measured.backend == "kernel"
        assert measured.points == grid.values.size
        assert measured.sweeps == 1
        assert measured.measurement.samples == (1.0, 1.0, 1.0)


# --------------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_registry_names_all_engines(self):
        assert backend_keys() == ("interpret", "trace", "kernel")
        assert set(EXECUTION_BACKENDS) == {"interpret", "trace", "kernel"}
        assert all(is_backend(name) for name in backend_keys())
        assert not is_backend("jit")
