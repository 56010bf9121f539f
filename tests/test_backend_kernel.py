"""The kernel backend (repro.backend): the contract under test.

* The kernel's replay is **bit-identical** to the interpreted SIMD sweep on
  every linear library stencil, both ISAs and all supported
  dimensionalities — unoptimized and through the default pass pipeline —
  its derived accounting reproduces the interpreted machine, and it stores
  in the layout it read, agreeing with the NumPy reference.
* Kernels are content-key cached: identical programs share one compiled
  kernel, and the cache is observable (stats) and clearable.
* Each program runs as native code built from C: equal bit for bit to trace
  replay of the same IR and to ``interpret`` on random legal stencils under
  random subsets and orders of the registered passes.
  Without a compiler, or after a failed build, the program replays the IR
  and ``explain()`` says why; a host without the plan's ISA builds with
  fewer ISA flags; a loaded program whose call fails raises.
* Replay (C or NumPy) refuses outputs it cannot write safely and grids of
  the wrong dimensionality, before any pointer reaches C.
* The plan layer exposes the backend (``simulate(backend="kernel")``,
  ``run(backend=...)``, ``measure()``), the backend registry names exactly
  the engines the service validates against.

Tests of the native program skip, with the reason, on hosts without a C
compiler.
"""

from __future__ import annotations

import re
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend import (
    EXECUTION_BACKENDS,
    backend_keys,
    clear_kernel_cache,
    compile_kernel,
    is_backend,
    kernel_cache_stats,
    kernel_content_key,
    native,
)
from repro.backend.codegen import KernelProgram, NativeProgram, wait_for_builds
from repro.core.plan import plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.ir import CompiledSweep, PassManager, compile_sweep, lower_schedule
from repro.ir.passes import DEFAULT_PASSES
from repro.layout.transpose_layout import from_transpose_layout, to_transpose_layout
from repro.simd.isa import AVX2, AVX512
from repro.simd.machine import SimdMachine
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import BENCHMARKS
from repro.stencils.reference import reference_run
from repro.stencils.spec import StencilSpec
from tests.conftest import EPS, stencil_weights

PERIODIC, DIRICHLET = BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET

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


def _interpret(sched, machine, values):
    if sched.dims == 1:
        return sched.simd_sweep_1d(machine, values.copy())
    return sched.simd_sweep_squares(machine, values.copy())


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


@pytest.fixture
def native_build():
    """Skips the test on a host without a C compiler."""
    if native.find_c_compiler() is None:
        pytest.skip("no C compiler on PATH: kernel programs replay the IR")


@pytest.fixture
def fresh_kernels(monkeypatch, tmp_path):
    """An empty kernel cache (before and after) and an empty build cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    clear_kernel_cache()
    yield
    clear_kernel_cache()


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

    def test_store_layout_matches_reference(self, key, isa):
        """Raw and optimized programs store in the layout they read: rows in
        2-D and 3-D, after the weighted transpose, and the transpose layout
        in 1-D.  Undone, the output agrees with ``reference_run``."""
        spec = BENCHMARKS[key].spec
        bundle = _schedule_inputs(spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, _shape = bundle
        vl = isa.vector_lanes
        natural = from_transpose_layout(values, vl) if spec.dims == 1 else values
        ref = reference_run(spec, Grid(values=natural), sched.m)
        for optimize in (False, True):
            out = compile_kernel(sched, isa, optimize=optimize).replay(values.copy())
            if spec.dims == 1:
                out = from_transpose_layout(out, vl)
            np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


#: Three or more vector sets, row blocks and column blocks on both ISAs, so
#: the neighbours one block before and one after are different blocks.
NEIGHBOUR_SHAPES = {1: (192,), 2: (24, 24), 3: (3, 24, 24)}


@pytest.mark.parametrize("key,m,isa", ENGINE_CONFIGS)
def test_kernel_matches_interpret_raw_and_default_pipeline(key, m, isa):
    p = plan(key).method("folded").isa(isa.name).unroll(m).compile()
    values = Grid.random(NEIGHBOUR_SHAPES[p.spec.dims], seed=2).values
    if p.spec.dims == 1:
        values = to_transpose_layout(values, isa.vector_lanes)
    ref = _interpret(p.schedule, SimdMachine(isa), values)
    for optimize in (False, True):
        kernel = compile_kernel(p.schedule, isa, optimize=optimize)
        np.testing.assert_array_equal(bits(kernel.replay(values)), bits(ref))


#: The compile functions of the two engines the replay contract binds.
ENGINES = {"trace": compile_sweep, "kernel": compile_kernel}


def _program(engine, key):
    return ENGINES[engine](FoldingSchedule(BENCHMARKS[key].spec, 2), AVX2)


def _grid(key):
    values = Grid.random(ENGINE_SHAPES[BENCHMARKS[key].spec.dims], seed=4).values
    return to_transpose_layout(values, 4) if values.ndim == 1 else values


class TestKernelExecution:
    def test_shape_validation(self):
        sched, _, _ = _schedule_inputs(BENCHMARKS["2d9p"].spec, AVX2)
        kernel = compile_kernel(sched, AVX2)
        with pytest.raises(ValueError, match="multiple"):
            kernel.replay(np.zeros((5, 7)))
        with pytest.raises(ValueError, match="2-D"):
            kernel.replay(np.zeros(64))


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestReplayContract:
    def test_one_d_program_rejects_a_two_d_grid(self, engine):
        with pytest.raises(ValueError, match="expects a 1-D grid"):
            _program(engine, "1d5p").replay(np.zeros((16, 16)))

    @pytest.mark.parametrize("key", ["1d5p", "2d9p", "3d27p"])
    def test_out_must_be_float64(self, engine, key):
        values = _grid(key)
        with pytest.raises(ValueError, match="float64"):
            _program(engine, key).replay(values, out=np.empty(values.shape, np.float32))

    @pytest.mark.parametrize("key", ["1d5p", "2d9p", "3d27p"])
    def test_out_must_not_overlap_values(self, engine, key):
        program, values = _program(engine, key), _grid(key)
        expected = program.replay(values)
        with pytest.raises(ValueError, match="over its input"):
            program.replay(values, out=values)
        if values.ndim == 1:  # a shifted window of the same buffer
            buffer = np.concatenate([values, values])
            with pytest.raises(ValueError, match="over its input"):
                program.replay(buffer[: values.size], out=buffer[16 : 16 + values.size])
        np.testing.assert_array_equal(program.replay(values), expected)

    def test_out_receives_the_sweep(self, engine):
        program, values = _program(engine, "2d9p"), _grid("2d9p")
        out = np.empty_like(values)
        assert program.replay(values, out=out) is out
        np.testing.assert_array_equal(out, program.replay(values))
        out.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            program.replay(values, out=out)


# --------------------------------------------------------------------------- #
# the native program
# --------------------------------------------------------------------------- #
class TestNativeTarget:
    def test_programs_are_native_with_the_isa_flags(self, native_build):
        for isa in ISAS:
            kernel = compile_kernel(FoldingSchedule(BENCHMARKS["2d9p"].spec, 2), isa)
            flags, note = native.isa_flags(isa.name, native.find_c_compiler())
            assert isinstance(kernel.native, NativeProgram)
            assert kernel.native.path.parent == native.cache_dir()
            detail = " ".join(flags) or "no ISA flags"
            assert kernel.status == (
                f"native ({kernel.native.path}, {detail}{'; ' + note if note else ''})"
            )

    def test_explain_names_the_default_pipeline_program(self):
        p = plan("3d-heat").isa("avx512").unroll(2).compile()
        kernel = compile_kernel(p.schedule, AVX512, optimize=True)
        lines = [line for line in p.explain().splitlines() if "kernel backend" in line]
        assert lines == [f"  kernel backend : {kernel.status}"]
        if native.find_c_compiler() is None:
            assert kernel.status == "ir replay (no C compiler on PATH)"
        else:
            assert kernel.status.startswith(f"native ({kernel.native.path}, ")
        assert "kernel backend" not in plan("2d9p").method("dlt").compile().explain()

    def test_no_compiler_replays_the_ir_and_says_so(self, fresh_kernels, monkeypatch):
        monkeypatch.setattr(native, "find_c_compiler", lambda: None)
        p = plan("2d-heat").isa("avx2").unroll(2).compile()
        kernel = compile_kernel(p.schedule, AVX2, optimize=True)
        assert kernel.native is None
        assert kernel.status == "ir replay (no C compiler on PATH)"
        assert "  kernel backend : ir replay (no C compiler on PATH)" in p.explain()
        values = _grid("2d-heat")
        trace = compile_sweep(p.schedule, AVX2, optimize=True)
        np.testing.assert_array_equal(bits(kernel.replay(values)), bits(trace.replay(values)))

    @pytest.mark.parametrize("key", ["1d5p", "2d9p", "3d27p"])
    def test_ir_replay_refuses_a_dirichlet_sweep(self, fresh_kernels, monkeypatch, key):
        """IR replay wraps: it names why it cannot sweep a Dirichlet grid
        instead of sweeping it as a periodic one."""
        monkeypatch.setattr(native, "find_c_compiler", lambda: None)
        program = compile_kernel(FoldingSchedule(BENCHMARKS[key].spec, 1), AVX2)
        assert program.native is None
        values = Grid.random(ENGINE_SHAPES[program.dims], seed=0).values
        message = (
            "periodic grids only, and this program has no native code for a Dirichlet "
            "grid (no C compiler on PATH)"
        )
        for boundary in (DIRICHLET, "dirichlet"):
            with pytest.raises(ValueError, match=re.escape(message)):
                program.replay(values, layouts=("original", "original"), boundary=boundary)
        with pytest.raises(ValueError, match="neumann"):
            program.replay(values, boundary="neumann")
        periodic = program.replay(values, layouts=("original", "original"), boundary=PERIODIC)
        np.testing.assert_array_equal(
            bits(periodic), bits(program.replay(values, layouts=("original", "original")))
        )

    @pytest.mark.skipif(sys.platform == "win32", reason="the stand-in compiler is a shell script")
    def test_failed_build_replays_with_the_first_error_line(
        self, fresh_kernels, monkeypatch, tmp_path
    ):
        compiler = tmp_path / "cc"
        compiler.write_text(
            "#!/bin/sh\n"
            "echo 'kernel.c: In function f:' >&2\n"
            "echo 'kernel.c:1:1: error: stand-in failure' >&2\n"
            "exit 1\n"
        )
        compiler.chmod(0o755)
        monkeypatch.setattr(native, "find_c_compiler", lambda: str(compiler))
        p = plan("1d5p").isa("avx2").unroll(2).compile()
        kernel = compile_kernel(p.schedule, AVX2, optimize=True)
        assert kernel.native is None
        assert kernel.status == "ir replay (kernel.c:1:1: error: stand-in failure)"
        assert "  kernel backend : ir replay (kernel.c:1:1: error: stand-in failure)" in (
            p.explain()
        )
        grid = Grid.random((128,), seed=6)
        np.testing.assert_array_equal(
            p.run(grid, 4, backend="kernel", optimize=True),
            p.run(grid, 4, backend="trace", optimize=True),
        )

    @pytest.mark.parametrize(
        "features,flags,note",
        [
            ({"avx512f", "avx2"}, "-mavx512f", ""),
            ({"avx2"}, "-mavx2", "host lacks avx512f"),
            (set(), "no ISA flags", "host lacks avx512f, avx2"),
        ],
    )
    def test_a_host_without_the_isa_builds_with_fewer_flags(
        self, native_build, fresh_kernels, monkeypatch, features, flags, note
    ):
        monkeypatch.setattr(native, "host_features", lambda compiler: (frozenset(features), ""))
        sched = FoldingSchedule(BENCHMARKS["2d9p"].spec, 2)
        kernel = compile_kernel(sched, AVX512)
        assert kernel.status == (
            f"native ({kernel.native.path}, {flags}{'; ' + note if note else ''})"
        )
        values = Grid.random((16, 24), seed=8).values
        ref = _interpret(sched, SimdMachine(AVX512), values)
        np.testing.assert_array_equal(bits(kernel.replay(values)), bits(ref))

    def test_the_probe_reports_what_the_host_supports(self, native_build):
        features, reason = native.host_features(native.find_c_compiler())
        assert reason == "" and features <= {"avx2", "avx512f"}

    def test_concurrent_builds_and_calls_agree(self, native_build, fresh_kernels):
        """Threads racing to build one program share a complete library, and
        the native calls, which release the GIL, write only their own
        output."""
        sched = FoldingSchedule(BENCHMARKS["3d27p"].spec, 2)
        grids = [Grid.random((3, 8, 16), seed=seed).values for seed in range(16)]
        trace = compile_sweep(sched, AVX512, optimize=True)
        expected = [bits(trace.replay(values)) for values in grids]

        def sweep(values):
            return bits(compile_kernel(sched, AVX512, optimize=True).replay(values))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(sweep, values) for values in grids]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)
        assert kernel_cache_stats()["entries"] == 1
        assert len(list(native.cache_dir().glob("kernel-*.so"))) == 1

    @pytest.mark.parametrize("status", [1, 7])
    def test_a_failed_native_call_raises(self, monkeypatch, status):
        kernel = compile_kernel(FoldingSchedule(BENCHMARKS["2d9p"].spec, 2), AVX2)
        stub = types.SimpleNamespace(repro_kernel=lambda *args: status)
        monkeypatch.setattr(kernel, "native", NativeProgram(stub, Path("stub.so")))
        for _ in range(2):
            with pytest.raises(RuntimeError, match=f"stub.so failed with status {status}"):
                kernel.replay(_grid("2d9p"))


# --------------------------------------------------------------------------- #
# differential fuzzing: the C program against trace replay and interpret
# --------------------------------------------------------------------------- #
@st.composite
def engine_cases(draw):
    """(kernel, m, isa, passes, grid shape, seed) of a legal
    engine program: radius·m <= vl, extents in the block multiples, and a
    random subset of the registered passes in a random order.

    3-D folded radii stop at 2: gcc needs about 12 s for a 9³-tap fold under
    every pass and a minute for the 20,000 ops of a 13³-tap one.  The
    library's larger 3-D folds (up to 3d27p at m=4) are checked on every
    configuration above.
    """
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims, isotropic=True))
    isa = draw(st.sampled_from(ISAS))
    limit = isa.vector_lanes if dims < 3 else 2
    m = draw(st.integers(1, min(3, limit // max(kernel.shape[0] // 2, 1))))
    vl = isa.vector_lanes
    passes = draw(st.lists(st.sampled_from(DEFAULT_PASSES), unique=True).map(tuple))
    if dims == 1:
        shape = (draw(st.integers(1, 3)) * vl * vl,)
    else:
        shape = tuple(draw(st.integers(1, 3)) * vl for _ in range(2))
        if dims == 3:
            shape = (draw(st.integers(1, 3)),) + shape
    return kernel, m, isa, passes, shape, draw(st.integers(0, 2**32 - 1))


#: A 2-D box of 25 distinct weights: long reduction chains.
LONG_CHAIN_BOX = np.arange(1.0, 26.0).reshape(5, 5) / 25.0
#: A combination counterpart without terms: its vertical phase is constant
#: columns, which trace replay once failed to roll.
CONSTANT_COLUMNS = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, EPS], [0.0, 0.0, 0.0]])


@settings(
    deadline=None, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=engine_cases())
@example(case=(LONG_CHAIN_BOX, 2, AVX2, ("reschedule",), (8, 12), 1))
@example(case=(LONG_CHAIN_BOX, 1, AVX512, ("cse", "hoist"), (16, 8), 2))
@example(case=(np.array([EPS, 1.0, -EPS / 2]), 3, AVX512, DEFAULT_PASSES, (64,), 3))
@example(case=(CONSTANT_COLUMNS, 1, AVX2, (), (4, 4), 0))
@example(case=(CONSTANT_COLUMNS, 2, AVX512, (), (8, 16), 0))
def test_c_program_matches_trace_replay_and_interpret(native_build, case):
    kernel, m, isa, passes, shape, seed = case
    schedule = FoldingSchedule(StencilSpec(name="fuzz", kernel=kernel), m)
    ir, _ = PassManager(passes).run(lower_schedule(schedule, isa))
    program = KernelProgram(ir, kernel_content_key(ir))
    assert program.native is not None, program.status
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.1] = -0.0
    values[rng.random(shape) < 0.05] = 1e-310
    if values.ndim == 1:
        values = to_transpose_layout(values, isa.vector_lanes)
    out = bits(program.replay(values))
    np.testing.assert_array_equal(out, bits(CompiledSweep(ir).replay(values)))
    ref = _interpret(schedule, SimdMachine(isa), values)
    np.testing.assert_array_equal(out, bits(ref))


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

    @pytest.mark.parametrize(
        "key,method,m,shape,boundary,message",
        [
            ("2d9p", "folded", 2, (8, 8), DIRICHLET, "requires periodic boundaries"),
            ("2d9p", "folded", 2, (6, 6), PERIODIC, "grid shape (6, 6) must be a multiple of vl=4"),
            ("1d-heat", "folded", 2, (24,), PERIODIC, "array length 24 must be a multiple of vl²=16"),
            ("game-of-life", "folded", 2, (8, 8), PERIODIC, "requires a linear stencil"),
            ("2d9p", "multiple_loads", 2, (8, 8), PERIODIC, "does not support simulated execution"),
            ("1d5p", "folded", 3, (64,), PERIODIC, "folded radius 6 exceeds the vector length 4"),
        ],
        ids=["dirichlet", "2d-extent", "1d-extent", "non-linear", "no-simulation", "radius"],
    )
    def test_engine_preconditions_checked_whatever_steps(
        self, key, method, m, shape, boundary, message
    ):
        """An unsupported grid raises the same error for every steps, never a
        silent reference step when steps < m."""
        p = plan(key).method(method).isa("avx2").unroll(m).compile()
        grid = Grid.random(shape, boundary=boundary, seed=0)
        for backend in ("kernel", "trace", "interpret"):
            with pytest.raises(ValueError, match=re.escape(message)):
                p.simulate(grid, m, backend=backend)
            for steps in (0, 1, m):
                with pytest.raises(ValueError, match=re.escape(message)):
                    p.run(grid, steps, backend=backend)

    def test_engines_refuse_dirichlet_grids_once_the_native_program_loaded(self, native_build):
        """The default run() sweeps the Dirichlet grid natively; the named
        engines keep refusing it, whatever steps."""
        p = plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
        grid = Grid.random((8, 8), boundary=DIRICHLET, seed=0)
        p.run(grid, 2)
        assert wait_for_builds(timeout=600)
        assert p._native_program(grid) is not None
        message = "requires periodic boundaries"
        for backend in ("kernel", "trace", "interpret"):
            with pytest.raises(ValueError, match=message):
                p.simulate(grid, 2, backend=backend)
            for steps in (0, 1, 2):
                with pytest.raises(ValueError, match=message):
                    p.run(grid, steps, backend=backend)

    @pytest.mark.parametrize(
        "kernel", [[[0.25, 0.5, 0.25]], [[0.25], [0.5], [0.25]], [[[0.5, 0.25, 0.25]]]]
    )
    def test_engines_refuse_radii_that_differ_between_axes(self, kernel):
        """One radius along every axis is a precondition of the register-level
        schedules; the model falls back to the analytic profile."""
        p = plan(StencilSpec(name="aniso", kernel=np.array(kernel))).isa("avx2").compile()
        grid = Grid.random((8,) * p.spec.dims, seed=0)
        message = "differ between axes"
        for backend in ("kernel", "trace", "interpret"):
            with pytest.raises(ValueError, match=message):
                p.run(grid, 1, backend=backend)
            with pytest.raises(ValueError, match=message):
                p.simulate(grid, 1, backend=backend)
        for build in (compile_kernel, compile_sweep):
            with pytest.raises(ValueError, match=message):
                build(p.schedule, AVX2)
        assert p.profile().counts_per_point.total > 0
        assert "kernel backend" not in p.explain()
        assert p.estimate((64,) * p.spec.dims, 4).cycles_per_point > 0

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
