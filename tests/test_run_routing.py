"""The default folded ``run()`` on the native register-level schedule.

* On every grid the engines accept, periodic or Dirichlet, ``run()`` sends
  its folded sweeps to the plan's raw program once that program loaded
  natively; its build runs on a background thread, queued by the first such
  ``run()``, and the fold kernel folds meanwhile.  Both engines return the
  same bits, so ``run()``'s output never depends on whether, or when, the
  build finished: checked on every engine configuration on both boundaries
  with the program loaded and with its build held, and on random legal
  stencils on Dirichlet grids.
* ``run()`` never waits for the build; a failed build keeps the plan on the
  fold kernel for good, and ``explain()`` says which engine runs and why.
* A configuration is the stencil's weights, ``m``, the ISA and the
  dimensionality: a fresh plan of a loaded configuration runs natively
  without lowering again, and two stencils that share a name but not their
  weights never share a program.  A plan keeps its program across
  ``clear_kernel_cache()``.

Tests that need the native program skip, with the reason, on hosts without
a C compiler; the rest check there that ``run()`` keeps the fold kernel.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core.fold_kernel as fold_kernel
import repro.ir.executor
import repro.ir.lower
from repro.backend import clear_kernel_cache, codegen, native
from repro.core.plan import _fix_dirichlet_band, plan
from repro.simd.isa import AVX2, AVX512
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.reference import reference_step
from repro.stencils.spec import StencilSpec
from tests.conftest import stencil_weights
from tests.test_backend_kernel import ENGINE_CONFIGS, ENGINE_SHAPES, ISAS, bits
from tests.test_fold_kernel import special_values

DIRICHLET = BoundaryCondition.DIRICHLET


#: Seconds any test waits for the background builds (a cold 3-D build
#: takes a few seconds).
BUILD_TIMEOUT = 600


@pytest.fixture(autouse=True)
def settled_builds():
    """No build of another test is queued or running, before or after."""
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    clear_kernel_cache()
    yield
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    clear_kernel_cache()


@pytest.fixture
def native_build():
    """Skips the test on a host without a C compiler."""
    if native.find_c_compiler() is None:
        pytest.skip("no C compiler on PATH: run() keeps the fold kernel")


@pytest.fixture
def held_builds(monkeypatch):
    """Background builds block until the yielded event is set (the
    ``explain()`` line of ``backend="kernel"`` still builds at once)."""
    release = threading.Event()
    build = codegen.compile_kernel

    def held(*args, **kwargs):
        if threading.current_thread().name == "repro-kernel-builds":
            release.wait()
        return build(*args, **kwargs)

    monkeypatch.setattr(codegen, "compile_kernel", held)
    yield release
    release.set()
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)


@pytest.fixture
def native_sweeps(monkeypatch):
    """Counts the sweeps kernel programs run."""
    calls = []
    replay = codegen.KernelProgram.replay

    def counted(self, *args, **kwargs):
        calls.append(self)
        return replay(self, *args, **kwargs)

    monkeypatch.setattr(codegen.KernelProgram, "replay", counted)
    return calls


def fold_kernel_run(p, grid: Grid, steps: int) -> np.ndarray:
    """``run()``'s result the way the fold kernel computes it: each fold
    of a Dirichlet grid with its band recomputed."""
    values = grid.values
    sweeps, remainder = divmod(steps, p.config.unroll)
    for _ in range(sweeps):
        folded = p.schedule.numpy_step(values, grid.boundary)
        if grid.boundary is DIRICHLET:
            folded = _fix_dirichlet_band(p.schedule, values, folded)
        values = folded
    for _ in range(remainder):
        values = reference_step(p.spec, values, grid.boundary)
    return values


def loaded(p, grid: Grid):
    """The plan's native program for ``grid``, after its build finished."""
    p.run(grid, p.config.unroll)
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    return p._native_program(grid)


def execution_path(p) -> str:
    (line,) = [line for line in p.explain().splitlines() if "execution path" in line]
    return line


# --------------------------------------------------------------------------- #
# same bits whichever engine runs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("key,m,isa", ENGINE_CONFIGS)
def test_loaded_program_returns_the_fold_kernels_bits(native_build, native_sweeps, key, m, isa):
    """m, 2m and 3m steps cover a 1-D program's original -> original sweep,
    its first and last sweeps and the transpose -> transpose ones between
    on a periodic grid; on a Dirichlet grid every 1-D sweep reads and
    writes the original layout, the band recompute's.  The read-only grid
    is never written."""
    p = plan(key).isa(isa.name).unroll(m).compile()
    for boundary in BoundaryCondition:
        grid = Grid.random(ENGINE_SHAPES[p.spec.dims], boundary=boundary, seed=11)
        grid.values.setflags(write=False)
        before = bits(grid.values).copy()
        program = loaded(p, grid)
        assert program is not None, p._engine_cache["run"].status
        for steps in (m - 1, m, 2 * m, 3 * m, 2 * m + 1):
            del native_sweeps[:]
            got = p.run(grid, steps)
            assert native_sweeps == [program] * (steps // m)
            assert got is not grid.values
            np.testing.assert_array_equal(bits(got), bits(fold_kernel_run(p, grid, steps)))
        np.testing.assert_array_equal(bits(grid.values), before)


@pytest.mark.parametrize("key,m,isa", ENGINE_CONFIGS)
def test_pending_build_returns_the_same_bits(held_builds, native_sweeps, key, m, isa):
    p = plan(key).isa(isa.name).unroll(m).compile()
    for boundary in BoundaryCondition:
        grid = Grid.random(ENGINE_SHAPES[p.spec.dims], boundary=boundary, seed=11)
        for steps in (m, 2 * m, 3 * m, 2 * m + 1):
            np.testing.assert_array_equal(
                bits(p.run(grid, steps)), bits(fold_kernel_run(p, grid, steps))
            )
        assert p._native_program(grid) is None
    assert native_sweeps == []


@st.composite
def native_dirichlet_cases(draw):
    """(kernel, m, isa, grid shape, steps, seed) of a Dirichlet grid the
    native program sweeps: one radius on every axis, folded radius <= vl
    (<= 2 in 3-D, where gcc takes seconds for larger folds), extents in the
    block multiples, 3-D grids of one or two planes."""
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims, isotropic=True))
    isa = draw(st.sampled_from(ISAS))
    vl = isa.vector_lanes
    limit = vl if dims < 3 else 2
    m = draw(st.integers(1, min(4, limit // max(kernel.shape[0] // 2, 1))))
    if dims == 1:
        shape = (draw(st.integers(1, 3)) * vl * vl,)
    else:
        shape = tuple(draw(st.integers(1, 3 if dims == 2 else 2)) * vl for _ in range(2))
        if dims == 3:
            shape = (draw(st.integers(1, 2)),) + shape
    steps = draw(st.sampled_from([m - 1, m, 2 * m + 1]))
    return kernel, m, isa, shape, steps, draw(st.integers(0, 2**32 - 1))


#: The 2-D and 3-D heat stencils' weights.
HEAT_2D = np.array([[0.0, 0.125, 0.0], [0.125, 0.5, 0.125], [0.0, 0.125, 0.0]])
HEAT_3D = np.zeros((3, 3, 3))
HEAT_3D[1, 1] = HEAT_2D[1]
HEAT_3D[1, :, 1] = HEAT_2D[:, 1]
HEAT_3D[0, 1, 1] = HEAT_3D[2, 1, 1] = 0.125


@settings(
    deadline=None, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=native_dirichlet_cases())
# Bands of three rows and columns on a 4-wide grid: they overlap.
@example(case=(HEAT_2D, 4, AVX2, (4, 8), 9, 1))
@example(case=(np.arange(1.0, 26.0).reshape(5, 5) / 25.0, 4, AVX512, (8, 8), 3, 2))
@example(case=(HEAT_3D, 2, AVX512, (1, 8, 8), 5, 3))
@example(case=(np.array([0.25, 0.5, 0.25]), 4, AVX2, (16,), 9, 4))
def test_native_dirichlet_run_returns_the_fold_kernels_bits_on_random_stencils(
    native_build, native_sweeps, case
):
    kernel, m, isa, shape, steps, seed = case
    p = plan(StencilSpec(name="fuzz", kernel=kernel)).isa(isa.name).unroll(m).compile()
    grid = Grid(special_values(np.random.default_rng(seed), shape), boundary=DIRICHLET)
    program = loaded(p, grid)
    assert program is not None, p._engine_cache["run"].status
    del native_sweeps[:]
    got = p.run(grid, steps)
    assert native_sweeps == [program] * (steps // m)
    np.testing.assert_array_equal(bits(got), bits(fold_kernel_run(p, grid, steps)))


def test_dirichlet_run_batch_with_the_program_loaded_matches_sequential_runs(
    native_build, native_sweeps
):
    """Concurrent native sweeps share no scratch: each call allocates its
    own row of zeros."""
    for key, shape, m in (("2d9p", (16, 24), 2), ("3d-heat", (3, 8, 12), 2), ("1d5p", (64,), 1)):
        p = plan(key).isa("avx2").unroll(m).compile()
        grids = [Grid.random(shape, boundary=DIRICHLET, seed=s) for s in range(16)]
        assert loaded(p, grids[0]) is not None
        steps = 2 * m + 1
        expected = [bits(p.run(grid, steps)) for grid in grids]
        for _ in range(3):
            for got, want in zip(p.run_batch(grids, steps, workers=4), expected):
                np.testing.assert_array_equal(bits(got), want)
    assert native_sweeps


@pytest.mark.parametrize("boundary", list(BoundaryCondition), ids=lambda b: b.value)
def test_empty_grids_run_natively(native_build, native_sweeps, boundary):
    """An extent of 0 is a block multiple: the native program sweeps no
    block instead of wrapping by 0 (a ``SIGFPE`` before) or reading before
    the grid."""
    for key, shape in (
        ("1d5p", (0,)),
        ("2d9p", (4, 0)),
        ("2d9p", (0, 4)),
        ("3d-heat", (0, 4, 4)),
        ("3d-heat", (2, 4, 0)),
    ):
        p = plan(key).isa("avx2").unroll(2).compile()
        grid = Grid(np.zeros(shape), boundary=boundary)
        program = loaded(p, grid)
        assert program is not None, p._engine_cache["run"].status
        del native_sweeps[:]
        assert p.run(grid, 5).shape == shape
        assert native_sweeps == [program] * 2


# --------------------------------------------------------------------------- #
# the background build
# --------------------------------------------------------------------------- #
def test_run_returns_while_the_build_is_held_then_runs_natively(
    native_build, held_builds, native_sweeps
):
    p = plan("2d9p").isa("avx2").unroll(2).compile()
    grid = Grid.random((16, 16), seed=3)
    results = []
    runner = threading.Thread(target=lambda: results.append(p.run(grid, 4)))
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive() and len(results) == 1
    path = execution_path(p)
    assert "; native program: queued;" in path or "; native program: building;" in path
    assert native_sweeps == []

    held_builds.set()
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    program = p._native_program(grid)
    assert program is not None
    assert f"; native program: loaded ({program.detail});" in execution_path(p)
    np.testing.assert_array_equal(bits(p.run(grid, 4)), bits(results[0]))
    assert native_sweeps == [program, program]


@pytest.mark.skipif(sys.platform == "win32", reason="the stand-in compiler is a shell script")
def test_a_failed_build_keeps_the_fold_kernel_for_good(tmp_path, native_sweeps):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'kernel.c:1:1: error: stand-in failure' >&2\nexit 1\n")
    compiler.chmod(0o755)
    p = plan("3d-heat").isa("avx2").unroll(2).compile()
    grid = Grid.random((2, 8, 8), seed=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path))
        patch.setattr(native, "find_c_compiler", lambda: str(compiler))
        p.run(grid, 2)
        assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    clear_kernel_cache()
    for steps in (2, 5):
        np.testing.assert_array_equal(
            bits(p.run(grid, steps)), bits(fold_kernel_run(p, grid, steps))
        )
    assert p._native_program(grid) is None and native_sweeps == []
    assert execution_path(p).endswith(
        "every other grid folds on the fold kernel; on a Dirichlet grid each folded "
        "update's band is recomputed exactly; native program: failed (kernel.c:1:1: "
        "error: stand-in failure); the band and the steps % m remainder steps run on "
        f"{fold_kernel.band_status()}"
    )


def test_without_a_compiler_run_takes_the_numpy_fold_and_says_why(monkeypatch, native_sweeps):
    monkeypatch.setattr(native, "find_c_compiler", lambda: None)
    monkeypatch.setattr(fold_kernel, "_decision", None)
    p = plan("1d5p").isa("avx512").unroll(2).compile()
    grid = Grid.random((128,), seed=9)
    expected = grid.values
    for _ in range(2):
        expected = p.schedule.numpy_fold(expected, grid.boundary)
    p.run(grid, 4)
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    np.testing.assert_array_equal(bits(p.run(grid, 4)), bits(expected))
    assert native_sweeps == []
    explained = p.explain()
    assert "  fold kernel    : numpy (no C compiler on PATH)" in explained
    assert execution_path(p).endswith(
        "native program: failed (no C compiler on PATH); the band and the steps % m "
        "remainder steps run on ndimage (no C compiler on PATH)"
    )


def test_explain_starts_no_build():
    p = plan("2d-heat").isa("avx512").unroll(4).compile()
    assert "; native program: not queued yet;" in execution_path(p)
    assert codegen.background_build(p.schedule, p.isa_spec, queue=False) is None


def test_grids_the_engines_refuse_keep_the_fold_kernel(native_sweeps):
    """Odd extents and radii past the lanes keep the fold kernel, on both
    boundaries, and queue no build; a Dirichlet grid in the block
    multiples runs natively once its program loaded."""
    wide = plan("1d5p").isa("avx2").unroll(3).compile()  # folded radius 6 > vl
    p = plan("2d9p").isa("avx2").unroll(2).compile()
    for boundary in BoundaryCondition:
        odd = Grid.random((18, 16), boundary=boundary, seed=1)
        for q, grid in ((p, odd), (wide, Grid.random((64,), boundary=boundary, seed=1))):
            for steps in (q.config.unroll, 2 * q.config.unroll + 1):
                q.run(grid, steps)
            assert q._native_program(grid) is None
    assert "run" not in p._engine_cache and "run" not in wide._engine_cache
    assert codegen.background_build(p.schedule, p.isa_spec, queue=False) is None
    assert "folded radius 6 exceeds the vector length 4" in execution_path(wide)
    assert native_sweeps == []

    dirichlet = Grid.random((16, 16), boundary=DIRICHLET, seed=1)
    p.run(dirichlet, 2)
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    program = p._native_program(dirichlet)
    assert (program is not None) == (native.find_c_compiler() is not None)
    got = p.run(dirichlet, 5)
    assert native_sweeps == ([program] * 2 if program is not None else [])
    np.testing.assert_array_equal(bits(got), bits(fold_kernel_run(p, dirichlet, 5)))


# --------------------------------------------------------------------------- #
# configurations and the plan's program
# --------------------------------------------------------------------------- #
def test_a_fresh_plan_of_a_loaded_configuration_does_not_lower(
    native_build, native_sweeps, monkeypatch
):
    grid = Grid.random((2 * 64,), seed=2)
    assert loaded(plan("1d5p").isa("avx512").unroll(2).compile(), grid) is not None

    def refuse(*args, **kwargs):
        raise AssertionError("lowered again")

    monkeypatch.setattr(repro.ir.lower, "lower_schedule", refuse)
    monkeypatch.setattr(repro.ir.executor, "lower_schedule", refuse)
    fresh = plan("1d5p").isa("avx512").unroll(2).compile()
    fresh.run(grid, 2)
    assert len(native_sweeps) == 1


def test_same_name_different_weights_never_share_a_program():
    first = StencilSpec(name="twin", kernel=np.array([0.25, 0.5, 0.25]))
    second = StencilSpec(name="twin", kernel=np.array([0.5, 0.25, 0.25]))
    grid = Grid.random((64,), seed=4)
    plans = [plan(spec).isa("avx2").unroll(2).compile() for spec in (first, second)]
    for p in plans:
        p.run(grid, 2)
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    builds = [p._engine_cache["run"] for p in plans]
    assert builds[0] is not builds[1]
    if builds[0].program is not None:
        assert builds[0].program is not builds[1].program
    for p in plans:
        np.testing.assert_array_equal(bits(p.run(grid, 4)), bits(fold_kernel_run(p, grid, 4)))
    assert not np.array_equal(plans[0].run(grid, 4), plans[1].run(grid, 4))
    again = plan(StencilSpec(name="other", kernel=first.kernel)).isa("avx2").unroll(2).compile()
    again.run(grid, 2)
    assert again._engine_cache["run"] is builds[0]


def test_clear_kernel_cache_keeps_a_running_plan_native(native_build, native_sweeps):
    p = plan("3d27p").isa("avx512").unroll(1).compile()
    grid = Grid.random((2, 8, 8), seed=6)
    program = loaded(p, grid)
    assert program is not None
    clear_kernel_cache()
    del native_sweeps[:]
    p.run(grid, 3)
    assert native_sweeps == [program] * 3


def test_run_batch_matches_sequential_runs_while_the_build_is_pending(held_builds):
    p = plan("2d-heat").isa("avx2").unroll(2).compile()
    grids = [Grid.random((16, 16), seed=seed) for seed in range(6)]
    sequential = [bits(p.run(grid, 5)) for grid in grids]
    batch = p.run_batch(grids, 5, workers=3)
    assert p._native_program(grids[0]) is None
    for got, want in zip(batch, sequential):
        np.testing.assert_array_equal(bits(got), want)
    held_builds.set()
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    for got, want in zip(p.run_batch(grids, 5, workers=3), sequential):
        np.testing.assert_array_equal(bits(got), want)


def test_concurrent_first_runs_share_one_build():
    """Plans racing through their first run() queue one build per
    configuration and all keep it."""
    grids = {2: Grid.random((16, 16), seed=7), 3: Grid.random((2, 8, 8), seed=7)}
    keys = [("2d9p", 2), ("3d-heat", 3), ("2d-heat", 2)] * 8
    plans = [plan(key).isa("avx2").unroll(2).compile() for key, _ in keys]

    def first_run(i):
        return bits(plans[i].run(grids[keys[i][1]], 4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(first_run, i) for i in range(len(keys))]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    builds = {}
    for (key, dims), p, got in zip(keys, plans, results):
        assert builds.setdefault(key, p._engine_cache["run"]) is p._engine_cache["run"]
        np.testing.assert_array_equal(got, bits(fold_kernel_run(p, grids[dims], 4)))
    assert len({id(build) for build in builds.values()}) == 3
