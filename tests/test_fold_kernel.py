"""The compiled fold kernel behind the default folded ``run()``.

* On any legal linear stencil the compiled fold returns the NumPy fold's
  grid bit for bit (:meth:`FoldingSchedule.numpy_fold` is the reference),
  and the compiled reference step returns ``reference_step``'s.
* On Dirichlet grids, narrower than the band too, ``run()`` returns the same
  bits with the compiled band and remainder steps as with the NumPy strips
  and ``reference_step``: the bits of an oracle that recomputes the band
  with full-grid reference steps.  It never writes the grid, and a grid of
  the wrong dimensionality raises ``reference_step``'s error whatever
  ``steps`` is.
* The process decides once between the compiled kernel and the NumPy body;
  ``explain()`` names the choice and its reason, and where the band and the
  remainder steps run; only a failed build or load selects NumPy, and a
  failed kernel call raises.

Tests of the compiled path skip, with the reason, on hosts without a C
compiler; the ``run()`` tests compare the process's path, whichever it is,
with the NumPy one and the oracle.
"""

from __future__ import annotations

import ctypes
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend import native
from repro.core import fold_kernel
from repro.core.fold_kernel import FoldKernel, fold_kernel_status, load_fold_kernel
from repro.core.plan import plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.reference import reference_run, reference_step
from repro.stencils.spec import StencilSpec
from tests.conftest import EPS, LINEAR_SPECS, stencil_weights

PERIODIC, DIRICHLET = BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET


@pytest.fixture
def compiled() -> FoldKernel:
    """The process's compiled fold kernel (skips when the host has none)."""
    kernel = load_fold_kernel()
    if kernel is None:
        pytest.skip(f"no compiled fold kernel: {fold_kernel_status()}")
    return kernel


@pytest.fixture
def numpy_folds(monkeypatch):
    """Run every fold of the test on the NumPy body."""
    monkeypatch.setattr(fold_kernel, "_decision", (None, "numpy (selected by the test)"))


@pytest.fixture
def undecided(monkeypatch, tmp_path):
    """Forget the process's decision; builds go to an empty cache directory."""
    monkeypatch.setattr(fold_kernel, "_decision", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


def special_values(rng, shape) -> np.ndarray:
    """Normal values with some ``-0.0`` and subnormal ones."""
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.1] = -0.0
    values[rng.random(shape) < 0.05] = 1e-310
    return values


# --------------------------------------------------------------------------- #
# compiled fold == NumPy fold, bit for bit
# --------------------------------------------------------------------------- #
@st.composite
def fold_cases(draw):
    """(kernel, m, grid shape, boundary, seed): radius <= 2 per axis, m <= 3.

    Extents run from 1 (far below the folded kernel) to rows that span
    several of the kernel's chunks.
    """
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims))
    m = draw(st.integers(1, 3))
    leading = {1: 1, 2: 12, 3: 6}[dims]
    grid = tuple(draw(st.integers(1, leading)) for _ in range(dims - 1))
    grid += (draw(st.one_of(st.integers(1, 24), st.integers(900, 2600))),)
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET]))
    return kernel, m, grid, boundary, draw(st.integers(0, 2**32 - 1))


#: Small-integer kernels whose schedules materialise combination
#: counterparts: reuse only, and reuse plus a bias.
COMBINATION_REUSE = np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 2.0, 2.0]])
COMBINATION_BIAS = np.array([[2.0, -1.0, 2.0], [0.0, 1.0, 1.0], [2.0, -1.0, 1.0]])
COMBINATION_3D = np.array([[[1.0, 2.0, 1.0], [2.0, 1.0, -1.0], [2.0, 1.0, -1.0]]])

#: Kernels of the pinned row widths: dirichlet-small's 3-D stencils (32- and
#: 48-column rows) and a 2-D and 1-D kernel reaching two columns to the left
#: and one to the right.
BOX_3D = np.full((3, 3, 3), 1.0 / 27.0)
HEAT_3D = np.zeros((3, 3, 3))
HEAT_3D[1, 1, :] = HEAT_3D[1, :, 1] = HEAT_3D[:, 1, 1] = 0.125
HEAT_3D[1, 1, 1] = 0.25
WIDE_2D = np.array(
    [[0.0, 0.5, 1.0, -0.5, 0.0], [0.25, -1.0, 2.0, 0.75, 0.0], [0.0, 0.0, 1.0, EPS, 0.0]]
)
WIDE_1D = np.array([0.5, -0.25, 1.0, 0.125, 0.0])


@settings(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=fold_cases())
@example(case=(COMBINATION_REUSE, 1, (7, 20), PERIODIC, 1))
@example(case=(COMBINATION_REUSE, 2, (5, 1000), DIRICHLET, 2))
@example(case=(COMBINATION_BIAS, 2, (6, 3), DIRICHLET, 3))
@example(case=(COMBINATION_BIAS * EPS, 2, (4, 1200), PERIODIC, 4))
@example(case=(COMBINATION_3D, 1, (3, 4, 1100), PERIODIC, 5))
@example(case=(COMBINATION_3D, 2, (2, 3, 5), DIRICHLET, 6))
def test_compiled_fold_matches_numpy_fold_bit_for_bit(compiled, case):
    kernel, m, shape, boundary, seed = case
    schedule = FoldingSchedule(StencilSpec(name="fuzz", kernel=kernel), m)
    values = special_values(np.random.default_rng(seed), shape)
    expected = bits(schedule.numpy_fold(values, boundary))
    direct = compiled(schedule.fold_tables(), values, boundary)
    np.testing.assert_array_equal(bits(direct), expected)
    np.testing.assert_array_equal(bits(schedule.numpy_step(values, boundary)), expected)


def test_pinned_examples_reach_both_combination_modes():
    modes = set()
    for kernel in (COMBINATION_REUSE, COMBINATION_BIAS, COMBINATION_3D):
        for m in (1, 2):
            tables = FoldingSchedule(StencilSpec(name="k", kernel=kernel), m).fold_tables()
            modes.update(int(mode) for mode in tables.cp[:, 0])
    assert modes == {0, 1, 2}  # direct, reuse only, reuse plus bias


def test_compiled_fold_reads_non_contiguous_grids(compiled):
    schedule = FoldingSchedule(plan("3d-heat").compile().spec, 2)
    values = np.asfortranarray(Grid.random((5, 6, 7), seed=4).values)
    for grid, boundary in ((values, DIRICHLET), (values[:, ::2], PERIODIC)):
        expected = bits(schedule.numpy_fold(grid, boundary))
        np.testing.assert_array_equal(bits(schedule.numpy_step(grid, boundary)), expected)


# --------------------------------------------------------------------------- #
# compiled reference step == reference_step, bit for bit
# --------------------------------------------------------------------------- #
@st.composite
def step_cases(draw):
    """(kernel, grid shape, boundary, layout, seed): radius <= 2 per axis.

    Extents run from 0 and 1 (periodic reads wrap more than once) through
    rows of a few register blocks to rows that span several of the kernel's
    chunks.
    """
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims))
    leading = {1: 1, 2: 9, 3: 5}[dims]
    grid = tuple(draw(st.integers(0, leading)) for _ in range(dims - 1))
    grid += (draw(st.one_of(st.integers(0, 24), st.integers(25, 200), st.integers(1000, 1700))),)
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    return kernel, grid, boundary, layout, draw(st.integers(0, 2**32 - 1))


@settings(
    deadline=None, max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=step_cases())
@example(case=(np.array([1.0, EPS / 2, 2.0, -EPS, 0.5]), (1,), PERIODIC, "C", 1))
@example(case=(np.array([[1.0], [0.5], [1e-300]]), (2, 3), PERIODIC, "F", 2))
@example(case=(np.ones((3, 1, 5)), (2, 0, 1100), DIRICHLET, "strided", 3))
@example(case=(BOX_3D, (3, 5, 32), DIRICHLET, "C", 4))
@example(case=(BOX_3D, (2, 4, 48), PERIODIC, "C", 5))
@example(case=(HEAT_3D, (3, 5, 32), PERIODIC, "F", 6))
@example(case=(HEAT_3D, (2, 4, 48), DIRICHLET, "C", 7))
@example(case=(WIDE_2D, (3, 31), DIRICHLET, "C", 8))
@example(case=(WIDE_2D, (2, 33), PERIODIC, "strided", 9))
@example(case=(WIDE_1D, (63,), DIRICHLET, "C", 10))
@example(case=(WIDE_1D, (65,), PERIODIC, "C", 11))
def test_compiled_step_matches_reference_step_bit_for_bit(compiled, case):
    kernel, shape, boundary, layout, seed = case
    spec = StencilSpec(name="fuzz", kernel=kernel)
    values = special_values(np.random.default_rng(seed), shape)
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = values
        values = wide[..., ::2]
    step = compiled.step(FoldingSchedule(spec, 1).step_tables(), values, boundary)
    np.testing.assert_array_equal(bits(step), bits(reference_step(spec, values, boundary)))


# --------------------------------------------------------------------------- #
# Dirichlet run(): the same bits on both paths
# --------------------------------------------------------------------------- #
def band_mask(shape, band: int) -> np.ndarray:
    """The points of a grid of ``shape`` closer than ``band`` to a face."""
    near = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        index = np.arange(n).reshape([-1 if a == axis else 1 for a in range(len(shape))])
        near |= (index < band) | (index >= n - band)
    return near


def band_oracle(spec: StencilSpec, values: np.ndarray, m: int, steps: int) -> np.ndarray:
    """What ``run()`` computes on a Dirichlet grid, from full-grid steps:
    each NumPy fold with its band (the points closer than ``(m - 1) * r``
    to a face) taken from ``m`` reference steps of the whole grid, then the
    ``steps % m`` remainder as reference steps."""
    schedule = FoldingSchedule(spec, m)
    near = band_mask(values.shape, (m - 1) * spec.radius)
    sweeps, remainder = divmod(steps, m)
    for _ in range(sweeps):
        folded = schedule.numpy_fold(values, DIRICHLET)
        exact = values
        for _ in range(m):
            exact = reference_step(spec, exact, DIRICHLET)
        folded[near] = exact[near]
        values = folded
    for _ in range(remainder):
        values = reference_step(spec, values, DIRICHLET)
    return values


def numpy_path_run(monkeypatch, p, grid: Grid, steps: int) -> np.ndarray:
    """``p.run()`` in a process without a fold kernel: the NumPy fold and
    band strips, and ``reference_step`` for the remainder."""
    with monkeypatch.context() as patch:
        patch.setattr(fold_kernel, "_decision", (None, "numpy (selected by the test)"))
        return p.run(grid, steps)


def assert_run_keeps_its_bits(monkeypatch, p, grid: Grid, steps: int) -> np.ndarray:
    out = p.run(grid, steps)
    expected = bits(band_oracle(p.spec, grid.values, p.config.unroll, steps))
    np.testing.assert_array_equal(bits(out), expected)
    np.testing.assert_array_equal(bits(numpy_path_run(monkeypatch, p, grid, steps)), expected)
    return out


DIRICHLET_SHAPES = {1: [(45,), (3,)], 2: [(13, 17), (16, 3), (2, 9)], 3: [(7, 9, 11), (8, 8, 2)]}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(LINEAR_SPECS))
def test_dirichlet_run_keeps_its_bits_on_library_stencils(monkeypatch, name, m):
    p = plan(LINEAR_SPECS[name]()).unroll(m).compile()
    for i, shape in enumerate(DIRICHLET_SHAPES[p.spec.dims]):
        grid = Grid.random(shape, boundary=DIRICHLET, seed=10 * m + i)
        for steps in (m - 1, m, 2 * m + 1):
            assert_run_keeps_its_bits(monkeypatch, p, grid, steps)


@st.composite
def dirichlet_run_cases(draw):
    """(kernel, m, grid shape, steps, seed), grids narrower than the band
    included."""
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims))
    m = draw(st.integers(1, 4))
    leading = {1: 1, 2: 14, 3: 9}[dims]
    grid = tuple(draw(st.integers(1, leading)) for _ in range(dims - 1))
    grid += (draw(st.one_of(st.integers(1, 40), st.integers(25, 200))),)
    steps = draw(st.sampled_from([m - 1, m, 2 * m + 1]))
    return kernel, m, grid, steps, draw(st.integers(0, 2**32 - 1))


@settings(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=dirichlet_run_cases())
@example(case=(COMBINATION_BIAS, 4, (5, 3), 9, 1))
@example(case=(COMBINATION_3D, 3, (2, 6, 7), 7, 2))
@example(case=(BOX_3D, 2, (3, 5, 32), 5, 3))
@example(case=(HEAT_3D, 3, (2, 4, 48), 7, 4))
@example(case=(BOX_3D, 4, (3, 5, 32), 9, 5))
@example(case=(WIDE_2D, 2, (9, 31), 5, 6))
@example(case=(WIDE_2D, 3, (7, 33), 7, 7))
@example(case=(WIDE_1D, 2, (63,), 5, 8))
@example(case=(WIDE_1D, 4, (65,), 9, 9))
def test_dirichlet_run_keeps_its_bits_on_random_stencils(monkeypatch, case):
    kernel, m, shape, steps, seed = case
    p = plan(StencilSpec(name="fuzz", kernel=kernel)).unroll(m).compile()
    values = special_values(np.random.default_rng(seed), shape)
    assert_run_keeps_its_bits(monkeypatch, p, Grid(values, boundary=DIRICHLET), steps)


@pytest.mark.parametrize(
    "key,shape,m", [("2d9p", (16, 3), 4), ("2d9p", (16, 2), 4), ("3d27p", (8, 8, 2), 3)]
)
def test_narrow_dirichlet_grid_matches_reference(monkeypatch, key, shape, m):
    """Grids narrower than the folded radius: the process's path and the
    NumPy one agree bit for bit, and with ``reference_run``."""
    p = plan(key).unroll(m).compile()
    grid = Grid.random(shape, boundary=DIRICHLET, seed=7)
    for steps in (m, 2 * m + 1):
        out = p.run(grid, steps)
        np.testing.assert_array_equal(bits(out), bits(numpy_path_run(monkeypatch, p, grid, steps)))
        np.testing.assert_allclose(out, reference_run(p.spec, grid, steps), rtol=1e-10, atol=1e-12)


def test_dirichlet_run_batch_on_four_threads_matches_sequential_runs():
    """Concurrent band and remainder calls share no scratch."""
    for key, shape, m in (("2d9p", (64, 61), 2), ("3d-heat", (18, 20, 22), 3)):
        p = plan(key).unroll(m).compile()
        grids = [Grid.random(shape, boundary=DIRICHLET, seed=s) for s in range(24)]
        steps = 2 * m + 1
        expected = [bits(p.run(grid, steps)) for grid in grids]
        for _ in range(3):
            batch = p.run_batch(grids, steps, workers=4)
            for out, want in zip(batch, expected):
                np.testing.assert_array_equal(bits(out), want)


# --------------------------------------------------------------------------- #
# every ISA build returns the same bits
# --------------------------------------------------------------------------- #
#: Columns of one register block of the widest (8-lane) build.
WIDEST_BLOCK = 32


@pytest.fixture(scope="module")
def isa_builds(tmp_path_factory) -> dict:
    """The fold kernel built into an empty cache with no ISA flags and with
    each ISA flag the host supports, by flags."""
    compiler = native.find_c_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    features, _ = native.host_features(compiler)
    pairs = {pair for ladder in native.ISA_FLAGS.values() for pair in ladder}
    flags = sorted(flag for feature, flag in pairs if feature in features)
    builds = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("isa-builds")))
        for flagset in [(), *((flag,) for flag in flags)]:
            path = native.build_library(
                "fold_kernel", fold_kernel._SOURCE.read_text(), compiler, flagset
            )
            builds[" ".join(flagset) or "no ISA flags"] = FoldKernel(ctypes.CDLL(str(path)), path)
    return builds


@st.composite
def isa_cases(draw):
    """(kernel, m, grid shape, boundary, seed): rows of 1 to two blocks and
    one column, 3-D grids of 1-2 planes, bands thicker than the grid."""
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims))
    m = draw(st.integers(1, 4))
    leading = ()
    if dims == 2:
        leading = (draw(st.integers(1, 9)),)
    elif dims == 3:
        leading = (draw(st.integers(1, 2)), draw(st.integers(1, 7)))
    grid = leading + (draw(st.integers(1, 2 * WIDEST_BLOCK + 1)),)
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET]))
    return kernel, m, grid, boundary, draw(st.integers(0, 2**32 - 1))


#: A NaN whose payload marks the points the band must not write.
SENTINEL = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.int64).view(np.float64)[0]

#: Kernels whose radius differs between axes: the band is as thick as
#: their largest radius, and its packed strips reach as far as their taps.
ROW_1X3 = np.array([[0.5, 1.0, -0.25]])
COLUMN_3X1 = np.array([[0.75], [1.0], [-0.5]])
ROW_1X1X3 = np.array([[[-0.5, 1.0, 0.25]]])


@settings(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=isa_cases())
@example(case=(BOX_3D, 2, (2, 5, 32), DIRICHLET, 1))
@example(case=(HEAT_3D, 3, (1, 4, 48), PERIODIC, 2))
@example(case=(HEAT_3D, 4, (2, 3, 1), DIRICHLET, 3))
@example(case=(WIDE_2D, 2, (6, 2 * WIDEST_BLOCK + 1), DIRICHLET, 4))
@example(case=(WIDE_2D, 3, (2, 7), PERIODIC, 5))
@example(case=(WIDE_1D, 4, (1,), DIRICHLET, 6))
@example(case=(WIDE_1D, 1, (8,), PERIODIC, 7))
@example(case=(ROW_1X3, 3, (9, 20), DIRICHLET, 8))
@example(case=(COLUMN_3X1, 3, (11, 13), DIRICHLET, 9))
@example(case=(ROW_1X1X3, 3, (5, 6, 17), DIRICHLET, 10))
@example(case=(COLUMN_3X1, 2, (12, 1), DIRICHLET, 11))
# Packed strips shorter than one vector: fewer rows than 4 or 8 lanes.
@example(case=(BOX_3D, 2, (2, 3, 40), DIRICHLET, 12))
@example(case=(HEAT_3D, 3, (2, 6, 2 * WIDEST_BLOCK + 1), DIRICHLET, 13))
@example(case=(WIDE_2D, 2, (3, 40), DIRICHLET, 14))
@example(case=(WIDE_2D, 3, (7, 33), DIRICHLET, 15))
def test_every_isa_build_returns_the_same_bits(isa_builds, case):
    """Each build's fold, reference step and band against ``numpy_fold``,
    ``reference_step`` and the band oracle.  The band gets a fold whose
    points outside the band are a NaN sentinel, and must leave every one of
    them bit for bit."""
    kernel, m, shape, boundary, seed = case
    spec = StencilSpec(name="fuzz", kernel=kernel)
    schedule = FoldingSchedule(spec, m)
    values = special_values(np.random.default_rng(seed), shape)
    fold = bits(schedule.numpy_fold(values, boundary))
    step = bits(reference_step(spec, values, boundary))
    near = band_mask(shape, (m - 1) * spec.radius)
    band = bits(np.where(near, band_oracle(spec, values, m, m), SENTINEL))
    for flags, build in isa_builds.items():
        got = build(schedule.fold_tables(), values, boundary)
        np.testing.assert_array_equal(bits(got), fold, err_msg=f"fold, {flags}")
        got = build.step(schedule.step_tables(), values, boundary)
        np.testing.assert_array_equal(bits(got), step, err_msg=f"step, {flags}")
        folded = np.where(near, schedule.numpy_fold(values, DIRICHLET), SENTINEL)
        got = build.band(schedule.step_tables(), values, folded, m, spec.radius)
        assert got is folded
        np.testing.assert_array_equal(bits(got), band, err_msg=f"band, {flags}")


#: A 3-D star whose taps reach two points along every axis.
STAR_3D = np.zeros((5, 5, 5))
STAR_3D[2, 2, :] = STAR_3D[2, :, 2] = STAR_3D[:, 2, 2] = 0.0625
STAR_3D[2, 2, 2] = 0.25


@pytest.mark.parametrize(
    "kernel,shape", [(WIDE_1D, (30,)), (WIDE_2D, (9, 20)), (STAR_3D, (6, 7, 20))]
)
def test_band_refuses_a_radius_below_its_taps_reach(isa_builds, kernel, shape):
    """A frame thinner than the taps reach would leave rows and strips the
    next step reads unwritten: every build raises ``ValueError`` before it
    calls the C band, and leaves ``folded`` as it was."""
    spec = StencilSpec(name="reach", kernel=kernel)
    schedule = FoldingSchedule(spec, 3)
    values = special_values(np.random.default_rng(3), shape)
    folded = schedule.numpy_fold(values, DIRICHLET)
    before = bits(folded).copy()
    assert schedule.step_tables().reach == spec.radius == 2
    for flags, build in isa_builds.items():
        with pytest.raises(ValueError, match="radius 1 is below its taps' reach 2"):
            build.band(schedule.step_tables(), values, folded, 3, 1)
        np.testing.assert_array_equal(bits(folded), before, err_msg=flags)


# --------------------------------------------------------------------------- #
# run()'s input contract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("path", ["process", "numpy"])
@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_wrong_dimensionality_raises_reference_steps_error_whatever_the_steps(
    request, path, boundary
):
    if path == "numpy":
        request.getfixturevalue("numpy_folds")
    for key, shape in (("3d-heat", (8, 8)), ("2d9p", (8, 8, 8)), ("1d5p", (16, 16))):
        p = plan(key).unroll(3).compile()
        grid = Grid.random(shape, boundary=boundary, seed=1)
        with pytest.raises(ValueError) as expected:
            reference_step(p.spec, grid.values, boundary)
        for steps in range(1, 8):
            with pytest.raises(ValueError) as raised:
                p.run(grid, steps)
            assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("path", ["process", "numpy"])
@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_run_never_writes_the_grid(request, path, boundary):
    if path == "numpy":
        request.getfixturevalue("numpy_folds")
    for key, shape in (("1d5p", (40,)), ("2d9p", (12, 9)), ("3d27p", (6, 7, 5))):
        for m in (1, 2, 3):
            p = plan(key).unroll(m).compile()
            grid = Grid.random(shape, boundary=boundary, seed=m)
            before = grid.values.copy()
            grid.values.setflags(write=False)
            for steps in (m - 1, m, 2 * m + 1):
                out = p.run(grid, steps)
                assert out is not grid.values and out.flags.writeable
            np.testing.assert_array_equal(bits(grid.values), bits(before))


@pytest.mark.parametrize("path", ["process", "numpy"])
def test_consecutive_dirichlet_runs_share_no_memory(request, path):
    """Each run writes its own arrays: two runs of one grid return arrays
    that share no memory with each other or with the grid, and the grid
    keeps its bits."""
    if path == "numpy":
        request.getfixturevalue("numpy_folds")
    for key, shape, m in (("1d5p", (64,), 2), ("2d9p", (16, 12), 3), ("3d27p", (8, 8, 8), 2)):
        p = plan(key).unroll(m).compile()
        grid = Grid.random(shape, boundary=DIRICHLET, seed=m)
        before = grid.values.copy()
        for steps in (m - 1, m, 2 * m + 1):
            first, second = p.run(grid, steps), p.run(grid, steps)
            for a, b in ((first, second), (first, grid.values), (second, grid.values)):
                assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(bits(first), bits(second))
        np.testing.assert_array_equal(bits(grid.values), bits(before))


# --------------------------------------------------------------------------- #
# the per-process decision and its observability
# --------------------------------------------------------------------------- #
def fold_kernel_line(key: str = "2d9p") -> str:
    lines = [
        line
        for line in plan(key).compile().explain().splitlines()
        if line.lstrip().startswith("fold kernel")
    ]
    assert len(lines) == 1
    return lines[0].split(":", 1)[1].strip()


def test_explain_names_the_cached_library(compiled):
    """The line names the library and the widest ISA flag the host's CPU
    probe reports, or why it was built with fewer."""
    features, reason = native.host_features(native.find_c_compiler())
    if "avx512f" in features:
        flags = "-mavx512f"
    elif "avx2" in features:
        flags = "-mavx2; host lacks avx512f"
    else:
        flags = f"no ISA flags; {reason or 'host lacks avx512f, avx2'}"
    assert fold_kernel_line() == f"compiled ({compiled.path}, {flags})"
    assert compiled.path.suffix == ".so" and compiled.path.is_file()
    assert compiled.path.parent == native.cache_dir()


@pytest.mark.parametrize(
    "features,flags",
    [
        ({"avx512f", "avx2"}, "-mavx512f"),
        ({"avx2"}, "-mavx2; host lacks avx512f"),
        (set(), "no ISA flags; host lacks avx512f, avx2"),
    ],
)
def test_a_host_without_the_widest_isa_builds_with_fewer_flags(
    undecided, monkeypatch, features, flags
):
    compiler = native.find_c_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    supported, _ = native.host_features(compiler)
    monkeypatch.setattr(native, "host_features", lambda compiler: (frozenset(features), ""))
    kernel = load_fold_kernel()
    assert fold_kernel_status() == f"compiled ({kernel.path}, {flags})"
    assert fold_kernel_line() == f"compiled ({kernel.path}, {flags})"
    if set(features) <= supported:  # never run code for features the CPU lacks
        spec = plan("3d27p").compile().spec
        values = special_values(np.random.default_rng(9), (3, 5, 32))
        step = kernel.step(FoldingSchedule(spec, 1).step_tables(), values, DIRICHLET)
        np.testing.assert_array_equal(bits(step), bits(reference_step(spec, values, DIRICHLET)))


def test_explain_names_the_decision_whatever_the_host():
    """The line names the library, or why there is none: the only check
    that holds both with and without a compiler on ``PATH``."""
    load_fold_kernel()
    if native.find_c_compiler() is None:
        assert fold_kernel_line() == "numpy (no C compiler on PATH)"
    else:
        assert fold_kernel_line().startswith("compiled (")


def execution_path_line(key: str = "2d9p") -> str:
    (line,) = [
        line
        for line in plan(key).compile().explain().splitlines()
        if line.lstrip().startswith("execution path")
    ]
    return line


def test_explain_names_where_the_band_and_remainder_run_whatever_the_host():
    """The execution path and the fold kernel lines read the same decision."""
    tail = "the band and the steps % m remainder steps run on "
    if load_fold_kernel() is None:
        reason = fold_kernel_line().removeprefix("numpy (").removesuffix(")")
        assert execution_path_line().endswith(f"{tail}ndimage ({reason})")
    else:
        assert fold_kernel_line().startswith("compiled (")
        assert execution_path_line().endswith(f"{tail}the fold kernel's compiled reference step")


def test_explain_names_ndimage_and_the_reason_without_a_fold_kernel(numpy_folds):
    assert fold_kernel_line() == "numpy (selected by the test)"
    assert execution_path_line().endswith(
        "the band and the steps % m remainder steps run on ndimage (selected by the test)"
    )


def test_explain_has_no_fold_kernel_line_without_a_schedule():
    assert "fold kernel" not in plan("2d9p").method("dlt").compile().explain()


def test_no_compiler_selects_numpy_and_says_so(undecided, monkeypatch):
    monkeypatch.setattr(native, "find_c_compiler", lambda: None)
    assert load_fold_kernel() is None
    assert fold_kernel_line() == "numpy (no C compiler on PATH)"
    p = plan("2d-heat").unroll(2).compile()
    grid = Grid.random((12, 10), seed=3)
    expected = reference_run(p.spec, grid, 4)
    np.testing.assert_allclose(p.run(grid, 4), expected, rtol=1e-10, atol=1e-12)


@pytest.mark.skipif(sys.platform == "win32", reason="the stand-in compiler is a shell script")
def test_failed_build_selects_numpy_with_the_first_error_line(undecided, monkeypatch, tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text(
        "#!/bin/sh\n"
        "echo 'fold_kernel.c: In function f:' >&2\n"
        "echo 'fold_kernel.c:1:1: error: stand-in failure' >&2\n"
        "echo 'fold_kernel.c:2:1: error: second failure' >&2\n"
        "exit 1\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setattr(native, "find_c_compiler", lambda: str(compiler))
    assert load_fold_kernel() is None
    assert fold_kernel_status() == "numpy (fold_kernel.c:1:1: error: stand-in failure)"
    assert fold_kernel_line() == "numpy (fold_kernel.c:1:1: error: stand-in failure)"


def test_the_decision_is_made_once_per_process_under_contention(undecided, monkeypatch):
    calls = []
    monkeypatch.setattr(native, "find_c_compiler", lambda: calls.append(1))
    schedule = FoldingSchedule(plan("2d9p").compile().spec, 2)
    values = Grid.random((9, 11), seed=2).values
    expected = schedule.numpy_fold(values, PERIODIC)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(schedule.numpy_step, values, PERIODIC) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert all(np.array_equal(bits(r), bits(expected)) for r in results)


def _stub_kernel(status: int) -> FoldKernel:
    def stub(*args):
        return status

    names = (
        "repro_fold_update",
        "repro_reference_step",
        "repro_reference_step_scratch",
        "repro_dirichlet_band",
        "repro_dirichlet_band_scratch",
    )
    library = types.SimpleNamespace(**{name: stub for name in names})
    return FoldKernel(library, Path("stub.so"))


@pytest.mark.parametrize("status,error", [(1, MemoryError), (2, RuntimeError)])
def test_a_failed_kernel_call_raises_instead_of_falling_back(monkeypatch, status, error):
    kernel = _stub_kernel(status)
    monkeypatch.setattr(fold_kernel, "_decision", (kernel, "compiled (stub.so)"))
    schedule = FoldingSchedule(plan("2d9p").compile().spec, 2)
    values = np.ones((8, 8))
    calls = (
        lambda: schedule.numpy_step(values, PERIODIC),
        lambda: kernel.step(schedule.step_tables(), values, DIRICHLET),
        lambda: kernel.band(schedule.step_tables(), values, values.copy(), 2, 1),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(error):
                call()
    assert fold_kernel_status() == "compiled (stub.so)"


def test_builds_are_cached_by_a_hash_of_source_and_flags(monkeypatch, tmp_path):
    compiler = native.find_c_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = "int answer(void) { return 42; }\n"
    path = native.build_library("probe", source, compiler)
    other = native.build_library("probe", source.replace("42", "43"), compiler)
    flagged = native.build_library("probe", source, compiler, flags=("-DFLAGGED",))
    assert path.parent == tmp_path / "repro" and path.name.startswith("probe-")
    assert len({path, other, flagged}) == 3
    # no temporary files left
    assert sorted(path.parent.iterdir()) == sorted([path, other, flagged])
    assert ctypes.CDLL(str(path)).answer() == 42
    runs = []
    monkeypatch.setattr(native.subprocess, "run", lambda *args, **kwargs: runs.append(args))
    assert native.build_library("probe", source, compiler) == path
    assert native.build_library("probe", source, compiler, flags=("-DFLAGGED",)) == flagged
    assert runs == []
