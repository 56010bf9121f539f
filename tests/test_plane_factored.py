"""Plane-factored 3-D folds: Section 3.3's separable fast path along the plane axis.

* A direct counterpart of a 3-D stencil is plane-factored when its
  ``(plane, row)`` weights are ``outer(a, b)`` to rounding and folding
  planes first, then rows, takes fewer multiply-adds: 3d27p at every ``m``,
  no counterpart of 3d-heat, and no counterpart of a near-separable kernel.
* On random plane-separable stencils every engine returns the bits of the
  NumPy fold: the fold kernel, the native program's periodic and Dirichlet
  ``run()``, trace replay, ``interpret`` and ``backend="kernel",
  optimize=True``; and ``run()`` stays within ``steps · npoints · eps ·
  max(1, max|ref|)`` of ``reference_run``.

Without a C compiler the same property checks the NumPy fold against IR
replay and ``interpret``: every compiled engine falls back to one of those.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import codegen, native
from repro.core.fold_kernel import load_fold_kernel
from repro.core.plan import _fix_dirichlet_band, plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.simd.isa import AVX2, AVX512, InstructionClass
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import box_3d27p, heat_3d
from repro.stencils.reference import reference_run, reference_step
from repro.stencils.spec import StencilSpec
from tests.conftest import EPS, separable_weights
from tests.test_fold_kernel import bits, special_values

PERIODIC, DIRICHLET = BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET

#: Seconds a test waits for the background builds.
BUILD_TIMEOUT = 600


def factored(schedule: FoldingSchedule) -> list:
    """Per materialised counterpart, whether it is plane-factored."""
    return [cp.factors is not None for cp in schedule.materialized]


# --------------------------------------------------------------------------- #
# which schedules factor
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("m", range(1, 7))
def test_library_schedules_that_factor(m):
    """3d27p's one counterpart factors at every m; none of 3d-heat's does
    (its centre counterpart is a plus, its last one a single tap)."""
    box = FoldingSchedule(box_3d27p(), m)
    assert factored(box) == [True]
    a, b = box.materialized[0].factors
    np.testing.assert_allclose(
        np.outer(a, b).ravel(), box.materialized[0].vector, rtol=0, atol=4 * EPS
    )
    assert not any(factored(FoldingSchedule(heat_3d(), m)))


@pytest.mark.parametrize("isa", [AVX2, AVX512], ids=lambda isa: isa.name)
def test_the_vertical_phase_folds_planes_then_rows(isa):
    """3d27p at m = 2, on either ISA: from 5 planes of vl + 4 loaded rows,
    vl + 4 plane-combined rows of 5 taps, then vl output rows of 5 taps,
    where the unfactored fold summed 25 taps per output row."""
    schedule = FoldingSchedule(box_3d27p(), 2)
    assert schedule.describe_vertical_phase() == (
        "plane-factored vertical phase (5 + 5 taps per row instead of 25)"
    )
    vl = isa.vector_lanes
    (vertical,) = [seg for seg in schedule.schedule_ir(vl).segments if seg.name == "vertical"]
    ops = Counter(op.opcode for op in vertical.ops)
    assert ops["load"] == 5 * (vl + 4)
    assert ops["mul"] == (vl + 4) + vl
    assert ops["mul"] + ops["fma"] == 5 * (vl + 4) + 5 * vl


def test_the_cost_model_prices_the_factored_phase():
    """3d27p at m = 6 does not lower at 4 lanes (radius 6): its closed-form
    profile prices (4 + 12)·13 plane-combined multiply-adds and 4·13 of the
    row fold per square, not 4·169, plus the 4·13 of the horizontal fold."""
    schedule = FoldingSchedule(box_3d27p(), 6)
    assert schedule.schedule_ir(4) is None
    per_square = (4 + 12) * 13 + 4 * 13 + 4 * 13
    fma = schedule.instruction_profile(4).get(InstructionClass.FMA)
    assert fma == pytest.approx(per_square / (4 * 4 * 6))


@settings(deadline=None, max_examples=40)
@given(kernel=separable_weights(perturbed=True), m=st.integers(1, 3))
def test_near_separable_kernels_do_not_factor(kernel, m):
    schedule = FoldingSchedule(StencilSpec(name="near", kernel=kernel), m)
    assert not any(factored(schedule))
    assert "plane-factored" not in schedule.describe_vertical_phase()


#: Plane-separable kernels that factor at m = 1..3, normalised like
#: ``separable_weights``: radius 1 with a negative plane weight and a
#: sub-epsilon column weight, and radius 2 with zeros and a sub-epsilon row
#: weight.
SEPARABLE_PINS = [
    kernel / np.abs(kernel).sum()
    for kernel in (
        np.einsum("i,j,k->ijk", [-0.5, 1.0, 0.25], [0.25, 0.5, 0.25], [EPS / 2, 1.0, 1.0]),
        np.einsum(
            "i,j,k->ijk",
            [0.0, 0.5, 1.0, -0.25, 0.125],
            [1.0, 0.0, 0.5, 0.5, 1e-300],
            [0.25, -1.0, 1.0, 0.0, 0.5],
        ),
    )
]


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("index", range(len(SEPARABLE_PINS)))
def test_pinned_separable_kernels_factor(index, m):
    schedule = FoldingSchedule(StencilSpec(name="pin", kernel=SEPARABLE_PINS[index]), m)
    assert factored(schedule) == [True]


# --------------------------------------------------------------------------- #
# every engine, the same bits
# --------------------------------------------------------------------------- #
@st.composite
def factored_cases(draw):
    """(kernel, m, isa, grid shape, steps, seed): a plane-separable kernel of
    radius 1 or 2 folded ``m`` = 1..3 times, up to a folded radius of 4 (the
    C compiler takes seconds per program beyond that), on an ISA whose lanes
    hold it, and a grid of 1-3 planes in the engines' block multiples."""
    kernel = draw(separable_weights())
    radius = kernel.shape[0] // 2
    m = draw(st.integers(1, min(3, 4 // radius)))
    isa = draw(st.sampled_from([AVX2, AVX512]))
    vl = isa.vector_lanes
    shape = (draw(st.integers(1, 3)), vl * draw(st.integers(1, 2)), vl)
    steps = draw(st.sampled_from([m, 2 * m + 1]))
    return kernel, m, isa, shape, steps, draw(st.integers(0, 2**32 - 1))


def numpy_run(schedule: FoldingSchedule, grid: Grid, steps: int) -> np.ndarray:
    """What ``run()`` computes, from the NumPy fold: each fold of a Dirichlet
    grid with its band recomputed, then the ``steps % m`` reference steps."""
    values = grid.values
    sweeps, remainder = divmod(steps, schedule.m)
    for _ in range(sweeps):
        folded = schedule.numpy_fold(values, grid.boundary)
        if grid.boundary is DIRICHLET:
            folded = _fix_dirichlet_band(schedule, values, folded)
        values = folded
    for _ in range(remainder):
        values = reference_step(schedule.spec, values, grid.boundary)
    return values


@settings(deadline=None, max_examples=8)
@given(case=factored_cases())
@example(case=(SEPARABLE_PINS[0], 3, AVX2, (2, 4, 8), 7, 1))
@example(case=(SEPARABLE_PINS[1], 2, AVX512, (3, 8, 8), 4, 2))
def test_every_engine_returns_the_numpy_folds_bits(case):
    kernel, m, isa, shape, steps, seed = case
    spec = StencilSpec(name="separable", kernel=kernel)
    p = plan(spec).isa(isa.name).unroll(m).compile()
    values = special_values(np.random.default_rng(seed), shape)
    compiled = load_fold_kernel()
    for boundary in (PERIODIC, DIRICHLET):
        grid = Grid(values.copy(), boundary=boundary)
        expected = bits(numpy_run(p.schedule, grid, steps))
        if compiled is not None:
            np.testing.assert_array_equal(
                bits(compiled(p.schedule.fold_tables(), values, boundary)),
                bits(p.schedule.numpy_fold(values, boundary)),
            )
        p.run(grid, steps)
        assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
        loaded = p._native_program(grid) is not None
        assert loaded == (native.find_c_compiler() is not None)
        got = p.run(grid, steps)
        np.testing.assert_array_equal(bits(got), expected)
        ref = reference_run(spec, grid, steps)
        bound = steps * spec.npoints * EPS * max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(got - ref).max()) <= bound
    periodic = Grid(values, boundary=PERIODIC)
    expected = bits(numpy_run(p.schedule, periodic, steps))
    for backend, optimize in (("trace", False), ("interpret", False), ("kernel", True)):
        got = p.run(periodic, steps, backend=backend, optimize=optimize)
        np.testing.assert_array_equal(bits(got), expected)
