"""Tests for the vectorised folding schedules (repro.core.vectorized_folding)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.plan import plan
from repro.core.shifts_reuse import shifts_reuse_report
from repro.core.vectorized_folding import FoldingSchedule
from repro.ir.executor import compile_sweep
from repro.layout.transpose_layout import from_transpose_layout, to_transpose_layout
from repro.simd.isa import AVX2, AVX512, InstructionClass
from repro.simd.machine import SimdMachine
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import (
    apop,
    box_1d5p,
    box_2d9p,
    box_3d27p,
    general_box_2d9p,
    heat_1d,
    heat_2d,
    heat_3d,
    symmetric_box_2d9p,
)
from repro.stencils.reference import reference_run
from repro.stencils.spec import StencilSpec
from tests.conftest import EPS, SMALL_SHAPES, stencil_weights


class TestScheduleConstruction:
    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            FoldingSchedule(apop(), 2)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            FoldingSchedule(heat_1d(), 0)

    def test_separable_fast_path_detection(self):
        assert FoldingSchedule(box_2d9p(), 2).separable_fast_path
        assert not FoldingSchedule(heat_2d(), 2).separable_fast_path
        assert not FoldingSchedule(general_box_2d9p(), 2).separable_fast_path

    def test_materialized_counterpart_counts(self):
        assert FoldingSchedule(box_2d9p(), 2).num_materialized == 1
        assert FoldingSchedule(symmetric_box_2d9p(), 2).num_materialized == 3
        assert FoldingSchedule(general_box_2d9p(), 2).num_materialized == 5

    def test_radius_and_width(self):
        sched = FoldingSchedule(box_1d5p(), 2)
        assert sched.radius == 4
        assert sched.width == 9


class TestNumpyStep:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_periodic_equals_m_reference_steps(self, linear_spec, m):
        sched = FoldingSchedule(linear_spec, m)
        grid = Grid.random(SMALL_SHAPES[linear_spec.dims], seed=11)
        out = sched.numpy_step(grid.values, BoundaryCondition.PERIODIC)
        ref = reference_run(linear_spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_dirichlet_exact_in_the_deep_interior(self):
        spec = box_2d9p()
        sched = FoldingSchedule(spec, 2)
        grid = Grid.random((24, 24), boundary=BoundaryCondition.DIRICHLET, seed=12)
        out = sched.numpy_step(grid.values, BoundaryCondition.DIRICHLET)
        ref = reference_run(spec, grid, 2)
        band = (2 - 1) * spec.radius
        interior = (slice(band, -band), slice(band, -band))
        np.testing.assert_allclose(out[interior], ref[interior], rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        sched = FoldingSchedule(heat_2d(), 2)
        with pytest.raises(ValueError):
            sched.numpy_step(np.zeros(16), BoundaryCondition.PERIODIC)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_gb_counterpart_reuse_is_exact(self, seed):
        """Property: the regression-planned evaluation is exact for GB."""
        spec = general_box_2d9p()
        sched = FoldingSchedule(spec, 2)
        grid = Grid.random((18, 18), seed=seed)
        out = sched.numpy_step(grid.values, BoundaryCondition.PERIODIC)
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


class TestSimd1D:
    @pytest.mark.parametrize(
        "spec_factory,m", [(heat_1d, 1), (heat_1d, 2), (box_1d5p, 1), (box_1d5p, 2)]
    )
    def test_sweep_matches_reference(self, spec_factory, m):
        spec = spec_factory()
        sched = FoldingSchedule(spec, m)
        machine = SimdMachine(AVX2)
        grid = Grid.random((96,), seed=13)
        data = to_transpose_layout(grid.values, 4)
        out = from_transpose_layout(sched.simd_sweep_1d(machine, data), 4)
        ref = reference_run(spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_sweep_avx512(self):
        spec = heat_1d()
        sched = FoldingSchedule(spec, 2)
        machine = SimdMachine(AVX512)
        grid = Grid.random((128,), seed=14)
        data = to_transpose_layout(grid.values, 8)
        out = from_transpose_layout(sched.simd_sweep_1d(machine, data), 8)
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_rejects_non_multiple_length(self):
        sched = FoldingSchedule(heat_1d(), 1)
        machine = SimdMachine(AVX2)
        with pytest.raises(ValueError):
            sched.simd_sweep_1d(machine, np.zeros(30))

    def test_rejects_2d_grid(self):
        sched = FoldingSchedule(heat_2d(), 1)
        machine = SimdMachine(AVX2)
        with pytest.raises(ValueError):
            sched.simd_sweep_1d(machine, np.zeros(64))

    def test_instruction_mix_contains_assembled_vectors(self):
        sched = FoldingSchedule(heat_1d(), 1)
        machine = SimdMachine(AVX2)
        data = to_transpose_layout(np.arange(64.0), 4)
        sched.simd_sweep_1d(machine, data)
        # every vector set assembles one left and one right dependence vector
        assert machine.counts.data_organization > 0
        assert machine.counts.get(InstructionClass.BLEND) == 2 * (64 // 16)


class TestSimd2D:
    @pytest.mark.parametrize(
        "spec_factory,m",
        [
            (box_2d9p, 2),
            (symmetric_box_2d9p, 2),
            (heat_2d, 2),
            (general_box_2d9p, 2),
            (box_2d9p, 1),
        ],
    )
    def test_square_pipeline_matches_reference(self, spec_factory, m):
        spec = spec_factory()
        sched = FoldingSchedule(spec, m)
        machine = SimdMachine(AVX2)
        grid = Grid.random((16, 16), seed=15)
        out = sched.simd_sweep_squares(machine, grid.values.copy())
        ref = reference_run(spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_rejects_unaligned_shape(self):
        sched = FoldingSchedule(box_2d9p(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_squares(SimdMachine(AVX2), np.zeros((15, 16)))

    def test_rejects_1d_stencil(self):
        sched = FoldingSchedule(heat_1d(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_squares(SimdMachine(AVX2), np.zeros((16, 16)))

    def test_unused_leading_rows_are_not_loaded(self):
        """A 2-D kernel is one plane of the square pipeline's vertical
        phase, so a row no fold reads is not loaded, as in 3-D.  Counted as
        the lowered program's ``("row", 0, s)`` load tags; every engine still
        returns the fold's bits."""
        spec = StencilSpec(
            name="top-row-zero",
            kernel=np.array([[0.0, 0.0, 0.0], [0.1, 0.4, 0.2], [0.05, 0.15, 0.1]]),
        )
        sched = FoldingSchedule(spec, 1)
        vl = AVX2.vector_lanes
        ir = sched.schedule_ir(vl)
        loads = [op.tag for seg in ir.segments for op in seg.ops if op.opcode == "load"]
        # Row -1 (the kernel's all-zero top row) is skipped.
        assert sorted(loads) == [("row", 0, s) for s in range(vl + sched.radius)]
        grid = Grid.random((2 * vl, 3 * vl), seed=21)
        expected = sched.numpy_fold(grid.values, BoundaryCondition.PERIODIC)
        compiled = plan(spec).method("folded").isa("avx2").unroll(1).compile()
        for backend in ("interpret", "trace", "kernel"):
            got, _ = compiled.simulate(grid, 1, backend=backend)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestSimd3D:
    @pytest.mark.parametrize(
        "spec_factory,m",
        [(heat_3d, 1), (heat_3d, 2), (heat_3d, 3), (box_3d27p, 1), (box_3d27p, 2)],
    )
    def test_plane_pipeline_matches_reference(self, spec_factory, m):
        """The 3-D sweep agrees with m applications of scipy.ndimage's
        reference correlation (the reference executor) on periodic grids."""
        spec = spec_factory()
        sched = FoldingSchedule(spec, m)
        machine = SimdMachine(AVX2)
        grid = Grid.random((6, 8, 8), seed=18)
        out = sched.simd_sweep_squares(machine, grid.values.copy())
        ref = reference_run(spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_sweep_avx512(self):
        spec = box_3d27p()
        sched = FoldingSchedule(spec, 2)
        machine = SimdMachine(AVX512)
        grid = Grid.random((4, 16, 16), seed=19)
        out = sched.simd_sweep_squares(machine, grid.values.copy())
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_unused_leading_rows_are_not_loaded(self):
        """The star stencil's folded kernel has all-zero leading rows; the
        sweep must skip their loads.  Counted as the lowered program's
        ``("row", dz, s)`` load tags: the machine's ``LOAD`` tally also holds
        spill reloads, which depend on register pressure, not on rows."""
        sched = FoldingSchedule(heat_3d(), 1)
        used = sched._leading_use_mask()
        assert used.shape == (3, 3)
        assert not used[0, 0] and not used[2, 2]

        def row_loads(schedule):
            ir = schedule.schedule_ir(AVX2.vector_lanes)
            return [op.tag for seg in ir.segments for op in seg.ops if op.opcode == "load"]

        star, box = row_loads(sched), row_loads(FoldingSchedule(box_3d27p(), 1))
        # Planes -1 and +1 read only the square's own rows, plane 0 its halo too.
        assert sorted(star) == sorted(
            [("row", dz, s) for dz in (-1, 1) for s in range(4)]
            + [("row", 0, s) for s in range(-1, 5)]
        )
        assert sorted(box) == sorted(("row", dz, s) for dz in (-1, 0, 1) for s in range(-1, 5))

    def test_rejects_unaligned_shape(self):
        sched = FoldingSchedule(heat_3d(), 1)
        with pytest.raises(ValueError):
            sched.simd_sweep_squares(SimdMachine(AVX2), np.zeros((4, 15, 16)))

    def test_rejects_2d_stencil(self):
        sched = FoldingSchedule(heat_2d(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_squares(SimdMachine(AVX2), np.zeros((4, 16, 16)))


class TestCombinationCounterparts:
    """Regression tests for the counterpart-reuse (omega) vertical folds.

    No library stencil materializes a combination counterpart in 2-D, so
    this kernel — whose folding matrix has a column equal to the difference
    of two others — pins the orientation of the reused operands (they must
    stay in row space until the final register transpose).
    """

    KERNEL_2D = np.array([[2.0, 2.0, 2.0], [3.0, 3.0, 0.0], [0.0, 0.0, 2.0]]) / 14.0

    def _spec(self):
        from repro.stencils.spec import StencilSpec

        return StencilSpec(name="comb2d", kernel=self.KERNEL_2D)

    def test_kernel_materializes_a_combination(self):
        sched = FoldingSchedule(self._spec(), 2)
        assert any(cp.mode == "combination" and cp.omega for cp in sched.materialized)

    def test_2d_sweep_matches_reference(self):
        sched = FoldingSchedule(self._spec(), 2)
        grid = Grid.random((16, 16), seed=22)
        out = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        ref = reference_run(self._spec(), grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_3d_combination_with_bias_matches_reference(self, combination_3d):
        """A 3-D combination with reuse weights AND a bias."""
        sched = FoldingSchedule(combination_3d, 1)
        assert any(
            cp.mode == "combination" and cp.omega and np.any(cp.bias)
            for cp in sched.materialized
        )
        grid = Grid.random((4, 8, 8), seed=23)
        out = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        ref = reference_run(combination_3d, grid, 1)
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-11)


class TestInstructionProfile:
    def test_folding_reduces_arithmetic_per_step_for_boxes(self):
        one = FoldingSchedule(box_2d9p(), 1).instruction_profile(4)
        two = FoldingSchedule(box_2d9p(), 2).instruction_profile(4)
        assert two.arithmetic < one.arithmetic
        assert two.memory < one.memory

    def test_disabling_shifts_reuse_costs_more(self):
        with_reuse = FoldingSchedule(box_2d9p(), 2).instruction_profile(4, shifts_reuse=True)
        without = FoldingSchedule(box_2d9p(), 2).instruction_profile(4, shifts_reuse=False)
        assert without.total > with_reuse.total

    def test_avx512_profile_is_leaner_per_point(self):
        avx2 = FoldingSchedule(box_2d9p(), 2).instruction_profile(4)
        avx512 = FoldingSchedule(box_2d9p(), 2).instruction_profile(8)
        assert avx512.arithmetic < avx2.arithmetic

    def test_1d_profile_counts_assembled_vectors(self):
        profile = FoldingSchedule(heat_1d(), 2).instruction_profile(4)
        assert profile.data_organization > 0

    @pytest.mark.parametrize("key", ["2d9p", "3d27p"])
    def test_unlowered_square_reloads_rows_without_shifts_reuse(self, key):
        """At a folded radius of 5 on 4 lanes the schedule does not lower,
        and the analytic profile charges the recomputed neighbour columns'
        row loads again: ``1 + R/vl`` for 2-D as for 3-D."""

        def loads(shifts_reuse: bool) -> float:
            compiled = plan(key).isa("avx2").unroll(5).shifts_reuse(shifts_reuse).compile()
            return compiled.profile().counts_per_point.get(InstructionClass.LOAD)

        assert loads(False) / loads(True) == pytest.approx(1 + 5 / 4)

    @pytest.mark.parametrize("spec_factory", [box_2d9p, heat_2d, heat_3d, box_3d27p])
    @pytest.mark.parametrize("vl", [4, 8])
    def test_analytic_and_ir_profiles_price_shifts_reuse_alike(self, spec_factory, vl):
        """Without shifts reuse both profiles scale a square's row loads by
        the same factor."""
        sched = FoldingSchedule(spec_factory(), 2)

        def load_ratio(profile) -> float:
            off, on = profile(vl, shifts_reuse=False), profile(vl, shifts_reuse=True)
            return off.get(InstructionClass.LOAD) / on.get(InstructionClass.LOAD)

        assert sched.schedule_ir(vl) is not None
        assert load_ratio(sched._analytic_instruction_profile) == pytest.approx(
            load_ratio(sched.instruction_profile)
        )

    @pytest.mark.parametrize(
        "spec_factory,vl,m",
        [
            (factory, vl, m)
            for factory in (heat_1d, box_1d5p)
            for vl in (4, 8)
            for m in range(1, 7)
            if m * factory().radius <= vl  # the schedules that lower
        ],
    )
    def test_analytic_1d_profile_charges_what_the_program_does(self, spec_factory, vl, m):
        """Wherever a 1-D schedule lowers, the closed form it falls back to
        beyond vl charges the lowered program's loads (the set's vl
        registers and 2R neighbour registers), FMAs (one per kept tap and
        output, chained from +0.0) and no multiplies."""
        sched = FoldingSchedule(spec_factory(), m)
        assert sched.schedule_ir(vl) is not None
        analytic = sched._analytic_instruction_profile(vl)
        lowered = sched.instruction_profile(vl)
        for cls in (InstructionClass.LOAD, InstructionClass.FMA, InstructionClass.ARITH):
            assert analytic.get(cls) == pytest.approx(lowered.get(cls)), cls

    def test_3d_profile_is_finite_and_positive(self):
        profile = FoldingSchedule(box_3d27p(), 2).instruction_profile(4)
        assert profile.total > 0
        profile512 = FoldingSchedule(heat_3d(), 2).instruction_profile(8)
        assert profile512.total > 0


class TestShiftsReuse:
    def test_figure6_numbers(self):
        report = shifts_reuse_report(box_2d9p())
        assert report.collect_without == 9
        assert report.collect_with == 4
        assert report.profitability == pytest.approx(2.25)

    def test_star_stencil_reuse(self):
        report = shifts_reuse_report(heat_2d())
        assert report.collect_without == 5
        assert report.collect_with == 4  # densest column has 3 points + 1 combine

    def test_1d_degenerates(self):
        report = shifts_reuse_report(heat_1d())
        assert report.collect_with == 2



# --------------------------------------------------------------------------- #
# the register-level schedule sums exactly like the fold
# --------------------------------------------------------------------------- #
#: A combination counterpart whose bias the fold sums on its own (the
#: pinned kernel of tests/test_fold_kernel.py).
COMBINATION_BIAS = np.array([[2.0, -1.0, 2.0], [0.0, 1.0, 1.0], [2.0, -1.0, 1.0]])


@st.composite
def schedule_cases(draw):
    """(kernel, m, isa, grid shape, negative zeros?, seed) of a schedule the
    engines accept: one radius on every axis, folded radius <= vl."""
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims, isotropic=True))
    isa = draw(st.sampled_from([AVX2, AVX512]))
    vl = isa.vector_lanes
    m = draw(st.integers(1, min(3, vl // max(kernel.shape[0] // 2, 1))))
    if dims == 1:
        shape = (draw(st.integers(1, 3)) * vl * vl,)
    else:
        planes = (draw(st.integers(1, 2)),) * (dims - 2)
        shape = planes + (2 * vl, draw(st.integers(1, 3)) * vl)
    return kernel, m, isa, shape, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(case=schedule_cases())
@example(case=(np.array([0.5, 1.0, EPS / 2]), 1, AVX2, (32,), False, 1))  # |w| <= DBL_EPSILON
@example(case=(np.array([0.5]), 1, AVX512, (64,), True, 2))  # a sum of negative zeros
@example(case=(COMBINATION_BIAS, 2, AVX2, (8, 8), False, 3))  # a combination's bias
def test_trace_replay_matches_the_fold_bit_for_bit(case):
    """The schedule keeps the fold's taps (``|w| > DBL_EPSILON``), starts every
    sum from ``+0.0`` and sums a combination's bias from zero before adding
    it, so trace replay returns :meth:`FoldingSchedule.numpy_fold`'s bits."""
    kernel, m, isa, shape, negative_zeros, seed = case
    schedule = FoldingSchedule(StencilSpec(name="fuzz", kernel=kernel), m)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    if negative_zeros:
        values[rng.random(shape) < 0.5] = -0.0
    values[rng.random(shape) < 0.05] = 1e-310
    expected = schedule.numpy_fold(values, BoundaryCondition.PERIODIC)
    program = compile_sweep(schedule, isa)
    vl = isa.vector_lanes
    if values.ndim == 1:
        got = from_transpose_layout(program.replay(to_transpose_layout(values, vl)), vl)
    else:
        got = program.replay(values)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
