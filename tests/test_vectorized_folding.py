"""Tests for the vectorised folding schedules (repro.core.vectorized_folding)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shifts_reuse import loads_per_square, reusable_vectors, shifts_reuse_report
from repro.core.vectorized_folding import FoldingSchedule
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
from tests.conftest import SMALL_SHAPES


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
        out = sched.simd_sweep_2d(machine, grid.values.copy())
        ref = reference_run(spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_transpose_back_false_equivalent_after_untiling(self):
        spec = box_2d9p()
        sched = FoldingSchedule(spec, 2)
        machine = SimdMachine(AVX2)
        grid = Grid.random((16, 16), seed=16)
        out = sched.simd_sweep_2d(machine, grid.values.copy(), transpose_back=False)
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_transpose_back_false_saves_permutes(self):
        spec = box_2d9p()
        sched = FoldingSchedule(spec, 2)
        m1, m2 = SimdMachine(AVX2), SimdMachine(AVX2)
        grid = Grid.random((16, 16), seed=17)
        sched.simd_sweep_2d(m1, grid.values.copy(), transpose_back=True)
        sched.simd_sweep_2d(m2, grid.values.copy(), transpose_back=False)
        assert m2.counts.data_organization < m1.counts.data_organization

    def test_rejects_unaligned_shape(self):
        sched = FoldingSchedule(box_2d9p(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_2d(SimdMachine(AVX2), np.zeros((15, 16)))

    def test_rejects_1d_stencil(self):
        sched = FoldingSchedule(heat_1d(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_2d(SimdMachine(AVX2), np.zeros((16, 16)))


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
        out = sched.simd_sweep_3d(machine, grid.values.copy())
        ref = reference_run(spec, grid, m)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_sweep_avx512(self):
        spec = box_3d27p()
        sched = FoldingSchedule(spec, 2)
        machine = SimdMachine(AVX512)
        grid = Grid.random((4, 16, 16), seed=19)
        out = sched.simd_sweep_3d(machine, grid.values.copy())
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_transpose_back_false_equivalent_after_untiling(self):
        spec = heat_3d()
        sched = FoldingSchedule(spec, 2)
        machine = SimdMachine(AVX2)
        grid = Grid.random((4, 8, 8), seed=20)
        out = sched.simd_sweep_3d(machine, grid.values.copy(), transpose_back=False)
        ref = reference_run(spec, grid, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_unused_leading_rows_are_not_loaded(self):
        """The star stencil's folded kernel has all-zero leading rows; the
        sweep must skip their loads (and the profile must agree)."""
        sched = FoldingSchedule(heat_3d(), 1)
        used = sched._leading_use_mask()
        assert used.shape == (3, 3)
        assert not used[0, 0] and not used[2, 2]
        machine = SimdMachine(AVX2)
        grid = Grid.random((4, 8, 8), seed=21)
        dense = FoldingSchedule(box_3d27p(), 1)
        machine_dense = SimdMachine(AVX2)
        sched.simd_sweep_3d(machine, grid.values.copy())
        dense.simd_sweep_3d(machine_dense, grid.values.copy())
        assert machine.counts.get(InstructionClass.LOAD) < machine_dense.counts.get(
            InstructionClass.LOAD
        )

    def test_rejects_unaligned_shape(self):
        sched = FoldingSchedule(heat_3d(), 1)
        with pytest.raises(ValueError):
            sched.simd_sweep_3d(SimdMachine(AVX2), np.zeros((4, 15, 16)))

    def test_rejects_2d_stencil(self):
        sched = FoldingSchedule(heat_2d(), 2)
        with pytest.raises(ValueError):
            sched.simd_sweep_3d(SimdMachine(AVX2), np.zeros((4, 16, 16)))


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
        out = sched.simd_sweep_2d(SimdMachine(AVX2), grid.values.copy())
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
        out = sched.simd_sweep_3d(SimdMachine(AVX2), grid.values.copy())
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

    def test_reusable_vectors(self):
        assert reusable_vectors(1, 2) == 2
        assert reusable_vectors(2, 1) == 2
        with pytest.raises(ValueError):
            reusable_vectors(-1, 1)

    def test_loads_per_square(self):
        assert loads_per_square(4, 1, 2, shifts_reuse=False) == 8
        assert loads_per_square(4, 1, 2, shifts_reuse=True) == 6
        with pytest.raises(ValueError):
            loads_per_square(0, 1, 1, True)
