"""Tests for the baseline vectorization methods and the method registry."""

from __future__ import annotations

import pytest

from repro.baselines.common import innermost_width, kernel_rows, streamed_arrays
from repro.baselines.data_reorg import profile_data_reorg
from repro.baselines.dlt import dlt_run, profile_dlt
from repro.baselines.multiple_loads import profile_multiple_loads
from repro.baselines.sdsl import profile_sdsl
from repro.machine import XEON_GOLD_6140_AVX2
from repro.methods import (
    METHOD_KEYS,
    METHOD_LABELS,
    build_profile,
    profile_folded,
    profile_transpose,
)
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import (
    BENCHMARKS,
    apop,
    box_2d9p,
    box_3d27p,
    game_of_life,
    heat_1d,
    heat_2d,
    heat_3d,
)
from repro.stencils.reference import reference_run
from repro.tiling.splittiling import SplitTilingConfig
from repro.utils.validation import assert_allclose


class TestGeometryHelpers:
    def test_innermost_width(self):
        assert innermost_width(heat_1d()) == 3
        assert innermost_width(heat_2d()) == 3
        assert innermost_width(box_2d9p()) == 3

    def test_kernel_rows(self):
        assert kernel_rows(heat_1d()) == 1
        assert kernel_rows(heat_2d()) == 3
        assert kernel_rows(box_2d9p()) == 3
        assert kernel_rows(box_3d27p()) == 9
        assert kernel_rows(heat_3d()) == 5

    def test_streamed_arrays(self):
        assert streamed_arrays(heat_1d()) == 2
        assert streamed_arrays(apop()) == 3


class TestDltExecutor:
    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    def test_1d_matches_reference(self, boundary):
        spec = heat_1d()
        grid = Grid.random((128,), boundary=boundary, seed=30)
        out = dlt_run(spec, grid, 6, vl=4)
        assert_allclose(out, reference_run(spec, grid, 6))

    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    def test_2d_matches_reference(self, boundary):
        spec = box_2d9p()
        grid = Grid.random((20, 32), boundary=boundary, seed=31)
        out = dlt_run(spec, grid, 4, vl=4)
        assert_allclose(out, reference_run(spec, grid, 4))

    def test_3d_matches_reference(self):
        spec = heat_3d()
        grid = Grid.random((8, 10, 16), seed=32)
        out = dlt_run(spec, grid, 3, vl=4)
        assert_allclose(out, reference_run(spec, grid, 3))

    def test_nonlinear_apop_in_dlt_layout(self):
        case = BENCHMARKS["apop"]
        grid = case.make_grid((256,))
        out = dlt_run(case.spec, grid, 5, vl=4)
        assert_allclose(out, reference_run(case.spec, grid, 5))

    def test_game_of_life_in_dlt_layout(self):
        case = BENCHMARKS["game-of-life"]
        grid = case.make_grid((24, 32))
        out = dlt_run(case.spec, grid, 4, vl=4)
        assert_allclose(out, reference_run(case.spec, grid, 4))

    def test_requires_divisible_innermost_extent(self):
        with pytest.raises(ValueError):
            dlt_run(heat_1d(), Grid.random((30,)), 1, vl=4)


class TestProfiles:
    @pytest.mark.parametrize("isa", ["avx2", "avx512"])
    def test_registry_builds_every_method(self, benchmark_case, isa):
        for method in METHOD_KEYS:
            profile = build_profile(method, benchmark_case.spec, isa)
            assert profile.flops_per_point == 2 * benchmark_case.spec.npoints - 1
            assert profile.counts_per_point.total > 0
            assert profile.method == method
            assert METHOD_LABELS[method]

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            build_profile("yask", heat_1d())

    def test_multiple_loads_has_most_loads(self):
        spec = box_2d9p()
        ml = profile_multiple_loads(spec)
        dr = profile_data_reorg(spec)
        dlt = profile_dlt(spec)
        ours = profile_transpose(spec)
        assert ml.counts_per_point.memory > dr.counts_per_point.memory
        assert ml.counts_per_point.memory > dlt.counts_per_point.memory
        assert ml.counts_per_point.memory > ours.counts_per_point.memory

    def test_transpose_layout_needs_fewer_shuffles_than_data_reorg(self):
        spec = box_2d9p()
        dr = profile_data_reorg(spec)
        ours = profile_transpose(spec)
        assert ours.data_organization_per_point < dr.data_organization_per_point

    def test_dlt_has_no_steady_state_shuffles_but_pays_layout_overhead(self):
        spec = box_2d9p()
        dlt = profile_dlt(spec)
        assert dlt.data_organization_per_point == 0.0
        assert dlt.layout_overhead_sweeps == 2.0
        assert dlt.extra_arrays == 1

    def test_folded_halves_sweeps_for_boxes(self):
        profile = profile_folded(box_2d9p(), m=2)
        assert profile.sweeps_per_step == pytest.approx(0.5)
        assert "folding" in profile.notes

    def test_folded_falls_back_for_star_and_nonlinear(self):
        star = profile_folded(heat_2d(), m=2)
        assert "in-register" in star.notes
        assert star.sweeps_per_step == pytest.approx(0.5)
        life = profile_folded(game_of_life(), m=2)
        assert "non-linear" in life.notes

    def test_folded_never_does_more_arithmetic_than_transpose(self, benchmark_case):
        base = profile_transpose(benchmark_case.spec)
        folded = profile_folded(benchmark_case.spec, m=2)
        assert folded.arithmetic_per_point <= base.arithmetic_per_point + 1e-9

    def test_apop_profiles_count_the_payoff_stream(self):
        profile = profile_multiple_loads(apop())
        assert profile.arrays == 3

    def test_avx512_reduces_per_point_instructions(self):
        spec = box_2d9p()
        for builder in (profile_multiple_loads, profile_data_reorg, profile_dlt, profile_transpose):
            avx2 = builder(spec, "avx2")
            avx512 = builder(spec, "avx512")
            assert avx512.counts_per_point.total < avx2.counts_per_point.total

    def test_sdsl_profile_composition(self):
        spec = box_2d9p()
        config = SplitTilingConfig(block_size=128, time_range=8)
        profile = profile_sdsl(
            spec, "avx2", config, (5000, 5000), XEON_GOLD_6140_AVX2, hybrid_blocks=(128, 128)
        )
        assert profile.method == "sdsl"
        assert profile.temporal_cache_reuse  # split tiling contributed reuse factors
        assert profile.extra_arrays == 1

    def test_with_tiling_does_not_mutate_original(self):
        base = profile_dlt(box_2d9p())
        tiled = base.with_tiling({"L3": 16.0, "Memory": 16.0})
        assert base.temporal_cache_reuse == {}
        assert tiled.temporal_cache_reuse["Memory"] == 16.0

    def test_folded_rejects_bad_unroll(self):
        with pytest.raises(ValueError):
            profile_folded(box_2d9p(), m=0)
