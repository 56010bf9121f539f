"""Tests for the tiling frameworks (repro.tiling)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import XEON_GOLD_6140_AVX2
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import (
    BENCHMARKS,
    box_1d5p,
    box_2d9p,
    game_of_life,
    heat_1d,
    heat_2d,
    heat_3d,
)
from repro.stencils.reference import reference_run
from repro.tiling.schedule import TileSchedule
from repro.tiling.splittiling import SplitTilingConfig, split_tiling_cache_reuse, split_tiling_run
from repro.tiling.tessellate import (
    TessellationConfig,
    build_tessellation,
    cache_reuse_factors,
    tessellate_run,
)
from repro.utils.validation import assert_allclose


class TestTessellationSchedule:
    def test_config_validation(self):
        cfg = TessellationConfig(block_sizes=(16,), time_range=4)
        cfg.validate((64,), radius=1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16,), time_range=0).validate((64,), 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(15,), time_range=4).validate((64,), 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16,), time_range=16).validate((64,), 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16, 16), time_range=2).validate((64,), 1)

    def test_stage_count_is_dims_plus_one(self):
        sched1 = build_tessellation((64,), 1, TessellationConfig((16,), 4))
        assert len(sched1.stages) == 2
        sched2 = build_tessellation((32, 32), 1, TessellationConfig((16, 16), 4))
        assert len(sched2.stages) == 3
        sched3 = build_tessellation((16, 16, 16), 1, TessellationConfig((8, 8, 8), 2))
        assert len(sched3.stages) == 4

    def test_no_redundant_computation(self):
        """Tessellation updates every point exactly once per time step."""
        sched = build_tessellation((32, 32), 1, TessellationConfig((16, 16), 4))
        assert sched.points_updated() == sched.expected_points()

    def test_coverage_is_exact_per_step(self):
        """Every (point, step) pair is written by exactly one tile region."""
        shape = (24, 24)
        sched = build_tessellation(shape, 1, TessellationConfig((12, 12), 3))
        for t in range(sched.time_range):
            covered = np.zeros(shape, dtype=int)
            for tile in sched.all_tiles():
                for region in tile.steps[t]:
                    slices = tuple(slice(a, b) for a, b in region)
                    covered[slices] += 1
            assert np.all(covered == 1), f"step {t + 1} not covered exactly once"

    def test_same_stage_tiles_are_disjoint_at_every_step(self):
        sched = build_tessellation((32, 32), 1, TessellationConfig((16, 16), 4))
        for stage in sched.stages:
            for t in range(sched.time_range):
                covered = np.zeros((32, 32), dtype=int)
                for tile in stage.tiles:
                    for region in tile.steps[t]:
                        slices = tuple(slice(a, b) for a, b in region)
                        covered[slices] += 1
                assert covered.max() <= 1

    def test_dirichlet_has_extra_edge_tiles(self):
        periodic = build_tessellation(
            (64,), 1, TessellationConfig((16,), 4), BoundaryCondition.PERIODIC
        )
        dirichlet = build_tessellation(
            (64,), 1, TessellationConfig((16,), 4), BoundaryCondition.DIRICHLET
        )
        assert dirichlet.num_tiles == periodic.num_tiles + 1

    def test_streamed_dimension(self):
        sched = build_tessellation((32, 64), 1, TessellationConfig((16, None), 4))
        assert len(sched.stages) == 2  # only one dimension contributes inverted tiles
        assert sched.points_updated() == sched.expected_points()

    def test_max_concurrency(self):
        sched = build_tessellation((64,), 1, TessellationConfig((16,), 4))
        assert sched.max_concurrency() == 4

    @settings(deadline=None, max_examples=20)
    @given(
        nblocks=st.integers(min_value=2, max_value=5),
        block=st.sampled_from([8, 12, 16]),
        tr=st.integers(min_value=1, max_value=4),
        radius=st.integers(min_value=1, max_value=2),
    )
    def test_coverage_property_1d(self, nblocks, block, tr, radius):
        """Property: exact single coverage holds for arbitrary feasible configs."""
        if block < 2 * radius * tr:
            tr = max(1, block // (2 * radius))
        n = nblocks * block
        sched = build_tessellation((n,), radius, TessellationConfig((block,), tr))
        assert sched.points_updated() == sched.expected_points()


class TestTessellationExecution:
    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    @pytest.mark.parametrize(
        "spec_factory,shape,blocks,tr",
        [
            (heat_1d, (64,), (16,), 4),
            (box_1d5p, (96,), (24,), 3),
            (heat_2d, (24, 24), (12, 12), 3),
            (box_2d9p, (24, 24), (12, 12), 3),
            (heat_3d, (12, 12, 12), (6, 6, 6), 3),
        ],
    )
    def test_matches_reference(self, spec_factory, shape, blocks, tr, boundary):
        spec = spec_factory()
        grid = Grid.random(shape, boundary=boundary, seed=41)
        config = TessellationConfig(block_sizes=blocks, time_range=tr)
        out = tessellate_run(spec, grid, 7, config)
        assert_allclose(out, reference_run(spec, grid, 7), context=f"{spec.name}/{boundary.value}")

    def test_nonlinear_game_of_life(self):
        spec = game_of_life()
        grid = Grid.life_random((24, 24), seed=42)
        config = TessellationConfig(block_sizes=(12, 12), time_range=3)
        out = tessellate_run(spec, grid, 6, config)
        np.testing.assert_array_equal(out, reference_run(spec, grid, 6))

    def test_apop_with_aux_array(self):
        case = BENCHMARKS["apop"]
        grid = case.make_grid((128,))
        config = TessellationConfig(block_sizes=(32,), time_range=4)
        out = tessellate_run(case.spec, grid, 9, config)
        assert_allclose(out, reference_run(case.spec, grid, 9))

    def test_steps_not_multiple_of_time_range(self):
        spec = heat_1d()
        grid = Grid.random((64,), seed=43)
        config = TessellationConfig(block_sizes=(16,), time_range=4)
        out = tessellate_run(spec, grid, 6, config)
        assert_allclose(out, reference_run(spec, grid, 6))

    def test_zero_steps(self):
        spec = heat_1d()
        grid = Grid.random((64,), seed=44)
        config = TessellationConfig(block_sizes=(16,), time_range=4)
        np.testing.assert_array_equal(tessellate_run(spec, grid, 0, config), grid.values)

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=9),
    )
    def test_execution_property_1d(self, seed, steps):
        spec = heat_1d()
        grid = Grid.random((48,), seed=seed)
        config = TessellationConfig(block_sizes=(16,), time_range=4)
        out = tessellate_run(spec, grid, steps, config)
        assert_allclose(out, reference_run(spec, grid, steps))


class TestSplitTiling:
    def test_as_tessellation(self):
        cfg = SplitTilingConfig(block_size=16, time_range=4)
        tess = cfg.as_tessellation(dims=3)
        assert tess.block_sizes == (16, None, None)
        with pytest.raises(ValueError):
            SplitTilingConfig(block_size=16, time_range=4, split_dimension=3).as_tessellation(2)

    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    def test_matches_reference_2d(self, boundary):
        spec = heat_2d()
        grid = Grid.random((32, 20), boundary=boundary, seed=45)
        out = split_tiling_run(spec, grid, 6, SplitTilingConfig(block_size=16, time_range=3))
        assert_allclose(out, reference_run(spec, grid, 6))

    def test_cache_reuse_reflects_dlt_penalty(self):
        caches = [(lvl.name, lvl.capacity_bytes) for lvl in XEON_GOLD_6140_AVX2.caches]
        cfg = SplitTilingConfig(block_size=2000, time_range=8)
        tight = split_tiling_cache_reuse(
            cfg, (10_240_000,), 1, 16.0, caches, dlt_locality_penalty=1.0
        )
        penalised = split_tiling_cache_reuse(
            cfg, (10_240_000,), 1, 16.0, caches, dlt_locality_penalty=1e6
        )
        assert tight["Memory"] > 1.0
        assert penalised["Memory"] == 1.0


class TestCacheReuseFactors:
    def _caches(self):
        return [(lvl.name, lvl.capacity_bytes) for lvl in XEON_GOLD_6140_AVX2.caches]

    def test_small_tile_reuses_everywhere_beyond_l1(self):
        cfg = TessellationConfig(block_sizes=(32, 32), time_range=8)
        reuse = cache_reuse_factors(cfg, 1, 16.0, self._caches())
        assert reuse["L1"] >= 1.0
        assert reuse["Memory"] == 8.0

    def test_untiled_dimension_disables_reuse(self):
        cfg = TessellationConfig(block_sizes=(32, None), time_range=8)
        reuse = cache_reuse_factors(cfg, 1, 16.0, self._caches())
        assert all(v == 1.0 for v in reuse.values())

    def test_huge_tile_gets_no_reuse(self):
        cfg = TessellationConfig(block_sizes=(4096, 4096), time_range=8)
        reuse = cache_reuse_factors(cfg, 1, 16.0, self._caches())
        assert reuse["Memory"] == 1.0

    def test_inner_levels_keep_per_step_traffic(self):
        # A tile that only fits in L3 should not reduce L2 traffic.
        cfg = TessellationConfig(block_sizes=(300, 300), time_range=8)
        reuse = cache_reuse_factors(cfg, 1, 16.0, self._caches())
        assert reuse["L2"] == 1.0
        assert reuse["L3"] == 8.0
        assert reuse["Memory"] == 8.0


class TestScheduleDataStructures:
    def test_tile_points_and_schedule_totals(self):
        sched = build_tessellation((32,), 1, TessellationConfig((16,), 2))
        assert isinstance(sched, TileSchedule)
        total = sum(tile.points_updated() for tile in sched.all_tiles())
        assert total == sched.points_updated() == 32 * 2
        assert sched.num_tiles == 4
