"""Tests for the tiling configurations (repro.tiling).

Tiling is a model and tuner axis: ``compile()`` validates a plan's tiling,
``estimate()`` and the tuner price it, and ``run()`` executes untiled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import plan
from repro.machine import XEON_GOLD_6140_AVX2
from repro.methods import METHOD_KEYS
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.library import BENCHMARKS, heat_1d, heat_2d
from repro.stencils.reference import reference_run
from repro.tiling.splittiling import SplitTilingConfig, split_tiling_cache_reuse
from repro.tiling.tessellate import TessellationConfig, cache_reuse_factors
from tests.test_fold_kernel import bits


class TestTessellationSchedule:
    """The configured tessellation is validated by ``compile()``."""

    def test_config_validation(self):
        TessellationConfig(block_sizes=(16,), time_range=4).validate(1, radius=1)
        TessellationConfig(block_sizes=(16, None), time_range=4).validate(2, radius=2)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16,), time_range=0).validate(1, 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16,), time_range=16).validate(1, 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(16, 16), time_range=2).validate(1, 1)
        with pytest.raises(ValueError):
            TessellationConfig(block_sizes=(0,), time_range=1).validate(1, 0)

    @pytest.mark.parametrize(
        "spec_factory,blocks,time_range,match",
        [
            (heat_1d, (16,), 0, "time_range"),
            (heat_1d, (16, 16), 2, "one entry per dimension"),
            (heat_2d, (16,), 2, "one entry per dimension"),
            (heat_2d, (16, 6), 4, "too small"),
            (heat_2d, (16, -8), 1, "positive"),
        ],
    )
    def test_illegal_tiling_fails_at_compile(self, spec_factory, blocks, time_range, match):
        builder = plan(spec_factory()).method("transpose").tile(blocks, time_range)
        with pytest.raises(ValueError, match=match):
            builder.compile()

    def test_legal_tiling_runs_on_a_grid_its_blocks_do_not_divide(self):
        case = BENCHMARKS["2d-heat"]
        grid = case.make_grid((50, 38), seed=3)
        p = plan(case.spec).method("transpose").tile((16, 16), 4).compile()
        np.testing.assert_array_equal(bits(p.run(grid, 9)), bits(reference_run(case.spec, grid, 9)))
        assert p.estimate((50, 38), 9, cores=2).gflops > 0


#: (benchmark key, grid shape, tiling): one 1-D, 2-D and 3-D library stencil
#: and the two non-linear ones; no block divides its extent.
TILED_CASES = [
    ("1d5p", (64,), TessellationConfig((20,), 3)),
    ("2d9p", (24, 24), TessellationConfig((10, 10), 3)),
    ("3d27p", (12, 12, 12), TessellationConfig((5, 5, 5), 2)),
    ("game-of-life", (24, 24), TessellationConfig((10, 10), 3)),
    ("apop", (128,), TessellationConfig((24,), 4)),
]


class TestTilingNeverChangesRun:
    """A tiling selects no execution path: every executable method returns
    the same bits for a plan tiled and untiled.  Every method compiles for
    every one of these stencils."""

    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    @pytest.mark.parametrize("key,shape,tiling", TILED_CASES, ids=[c[0] for c in TILED_CASES])
    @pytest.mark.parametrize("method", ("reference",) + METHOD_KEYS)
    def test_tiled_run_is_untiled_run(self, method, key, shape, tiling, boundary):
        case = BENCHMARKS[key]
        grid = case.make_grid(shape, seed=47)
        grid.boundary = boundary
        untiled = plan(case.spec).method(method).compile()
        tiled = plan(case.spec).method(method).tile(tiling).compile()
        np.testing.assert_array_equal(bits(tiled.run(grid, 7)), bits(untiled.run(grid, 7)))


class TestSplitTiling:
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
