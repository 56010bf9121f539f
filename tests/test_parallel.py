"""Tests for the analytic multicore model (repro.parallel.model)."""

from __future__ import annotations

import pytest

from repro.machine import XEON_GOLD_6140_AVX2, XEON_GOLD_6140_AVX512
from repro.methods import build_profile
from repro.parallel.model import MulticoreConfig, multicore_estimate
from repro.stencils.library import box_2d9p
from repro.tiling.tessellate import TessellationConfig


class TestMulticoreModel:
    def _profile(self, method="folded"):
        return build_profile(method, box_2d9p(), "avx2", m=2)

    def _gflops(self, profile, cores_list, tiling):
        """Aggregate GFLOP/s of one 5000² 2-D run for each core count."""
        return {
            cores: multicore_estimate(
                profile, (5000, 5000), 1000, XEON_GOLD_6140_AVX2, cores, 1, tiling
            ).gflops
            for cores in cores_list
        }

    def test_aggregate_gflops_grow_with_cores(self):
        tiling = TessellationConfig(block_sizes=(128, 128), time_range=16)
        cores_list = (1, 2, 4, 8, 18, 36)
        curve = self._gflops(self._profile(), cores_list, tiling)
        gflops = [curve[c] for c in cores_list]
        assert all(b >= a for a, b in zip(gflops, gflops[1:]))

    def test_speedup_bounded_by_core_count(self):
        tiling = TessellationConfig(block_sizes=(128, 128), time_range=16)
        curve = self._gflops(self._profile(), (1, 8, 36), tiling)
        assert curve[8] / curve[1] <= 8.0 + 1e-6
        assert curve[36] / curve[1] <= 36.0 + 1e-6
        assert curve[36] / curve[1] > 10.0  # compute-bound tiled kernels scale well

    def test_untiled_memory_bound_kernel_saturates(self):
        profile = build_profile("multiple_loads", box_2d9p(), "avx2")
        curve = self._gflops(profile, (1, 36), None)
        # without temporal tiling the kernel hits the bandwidth wall well
        # below linear scaling
        assert curve[36] / curve[1] < 30.0

    def test_avx512_throttling_reduces_frequency(self):
        tiling = TessellationConfig(block_sizes=(128, 128), time_range=16)
        est2 = multicore_estimate(
            build_profile("folded", box_2d9p(), "avx2", m=2),
            (5000, 5000), 1000, XEON_GOLD_6140_AVX2, 36, 1, tiling,
        )
        est5 = multicore_estimate(
            build_profile("folded", box_2d9p(), "avx512", m=2),
            (5000, 5000), 1000, XEON_GOLD_6140_AVX512, 36, 1, tiling,
        )
        assert est5.frequency_ghz < est2.frequency_ghz

    def test_sync_overhead_grows_with_cores_for_small_problems(self):
        tiling = TessellationConfig(block_sizes=(16, 16), time_range=4)
        config = MulticoreConfig(barrier_cycles=50000.0)
        small = (64, 64)
        est1 = multicore_estimate(
            self._profile(), small, 100, XEON_GOLD_6140_AVX2, 1, 1, tiling, config
        )
        est36 = multicore_estimate(
            self._profile(), small, 100, XEON_GOLD_6140_AVX2, 36, 1, tiling, config
        )
        assert est36.gflops / est36.frequency_ghz < 36 * est1.gflops / est1.frequency_ghz

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            multicore_estimate(self._profile(), (64, 64), 10, XEON_GOLD_6140_AVX2, 0, 1)
