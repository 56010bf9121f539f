"""Tests for the analytic cache model (repro.cache)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache.analytic import (
    STREAM_BYTES_NO_ALLOCATE,
    STREAM_BYTES_PER_POINT,
    estimate_traffic,
    neighborhood_working_set_bytes,
    problem_size_for_level,
    residency_level,
    sweep_reuse_level,
)
from repro.machine import XEON_GOLD_6140_AVX2, CacheLevelSpec


class TestNeighbourhoodWorkingSet:
    def test_slab_grows_with_dimensionality(self):
        # Same point count: the 3-D reuse slab (planes) dwarfs the 2-D one
        # (rows), which dwarfs the 1-D one (points).
        w1 = neighborhood_working_set_bytes((4096,), 1)
        w2 = neighborhood_working_set_bytes((64, 64), 1)
        w3 = neighborhood_working_set_bytes((16, 16, 16), 1)
        assert w1 < w2 < w3

    def test_paper_scale_3d_slab_spills_to_l3(self):
        m = XEON_GOLD_6140_AVX2
        assert sweep_reuse_level((400, 400, 400), m, 1) == "L3"
        assert sweep_reuse_level((5000, 5000), m, 1) == "L2"
        assert sweep_reuse_level((10_240_000,), m, 1) == "L1"

    def test_validation(self):
        with pytest.raises(ValueError):
            neighborhood_working_set_bytes((0, 4), 1)
        with pytest.raises(ValueError):
            neighborhood_working_set_bytes((4, 4), -1)


class TestAnalyticModel:
    def test_residency_levels(self):
        m = XEON_GOLD_6140_AVX2
        assert residency_level(8 * 1024, m) == "L1"
        assert residency_level(512 * 1024, m) == "L2"
        assert residency_level(10 * 1024 * 1024, m) == "L3"
        assert residency_level(200 * 1024 * 1024, m) == "Memory"

    def test_residency_respects_l3_sharing(self):
        m = XEON_GOLD_6140_AVX2
        assert residency_level(10 * 1024 * 1024, m, cores_sharing_l3=18) == "Memory"

    def test_traffic_zero_beyond_residency(self):
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(8 * 1024, m)
        assert est.residency == "L1"
        assert est.bytes_from("L3") == 0.0
        assert est.dram_bytes_per_point_per_step == 0.0

    def test_memory_resident_traffic_is_streaming(self):
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(200 * 1024 * 1024, m)
        assert est.dram_bytes_per_point_per_step == pytest.approx(STREAM_BYTES_PER_POINT)

    def test_temporal_reuse_divides_traffic(self):
        m = XEON_GOLD_6140_AVX2
        plain = estimate_traffic(200 * 1024 * 1024, m)
        tiled = estimate_traffic(200 * 1024 * 1024, m, temporal_reuse={"Memory": 10.0})
        assert tiled.dram_bytes_per_point_per_step == pytest.approx(
            plain.dram_bytes_per_point_per_step / 10.0
        )

    def test_folding_halves_sweeps(self):
        m = XEON_GOLD_6140_AVX2
        folded = estimate_traffic(200 * 1024 * 1024, m, sweeps_per_step=0.5)
        assert folded.dram_bytes_per_point_per_step == pytest.approx(STREAM_BYTES_PER_POINT / 2)

    def test_layout_overhead_always_hits_dram(self):
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(8 * 1024, m, extra_memory_sweeps_per_step=0.002)
        assert est.dram_bytes_per_point_per_step > 0.0

    def test_problem_size_for_level(self):
        m = XEON_GOLD_6140_AVX2
        n_l1 = problem_size_for_level(m, "L1")
        n_l2 = problem_size_for_level(m, "L2")
        n_mem = problem_size_for_level(m, "Memory")
        assert n_l1 < n_l2 < n_mem
        assert residency_level(n_l1 * 16.0, m) == "L1"
        assert residency_level(n_mem * 16.0, m) == "Memory"
        with pytest.raises(KeyError):
            problem_size_for_level(m, "L9")

    def test_invalid_inputs(self):
        m = XEON_GOLD_6140_AVX2
        with pytest.raises(ValueError):
            estimate_traffic(0, m)
        with pytest.raises(ValueError):
            estimate_traffic(100, m, sweeps_per_step=0)
        with pytest.raises(ValueError):
            residency_level(-5, m)


#: A two-level machine (private L1, shared last-level L2, no L3): the model
#: must take its levels, capacities and sharing from the machine it is given.
TWO_LEVEL = replace(
    XEON_GOLD_6140_AVX2,
    name="two-level",
    caches=(
        CacheLevelSpec("L1", 48 * 1024, 64, 12, 5, 96.0),
        CacheLevelSpec("L2", 2 * 1024 * 1024, 64, 16, 30, 32.0, shared=True),
    ),
)

PAPER_LEVELS = [lvl.name for lvl in XEON_GOLD_6140_AVX2.caches]


def _resident_in(machine, level: str) -> float:
    """A working set (bytes) whose residency on ``machine`` is ``level``."""
    if level == "Memory":
        return 4.0 * machine.caches[-1].capacity_bytes
    return float(machine.cache_level(level).capacity_bytes)


class TestResidencyBoundaries:
    @pytest.mark.parametrize("index", range(len(PAPER_LEVELS)))
    def test_capacity_is_inclusive(self, index):
        # A working set of exactly the capacity stays in the level; one byte
        # more falls to the next one (the Figure 8 sizes sit on this edge).
        m = XEON_GOLD_6140_AVX2
        level = m.caches[index]
        outer = PAPER_LEVELS[index + 1] if index + 1 < len(PAPER_LEVELS) else "Memory"
        assert residency_level(level.capacity_bytes, m) == level.name
        assert residency_level(level.capacity_bytes + 1, m) == outer

    def test_sharing_divides_only_shared_levels(self):
        m = XEON_GOLD_6140_AVX2
        l1, l2, l3 = (lvl.capacity_bytes for lvl in m.caches)
        for cores in (2, 18, m.total_cores):
            assert residency_level(l1, m, cores_sharing_l3=cores) == "L1"
            assert residency_level(l2, m, cores_sharing_l3=cores) == "L2"
            slice_bytes = l3 / cores
            if slice_bytes > l2:
                assert residency_level(slice_bytes, m, cores_sharing_l3=cores) == "L3"
                assert residency_level(slice_bytes + 1, m, cores_sharing_l3=cores) == "Memory"
            else:
                # A slice smaller than the private L2 holds nothing L2 cannot.
                assert residency_level(l2 + 1, m, cores_sharing_l3=cores) == "Memory"

    def test_levels_come_from_the_machine(self):
        assert residency_level(48 * 1024, TWO_LEVEL) == "L1"
        assert residency_level(48 * 1024 + 1, TWO_LEVEL) == "L2"
        assert residency_level(2 * 1024 * 1024 + 1, TWO_LEVEL) == "Memory"
        # Its last level is the shared one, so a 4-core slice is a quarter.
        assert residency_level(512 * 1024, TWO_LEVEL, cores_sharing_l3=4) == "L2"
        assert residency_level(512 * 1024 + 1, TWO_LEVEL, cores_sharing_l3=4) == "Memory"


class TestTrafficPerBoundary:
    @pytest.mark.parametrize("residency", PAPER_LEVELS + ["Memory"])
    def test_streaming_traffic_up_to_the_residency_level(self, residency):
        # Every level from L2 out to the residency level serves one full
        # stream per sweep; the levels beyond it serve nothing.  L1 is left
        # to the instruction-level model.
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(_resident_in(m, residency), m)
        assert est.residency == residency
        names = PAPER_LEVELS + ["Memory"]
        assert set(est.per_level) == set(names[1:])
        inside = names.index(residency)
        for index, name in enumerate(names[1:], start=1):
            expected = STREAM_BYTES_PER_POINT if index <= inside else 0.0
            assert est.bytes_from(name) == expected, name

    def test_reuse_factors_below_one_never_amplify(self):
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(_resident_in(m, "Memory"), m, temporal_reuse={"Memory": 0.25})
        assert est.dram_bytes_per_point_per_step == STREAM_BYTES_PER_POINT

    def test_reuse_applies_per_level(self):
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(
            _resident_in(m, "Memory"), m, temporal_reuse={"L3": 2.0, "Memory": 8.0}
        )
        assert est.bytes_from("L2") == STREAM_BYTES_PER_POINT
        assert est.bytes_from("L3") == STREAM_BYTES_PER_POINT / 2.0
        assert est.bytes_from("Memory") == STREAM_BYTES_PER_POINT / 8.0

    def test_reuse_beyond_the_residency_level_changes_nothing(self):
        m = XEON_GOLD_6140_AVX2
        plain = estimate_traffic(_resident_in(m, "L2"), m)
        tiled = estimate_traffic(_resident_in(m, "L2"), m, temporal_reuse={"Memory": 10.0})
        assert tiled.per_level == plain.per_level
        assert tiled.dram_bytes_per_point_per_step == 0.0

    def test_layout_sweeps_are_charged_without_write_allocate(self):
        m = XEON_GOLD_6140_AVX2
        cached = estimate_traffic(_resident_in(m, "L1"), m, extra_memory_sweeps_per_step=0.25)
        assert cached.per_level == {
            "L2": 0.0,
            "L3": 0.0,
            "Memory": STREAM_BYTES_NO_ALLOCATE * 0.25,
        }
        streamed = estimate_traffic(_resident_in(m, "Memory"), m, extra_memory_sweeps_per_step=0.25)
        assert streamed.dram_bytes_per_point_per_step == (
            STREAM_BYTES_PER_POINT + STREAM_BYTES_NO_ALLOCATE * 0.25
        )

    def test_stream_bytes_and_sweeps_scale_every_boundary(self):
        # Three arrays with write-allocate (32 B/point) folded two steps per
        # sweep: 16 B/point/step on every boundary out to memory.
        m = XEON_GOLD_6140_AVX2
        est = estimate_traffic(
            _resident_in(m, "Memory"), m, sweeps_per_step=0.5, stream_bytes_per_point=32.0
        )
        assert est.per_level == {"L2": 16.0, "L3": 16.0, "Memory": 16.0}

    def test_l3_sharing_moves_the_traffic_to_dram(self):
        m = XEON_GOLD_6140_AVX2
        alone = estimate_traffic(10 * 1024 * 1024, m)
        shared = estimate_traffic(10 * 1024 * 1024, m, cores_sharing_l3=18)
        assert (alone.residency, alone.dram_bytes_per_point_per_step) == ("L3", 0.0)
        assert (shared.residency, shared.dram_bytes_per_point_per_step) == (
            "Memory",
            STREAM_BYTES_PER_POINT,
        )

    def test_estimate_on_a_two_level_machine(self):
        est = estimate_traffic(_resident_in(TWO_LEVEL, "Memory"), TWO_LEVEL)
        assert est.per_level == {"L2": STREAM_BYTES_PER_POINT, "Memory": STREAM_BYTES_PER_POINT}
        assert est.bytes_from("L3") == 0.0
        assert est.working_set_bytes == 4.0 * 2 * 1024 * 1024


class TestReuseSlab:
    @pytest.mark.parametrize(
        "shape,radius,expected_elements",
        [((1000,), 2, 5), ((500, 64), 1, 3 * 64), ((50, 20, 30), 2, 5 * 20 * 30)],
        ids=["1d", "2d", "3d"],
    )
    def test_slab_is_2r_plus_1_leading_entries(self, shape, radius, expected_elements):
        # The leading extent never enters: only 2r + 1 of its entries are live.
        assert neighborhood_working_set_bytes(shape, radius) == 8.0 * expected_elements
        longer = (7 * shape[0],) + shape[1:]
        assert neighborhood_working_set_bytes(longer, radius) == 8.0 * expected_elements
        assert neighborhood_working_set_bytes(shape, radius, itemsize=4) == 4.0 * expected_elements

    def test_sharing_l3_pushes_the_paper_3d_slab_to_memory(self):
        m = XEON_GOLD_6140_AVX2
        assert sweep_reuse_level((400, 400, 400), m, 1) == "L3"
        assert sweep_reuse_level((400, 400, 400), m, 1, cores_sharing_l3=18) == "Memory"


class TestProblemSizes:
    @pytest.mark.parametrize("level", PAPER_LEVELS + ["Memory"])
    @pytest.mark.parametrize("bytes_per_point", [16.0, 24.0])
    def test_size_lands_in_its_level(self, level, bytes_per_point):
        m = XEON_GOLD_6140_AVX2
        n = problem_size_for_level(m, level, bytes_per_point=bytes_per_point)
        assert residency_level(n * bytes_per_point, m) == level

    def test_fill_fraction(self):
        m = XEON_GOLD_6140_AVX2
        l2 = m.cache_level("L2").capacity_bytes
        assert problem_size_for_level(m, "L2", fill_fraction=1.0) == l2 // 16
        assert problem_size_for_level(m, "L2", fill_fraction=0.25) == l2 // 64
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                problem_size_for_level(m, "L2", fill_fraction=bad)

    def test_memory_size_is_four_last_level_caches(self):
        assert problem_size_for_level(TWO_LEVEL, "Memory") == 4 * 2 * 1024 * 1024 // 16
        with pytest.raises(KeyError):
            problem_size_for_level(TWO_LEVEL, "L3")
