"""The study-based experiments against recorded rows, and on any machine.

The harness experiments are declarative :mod:`repro.study` definitions over
the model layer.  These tests pin them down:

* each experiment produces the rows recorded in
  ``golden_experiment_rows.json`` (release 1.17, when they still equalled
  the pre-study loops row for row): floats to a relative 1e-12, every other
  value exactly, so a change to the model shows as a changed row;
* the memoization cache must demonstrably avoid recomputing repeated
  (spec, method, isa, machine) cells;
* any :class:`~repro.machine.MachineSpec` must be sweepable, with the core
  counts of the scalability experiment derived from the machine.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness.experiments import (
    SCALABILITY_CORES,
    SEQUENTIAL_METHODS,
    STORAGE_LEVELS,
    collects_analysis,
    figure8,
    figure9,
    figure10,
    table2,
    table3,
)
from repro.machine import machine_for_isa, scalability_cores
from repro.study import EvalCache

GOLDEN_ROWS = json.loads(Path(__file__).with_name("golden_experiment_rows.json").read_text())

#: The experiment call behind each entry of ``golden_experiment_rows.json``.
GOLDEN_CALLS = {
    "figure8-avx2": lambda: figure8(isa="avx2"),
    "figure8-avx512": lambda: figure8(isa="avx512"),
    "table2": table2,
    "figure9": figure9,
    "figure10-subset": lambda: figure10(
        cores_list=(1, 8, 36), benchmarks=("1d-heat", "apop", "3d27p")
    ),
    "table3-subset": lambda: table3(benchmarks=("1d-heat", "gb")),
    "collects-m2": lambda: collects_analysis(m=2),
    "collects-m3": lambda: collects_analysis(m=3),
}


# --------------------------------------------------------------------------- #
# the recorded rows
# --------------------------------------------------------------------------- #
class TestGoldenRows:
    # An entry on one side only fails its lookup on the other.
    @pytest.mark.parametrize("name", sorted(GOLDEN_CALLS.keys() | GOLDEN_ROWS.keys()))
    def test_rows_equal_the_recorded_ones(self, name):
        rows, golden = GOLDEN_CALLS[name]().rows, GOLDEN_ROWS[name]
        assert [list(row) for row in rows] == [list(row) for row in golden]
        for row, expected in zip(rows, golden):
            for key, want in expected.items():
                got = row[key]
                if isinstance(want, float):
                    assert got == pytest.approx(want, rel=1e-12), (key, row)
                else:
                    assert type(got) is type(want) and got == want, (key, row)

    def test_figure8_notes_and_defaults(self):
        result = figure8()
        assert result.name == "figure8"
        assert result.notes == "stencil=1d-heat, isa=avx2"
        assert len(result.rows) == 2 * len(STORAGE_LEVELS) * len(SEQUENTIAL_METHODS)

    def test_figure10_default_cores_match_paper_sweep(self):
        assert SCALABILITY_CORES == (1, 2, 4, 8, 12, 18, 24, 30, 36)
        result = figure10(benchmarks=("1d-heat",))
        cores = [r["cores"] for r in result.rows if r["method"] == "folded"]
        assert cores == list(SCALABILITY_CORES)


# --------------------------------------------------------------------------- #
# memoization
# --------------------------------------------------------------------------- #
class TestCaching:
    def test_figure10_memoizes_profiles_across_core_counts(self):
        cache = EvalCache()
        figure10(benchmarks=("2d9p",), cores_list=(1, 2, 4, 8), machine=None, cache=cache)
        stats = cache.stats
        # 5 series × 4 core counts = 20 cells, but only 5 profiles (one per
        # series) are ever built; the rest of the misses are the 20 distinct
        # multicore estimates.
        assert stats.misses == 5 + 20
        assert stats.hits == 15  # profile reuse across the other core counts

    def test_shared_cache_across_experiments_avoids_recompute(self):
        cache = EvalCache()
        first = figure8(cache=cache)
        baseline = cache.stats
        second = figure8(cache=cache)
        assert second.rows == first.rows
        after = cache.stats
        assert after.misses == baseline.misses  # nothing recomputed
        assert after.hits > baseline.hits

    def test_table2_replays_figure8_cells(self):
        cache = EvalCache()
        figure8(time_steps_values=(1000,), cache=cache)
        misses_before = cache.stats.misses
        table2(cache=cache)
        assert cache.stats.misses == misses_before


# --------------------------------------------------------------------------- #
# machine generalisation
# --------------------------------------------------------------------------- #
def _small_machine():
    base = machine_for_isa("avx2")
    return dataclasses.replace(
        base, name="Mini (AVX-2)", cores_per_socket=4, sockets=2
    )


class TestCustomMachine:
    def test_figure8_respects_custom_cache_hierarchy(self):
        small = dataclasses.replace(
            _small_machine(),
            caches=tuple(
                dataclasses.replace(lvl, capacity_bytes=lvl.capacity_bytes // 2)
                for lvl in machine_for_isa("avx2").caches
            ),
        )
        default = figure8()
        custom = figure8(machine=small)
        assert len(custom.rows) == len(default.rows)
        # Problem sizes derive from the machine's own cache capacities.
        for row_default, row_custom in zip(default.rows, custom.rows):
            if row_default["level"] != "Memory":
                assert row_custom["npoints"] == row_default["npoints"] // 2

    def test_figure10_derives_core_sweep_from_machine(self):
        small = _small_machine()
        result = figure10(benchmarks=("1d-heat",), machine=small)
        cores = sorted({r["cores"] for r in result.rows})
        assert cores == list(scalability_cores(small))
        assert max(cores) == small.total_cores == 8

    def test_figure9_runs_both_isa_variants_of_custom_machine(self):
        small = _small_machine()
        result = figure9(machine=small)
        assert {r["isa"] for r in result.rows} == {"avx2", "avx512"}
        assert len({r["benchmark"] for r in result.rows}) == 9

    def test_custom_machine_spec_identity_round_trips(self):
        from repro.harness.experiments import _multicore_machines
        from repro.machine import isa_variant

        small512 = isa_variant(_small_machine(), "avx512")
        avx2, avx512 = _multicore_machines(small512)
        # The caller's own variant is kept verbatim (cache keys, provenance).
        assert avx512 == small512
        # Repeated derivation never stacks name suffixes.
        assert isa_variant(avx2, "avx512") == avx512
        assert "[avx2] [avx512]" not in isa_variant(avx2, "avx512").name

    def test_empty_selections_yield_empty_results(self):
        assert figure10(benchmarks=()).rows == []
        assert figure10(cores_list=()).rows == []
        assert figure8(time_steps_values=()).rows == []
        assert [r["method"] for r in table3(benchmarks=()).rows] == [
            "SDSL", "Tessellation", "Our", "Our (2 steps)", "folded_avx512",
        ]

    def test_table3_on_custom_machine_is_physical(self):
        small = _small_machine()
        result = table3(machine=small)
        assert "8 cores" in result.description
        for row in result.rows:
            for key, value in row.items():
                if key == "method" or value is None:
                    continue
                assert 1.0 <= value <= 8.0
