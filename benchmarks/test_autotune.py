"""Autotuner acceptance benchmark: tuned vs hand-picked configurations.

Runs the staged tuner (predict-only, ``budget=0`` — the ranking is the IR
cost model's, so the figures are machine-independent and deterministic)
over every linear library stencil on both ISAs and compares the tuned
winner's predicted cycles per point against the best hand-picked
study-table configuration (each method at ``m=2``), scored through the
same cached estimate path.  Asserts the acceptance bar (tuned at or below
hand-picked, at least half the space pruned before measurement) and emits
``BENCH_autotune.json`` into ``bench-out/``.  CI gates the next PR on
the emitted cases through ``benchmarks/check_perf_trajectory.py
--autotune``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_artifact
from repro.harness.experiments import autotune_lineup
from repro.stencils.library import BENCHMARKS, get_benchmark

#: Acceptance bar: tuned predicted cost / hand-picked predicted cost must
#: stay at or below 1 (improvement = hand/tuned >= 1).
MIN_IMPROVEMENT = 1.0

#: Acceptance bar: share of the space eliminated before measurement.
MIN_PRUNED_FRACTION = 0.5

LINEAR_STENCILS = tuple(key for key in BENCHMARKS if get_benchmark(key).spec.linear)


@pytest.fixture(scope="module")
def artifact():
    """Collects per-case results and writes BENCH_autotune.json on teardown."""
    results = {}
    yield results
    payload = {
        "benchmark": "autotune-lineup",
        "unit": "cycles-per-point (modelled)",
        "cases": results,
    }
    write_artifact("BENCH_autotune.json", payload)


@pytest.fixture(scope="module")
def lineup_rows():
    result = autotune_lineup(stencils=LINEAR_STENCILS)
    return {(row["stencil"], row["isa"]): row for row in result.rows}


@pytest.mark.parametrize("stencil", LINEAR_STENCILS)
@pytest.mark.parametrize("isa", ("avx2", "avx512"))
def test_tuned_beats_hand_picked(stencil, isa, lineup_rows, artifact):
    row = lineup_rows[(stencil, isa)]
    assert row["tuned_cycles_per_point"] <= row["hand_picked_cycles_per_point"] + 1e-12, (
        f"{stencil}/{isa}: tuned {row['tuned_cycles_per_point']:.3f} worse than "
        f"hand-picked {row['hand_picked_cycles_per_point']:.3f}"
    )
    assert row["improvement"] >= MIN_IMPROVEMENT
    assert row["pruned_fraction"] >= MIN_PRUNED_FRACTION
    artifact[f"{stencil}-{isa}"] = {
        "kind": "autotune",
        "stencil": stencil,
        "isa": isa,
        "tuned_method": row["tuned_method"],
        "tuned_m": row["tuned_m"],
        "tuned_cycles_per_point": row["tuned_cycles_per_point"],
        "hand_picked_method": row["hand_picked_method"],
        "hand_picked_cycles_per_point": row["hand_picked_cycles_per_point"],
        "improvement": row["improvement"],
        "candidates": row["candidates"],
        "pruned_fraction": row["pruned_fraction"],
    }
