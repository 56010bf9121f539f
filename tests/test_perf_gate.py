"""The perf-trajectory gate script (``benchmarks/check_perf_trajectory.py``).

CI runs it on the fresh benchmark artifacts; these tests feed its
``check()`` and ``check_passes()`` small synthetic artifacts, so a change to
a gate fails here before it silently passes or blocks CI:

* a baseline case that disappeared fails, unless ``RETIRED_CASES`` names it;
* a pass-ablation case fails on ``count_reduction <= 1``, or on
  ``replay_speedup`` or ``native_speedup`` below the 0.9 noise floor, and
  may skip the native ratio only with a recorded reason;
* ``--passes`` fails when the best count reduction is below 1.15.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_perf_trajectory.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ablation(count=1.2, replay=1.0, native=1.0):
    return {
        "kind": "pass-ablation",
        "count_reduction": count,
        "replay_speedup": replay,
        "native_speedup": native,
    }


def _artifact(**ablation):
    """Trace cases covering 2-D and 3-D plus one pass-ablation case."""
    return {
        "2d9p-256x256x8": {"speedup": 400.0},
        "3d-heat-16x16x16x4": {"speedup": 300.0},
        "pass-ablation-3d-heat-avx512": _ablation(**ablation),
    }


def test_a_healthy_artifact_passes(gate):
    current = _artifact()
    assert gate.check(current, dict(current), gate.MIN_SPEEDUP) == []
    assert gate.check_passes(current, gate.MIN_PASS_COUNT_REDUCTION) == []


def test_a_missing_retired_case_passes(gate):
    (retired,) = gate.RETIRED_CASES
    baseline = {**_artifact(), retired: _ablation()}
    assert gate.check(_artifact(), baseline, gate.MIN_SPEEDUP) == []


def test_any_other_missing_case_fails(gate):
    baseline = {**_artifact(), "pass-ablation-2d9p-avx2": _ablation()}
    (problem,) = gate.check(_artifact(), baseline, gate.MIN_SPEEDUP)
    assert "'pass-ablation-2d9p-avx2' present in the baseline has disappeared" in problem


@pytest.mark.parametrize(
    "ablation,message",
    [
        ({"count": 1.0}, "no longer reduces the instruction count"),
        ({"replay": 0.89}, "optimized replay 0.89x is below the 0.90x noise floor"),
        ({"native": 0.89}, "optimized native 0.89x is below the 0.90x noise floor"),
    ],
    ids=["count", "replay", "native"],
)
def test_a_pass_ablation_case_below_a_floor_fails(gate, ablation, message):
    current = _artifact(**ablation)
    (problem,) = gate.check(current, {}, gate.MIN_SPEEDUP)
    assert message in problem


def test_native_speedup_may_only_be_missing_with_a_reason(gate):
    current = _artifact()
    del current["pass-ablation-3d-heat-avx512"]["native_speedup"]
    (problem,) = gate.check(current, {}, gate.MIN_SPEEDUP)
    assert "optimized native 0.00x" in problem
    current["pass-ablation-3d-heat-avx512"]["native_skip_reason"] = "no C compiler on PATH"
    assert gate.check(current, {}, gate.MIN_SPEEDUP) == []


def test_passes_needs_a_best_count_reduction_of_1_15(gate):
    assert gate.MIN_PASS_COUNT_REDUCTION == 1.15
    (problem,) = gate.check_passes(_artifact(count=1.14), gate.MIN_PASS_COUNT_REDUCTION)
    assert "best instruction-count reduction 1.140x is below the 1.15x floor" in problem
    assert gate.check_passes(_artifact(count=1.15), gate.MIN_PASS_COUNT_REDUCTION) == []
