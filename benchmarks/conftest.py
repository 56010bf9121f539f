"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artefacts (a table
or a figure) through the experiment harness, times it with pytest-benchmark
and prints the resulting rows so that running

``pytest benchmarks/ --benchmark-only -s``

reproduces the paper's evaluation section in one go.  Shape assertions (who
wins, where the crossovers are) are included here as well, so a regression in
the model or the schedules fails the benchmark run, not just the unit tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.backend.codegen import wait_for_builds

#: Directory the perf-trajectory artifacts (``BENCH_*.json``) are written to.
#: It is git-ignored: the committed copies at the repository root are the
#: gate's fallback baselines and stay untouched when the suite runs.
ARTIFACT_DIR = Path(__file__).resolve().parents[1] / "bench-out"


def write_artifact(name: str, payload: Any) -> None:
    """Write ``payload`` as ``ARTIFACT_DIR/name`` (sorted, indented JSON)."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (the experiment functions are heavy)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(autouse=True)
def no_background_builds():
    """Start and end every benchmark with no kernel build running behind it.

    The default folded ``run()`` queues its native program's build on a
    background thread; a build an earlier test queued must not compete with
    a timed section for the host's cores.
    """
    wait_for_builds()
    yield
    wait_for_builds()
