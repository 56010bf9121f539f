"""Measured wall-clock throughput of the NumPy executors.

These are real measurements (not model numbers): the reference executor, the
folded fast path and the DLT-layout executor on a moderately sized 2-D
problem, and the folded path on the 1-D APOP option-pricing problem.  They
demonstrate that the *algorithmic* effect of temporal folding — fewer passes
over the data per logical time step — is visible even through the NumPy
substrate, and they give a downstream user a feel for the library's raw
execution speed.
"""

from __future__ import annotations

import pytest

from repro.core.plan import plan
from repro.stencils.grid import Grid
from repro.stencils.library import box_2d9p, get_benchmark
from repro.stencils.reference import reference_run

STEPS = 8
SHAPE = (256, 256)


@pytest.fixture(scope="module")
def grid():
    return Grid.random(SHAPE, seed=123)


@pytest.mark.benchmark(group="executor-throughput")
def test_reference_executor(benchmark, grid):
    spec = box_2d9p()
    result = benchmark(reference_run, spec, grid, STEPS)
    assert result.shape == SHAPE


@pytest.mark.benchmark(group="executor-throughput")
def test_folded_plan_executor(benchmark, grid):
    p = plan(box_2d9p()).method("folded").unroll(2).compile()
    result = benchmark(p.run, grid, STEPS)
    assert result.shape == SHAPE


@pytest.mark.benchmark(group="executor-throughput")
def test_dlt_plan_executor(benchmark, grid):
    p = plan(box_2d9p()).method("dlt").compile()
    result = benchmark(p.run, grid, STEPS)
    assert result.shape == SHAPE


@pytest.mark.benchmark(group="executor-throughput")
def test_apop_option_pricing_executor(benchmark):
    case = get_benchmark("apop")
    grid = case.make_grid((1 << 14,))
    p = plan(case.spec).method("folded").unroll(2).compile()
    result = benchmark(p.run, grid, STEPS)
    assert result.shape == grid.shape
