"""Shared fixtures for the test suite.

The fixtures centralise the small deterministic grids and the stencil
collections used across many test modules, so individual tests stay focused
on the behaviour they verify.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simd.isa import AVX2, AVX512
from repro.simd.machine import SimdMachine
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import (
    BENCHMARKS,
    box_1d5p,
    box_2d9p,
    box_3d27p,
    general_box_2d9p,
    heat_1d,
    heat_2d,
    heat_3d,
    symmetric_box_2d9p,
)
from repro.stencils.spec import StencilSpec


@pytest.fixture
def avx2_machine() -> SimdMachine:
    """A fresh 4-lane simulated machine."""
    return SimdMachine(AVX2)


@pytest.fixture
def avx512_machine() -> SimdMachine:
    """A fresh 8-lane simulated machine."""
    return SimdMachine(AVX512)


#: Linear stencils spanning 1-D/2-D/3-D, star/box, symmetric/asymmetric.
LINEAR_SPECS = {
    "1d-heat": heat_1d,
    "1d5p": box_1d5p,
    "2d-heat": heat_2d,
    "2d9p": box_2d9p,
    "2d9p-sym": symmetric_box_2d9p,
    "gb": general_box_2d9p,
    "3d-heat": heat_3d,
    "3d27p": box_3d27p,
}

#: Small grid shapes matched to the dimensionality of each linear stencil.
SMALL_SHAPES = {
    1: (64,),
    2: (20, 24),
    3: (10, 12, 8),
}


def small_grid(spec, boundary=BoundaryCondition.PERIODIC, seed=0) -> Grid:
    """Deterministic random grid sized for quick exact-equivalence checks."""
    return Grid.random(SMALL_SHAPES[spec.dims], boundary=boundary, seed=seed)


@pytest.fixture(params=sorted(LINEAR_SPECS))
def linear_spec(request):
    """Parametrised fixture yielding every linear stencil of the suite."""
    return LINEAR_SPECS[request.param]()


@pytest.fixture
def combination_3d() -> StencilSpec:
    """A 3-D stencil whose m=1 schedule materializes a combination
    counterpart with both reuse weights and a bias.

    No library stencil's exact folding matrix needs one, so the
    vertical-fold surface is pinned with this integer kernel, normalised by
    the sum of its absolute weights.
    """
    kernel = np.array(
        [
            [[-1, 1, -1], [1, 0, 1], [-1, 0, -1]],
            [[1, 2, 1], [1, -1, 2], [2, -1, 2]],
            [[0, 1, -1], [2, 1, 1], [1, 1, 1]],
        ],
        dtype=np.float64,
    )
    return StencilSpec(name="comb3d", kernel=kernel / np.abs(kernel).sum())


@pytest.fixture(params=sorted(BENCHMARKS))
def benchmark_case(request):
    """Parametrised fixture yielding every paper benchmark."""
    return BENCHMARKS[request.param]
