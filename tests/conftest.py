"""Shared fixtures for the test suite.

The fixtures centralise the small deterministic grids and the stencil
collections used across many test modules, so individual tests stay focused
on the behaviour they verify.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.backend.codegen import wait_for_builds
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


@pytest.fixture(autouse=True)
def no_background_builds():
    """Start every test with no kernel build running behind it.

    The default folded ``run()`` queues its native program's build on a
    background thread.  A build an earlier test queued must not run while a
    test patches the compiler, the probe, ``subprocess`` or the cache
    directory, or counts the calls and files a build makes.
    """
    wait_for_builds()


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


# --------------------------------------------------------------------------- #
# legal linear stencils for the property tests
# --------------------------------------------------------------------------- #
EPS = float(np.finfo(np.float64).eps)

#: Sparse and small-integer weights (these make counterparts reusable),
#: general and negative ones, and weights at or below DBL_EPSILON, which the
#: NumPy correlations drop from their footprint.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, 0.5]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([EPS, -EPS, EPS / 2, 2 * EPS, 1e-300, 5e-324]),
)


@st.composite
def stencil_weights(draw, dims: int, isotropic: bool = False) -> np.ndarray:
    """The weights of a legal ``dims``-D linear stencil: radius 0 to 2 per
    axis (one radius for all axes when ``isotropic``), :data:`WEIGHTS` off
    the centre and a non-zero centre, so the folded matrix is never all
    zero.  Zero weights still give anisotropic footprints."""
    if isotropic:
        radii = (draw(st.integers(0, 2)),) * dims
    else:
        radii = tuple(draw(st.integers(0, 2)) for _ in range(dims))
    shape = tuple(2 * r + 1 for r in radii)
    size = int(np.prod(shape))
    kernel = np.array(draw(st.lists(WEIGHTS, min_size=size, max_size=size))).reshape(shape)
    kernel[radii] = draw(st.floats(0.25, 1.0))
    return kernel


#: Factor entries of plane-separable kernels: general and negative ones,
#: zeros, and entries at or below DBL_EPSILON, which a factor's fold drops.
FACTOR_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -1.0, 0.5, EPS, -EPS / 2, 1e-300]),
)


@st.composite
def separable_weights(draw, perturbed: bool = False) -> np.ndarray:
    """The weights ``outer(a, b, c)`` of a plane-separable 3-D stencil of
    radius 1 or 2, with :data:`FACTOR_ENTRIES` off the factors' centres and
    non-zero centres, so the folded matrix is never all zero.  The weights
    are divided by the sum of their absolute values, so that no step grows
    the grid and the heat example's error bound applies.

    ``perturbed`` adds ``1e-10 · max|w|`` times a uniform draw from
    ``[-1, 1)`` to every weight: a near-separable kernel, whose folds must
    not be plane-factored.
    """
    radius = draw(st.integers(1, 2))
    size = 2 * radius + 1
    factors = []
    for _ in range(3):
        factor = np.array(draw(st.lists(FACTOR_ENTRIES, min_size=size, max_size=size)))
        factor[radius] = draw(st.floats(0.25, 1.0))
        factors.append(factor)
    kernel = np.einsum("i,j,k->ijk", *factors)
    kernel = kernel / np.abs(kernel).sum()
    if perturbed:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kernel = kernel + 1e-10 * np.abs(kernel).max() * rng.uniform(-1.0, 1.0, kernel.shape)
    return kernel
