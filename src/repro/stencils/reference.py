"""Naive reference executors.

These implement the *definition* of a stencil update — the ``d + 1`` nested
loops of the paper's introduction — using :func:`scipy.ndimage.correlate` for
the weighted sum so that the reference itself is fast enough to validate
optimized schedules on realistically sized grids.  The reference is used as
ground truth by every test and by the experiment harness's self-check.

Jacobi-style semantics are used throughout (as in the paper): every point of
time step ``t + 1`` is computed from values of time step ``t`` only, with two
arrays alternating roles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import ndimage

from repro.stencils.boundary import DIRICHLET_VALUE, BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


def check_dims(spec: StencilSpec, values: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``values`` has the stencil's dimensionality."""
    if values.ndim != spec.dims:
        raise ValueError(
            f"grid has {values.ndim} dimensions but stencil {spec.name!r} has {spec.dims}"
        )


def linear_sum(
    spec: StencilSpec,
    values: np.ndarray,
    boundary: BoundaryCondition,
) -> np.ndarray:
    """Return the weighted neighbour sum of ``values`` under ``spec``.

    This is one linear stencil application *without* any post rule, i.e. the
    quantity the paper's folding analysis reasons about.
    """
    values = np.asarray(values, dtype=np.float64)
    check_dims(spec, values)
    return ndimage.correlate(
        values,
        spec.kernel,
        mode=boundary.ndimage_mode,
        cval=DIRICHLET_VALUE,
    )


def reference_step(
    spec: StencilSpec,
    values: np.ndarray,
    boundary: BoundaryCondition,
    aux: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance ``values`` by exactly one time step of ``spec``.

    Parameters
    ----------
    spec:
        Stencil description.
    values:
        Interior grid values at time ``t``.
    boundary:
        Boundary condition.
    aux:
        Static auxiliary array for stencils with a post rule (APOP payoff);
        ignored by linear stencils.

    Returns
    -------
    numpy.ndarray
        The grid at time ``t + 1`` (a new array; ``values`` is untouched).
    """
    summed = linear_sum(spec, values, boundary)
    if spec.post_rule is None:
        return summed
    return spec.post_rule(summed, np.asarray(values, dtype=np.float64), aux)


def reference_run(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
) -> np.ndarray:
    """Advance ``grid`` by ``steps`` time steps using the naive executor.

    Returns the final interior values; the input grid is not modified.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    values = grid.values.copy()
    for _ in range(steps):
        values = reference_step(spec, values, grid.boundary, aux=grid.aux)
    return values
