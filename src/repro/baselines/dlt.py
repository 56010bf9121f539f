"""Dimension-lifted transpose (DLT) baseline — Henretty et al.

The DLT method transposes the ``vl × (N/vl)`` matrix view of the innermost
dimension once before the time loop and once after it.  In the transformed
layout the lanes of one SIMD vector are ``N/vl`` elements apart, so every
stencil neighbour along the innermost dimension is simply the adjacent
*aligned* vector: the steady-state loop has no shuffles and no unaligned
loads.  The costs are (a) the two global transformation passes, (b) an extra
array because the transform is not done in place, (c) boundary-column fixups
every sweep, and (d) — the paper's key criticism — the loss of spatial
locality, which limits how well DLT composes with cache tiling.

Besides the instruction profile this module provides an **honest NumPy
executor** (:func:`dlt_run`) that really performs the computation in the DLT
layout, including the boundary-column fixups, and is validated against the
reference executor in the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import (
    kernel_rows,
    post_rule_counts,
    streamed_arrays,
    weighted_sum_counts,
)
from repro.layout.dlt import from_dlt_layout, to_dlt_layout
from repro.perfmodel.flops import useful_flops_per_point
from repro.perfmodel.profiles import MethodProfile
from repro.registry import register_method, set_executor
from repro.simd.isa import InstructionClass, isa_for
from repro.simd.machine import InstructionCounts
from repro.stencils.boundary import BoundaryCondition, DIRICHLET_VALUE
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


# --------------------------------------------------------------------------- #
# instruction profile
# --------------------------------------------------------------------------- #
@register_method(
    "dlt",
    label="DLT",
    figure_order=2,
    description="dimension-lifted transpose (Henretty et al.)",
)
def profile_dlt(spec: StencilSpec, isa: str = "avx2") -> MethodProfile:
    """Build the per-point instruction profile of the DLT method."""
    isa_spec = isa_for(isa)
    vl = isa_spec.vector_lanes
    rows = kernel_rows(spec)
    counts = InstructionCounts()
    counts.add(InstructionClass.LOAD, float(rows) / vl)
    counts.add(InstructionClass.STORE, 1.0 / vl)
    counts = counts.merge(weighted_sum_counts(spec, vl))
    counts = counts.merge(post_rule_counts(spec, vl))
    return MethodProfile(
        method="dlt",
        stencil=spec.name,
        isa=isa,
        counts_per_point=counts,
        flops_per_point=useful_flops_per_point(spec),
        sweeps_per_step=1.0,
        # One full read+write pass into the DLT layout before the time loop
        # and one back afterwards.
        layout_overhead_sweeps=2.0,
        extra_arrays=1,
        arrays=streamed_arrays(spec),
        notes="global dimension-lifted transpose; shuffle-free steady state",
    )


# --------------------------------------------------------------------------- #
# honest NumPy executor (computes in the DLT layout)
# --------------------------------------------------------------------------- #
def _dlt_view(array: np.ndarray, vl: int) -> np.ndarray:
    """View a DLT-layout innermost axis as ``(..., seg, vl)``."""
    n = array.shape[-1]
    seg = n // vl
    return array.reshape(array.shape[:-1] + (seg, vl))


def _shift_innermost_dlt(
    view: np.ndarray, k: int, boundary: BoundaryCondition
) -> np.ndarray:
    """Return the DLT view of the array shifted by ``k`` in *original* index space.

    ``view`` has shape ``(..., seg, vl)`` where element ``[..., j, r]`` is the
    original element ``r*seg + j``.  A shift by ``+k`` (with ``|k| < seg``)
    maps to a shift of the ``j`` axis, with the ``k`` columns that fall off
    the end wrapping into the next lane ``r+1`` — the boundary-column fixup
    of the DLT method.  The last lane wraps to the first lane of the periodic
    image (periodic) or reads the constant halo (Dirichlet).
    """
    if k == 0:
        return view
    seg = view.shape[-2]
    vl = view.shape[-1]
    if abs(k) >= seg:
        raise ValueError("DLT shift must be smaller than the segment length")
    out = np.empty_like(view)
    if k > 0:
        out[..., : seg - k, :] = view[..., k:, :]
        # Wrapped columns: original index r*seg + j with j >= seg-k maps to
        # element (r+1)*seg + (j+k-seg) -> view[..., j+k-seg, r+1].
        wrapped = np.empty_like(view[..., :k, :])
        wrapped[..., :, : vl - 1] = view[..., :k, 1:]
        if boundary is BoundaryCondition.PERIODIC:
            wrapped[..., :, vl - 1] = view[..., :k, 0]
        else:
            wrapped[..., :, vl - 1] = DIRICHLET_VALUE
        out[..., seg - k :, :] = wrapped
    else:
        k = -k
        out[..., k:, :] = view[..., : seg - k, :]
        wrapped = np.empty_like(view[..., :k, :])
        wrapped[..., :, 1:] = view[..., seg - k :, : vl - 1]
        if boundary is BoundaryCondition.PERIODIC:
            wrapped[..., :, 0] = view[..., seg - k :, vl - 1]
        else:
            wrapped[..., :, 0] = DIRICHLET_VALUE
        out[..., :k, :] = wrapped
    return out


def _shift_leading(
    array: np.ndarray, axis: int, k: int, boundary: BoundaryCondition
) -> np.ndarray:
    """Shift a non-innermost axis by ``k`` grid points (layout-independent)."""
    if k == 0:
        return array
    if boundary is BoundaryCondition.PERIODIC:
        return np.roll(array, -k, axis=axis)
    out = np.full_like(array, DIRICHLET_VALUE)
    n = array.shape[axis]
    src = [slice(None)] * array.ndim
    dst = [slice(None)] * array.ndim
    if k > 0:
        src[axis] = slice(k, n)
        dst[axis] = slice(0, n - k)
    else:
        src[axis] = slice(0, n + k)
        dst[axis] = slice(-k, n)
    out[tuple(dst)] = array[tuple(src)]
    return out


def dlt_step(
    spec: StencilSpec,
    dlt_values: np.ndarray,
    boundary: BoundaryCondition,
    vl: int,
    aux_dlt: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance a DLT-layout grid by one time step, staying in the DLT layout."""
    view = _dlt_view(dlt_values, vl)
    out = np.zeros_like(view)
    for offset, weight in spec.offsets_and_weights().items():
        shifted = view
        # Leading (non-innermost) offsets shift whole rows of the grid.
        for axis, off in enumerate(offset[:-1]):
            if off != 0:
                shifted = _shift_leading(shifted, axis, off, boundary)
        inner = offset[-1]
        if inner != 0:
            shifted = _shift_innermost_dlt(shifted, inner, boundary)
        out += weight * shifted
    result = out.reshape(dlt_values.shape)
    if spec.post_rule is not None:
        aux = None if aux_dlt is None else aux_dlt
        result = spec.post_rule(result, dlt_values, aux)
    return result


def dlt_run(spec: StencilSpec, grid: Grid, steps: int, vl: int = 4) -> np.ndarray:
    """Run ``steps`` time steps of ``spec`` entirely in the DLT layout.

    The grid is transformed into the DLT layout, updated ``steps`` times with
    :func:`dlt_step` (all neighbour accesses performed through the DLT index
    algebra, including boundary-column fixups), and transformed back.  The
    result equals the reference executor bit-for-bit up to FP reassociation.

    Parameters
    ----------
    spec:
        Stencil to execute.
    grid:
        Initial grid; its innermost extent must be divisible by ``vl``.
    steps:
        Number of time steps.
    vl:
        Vector length defining the DLT lifting factor.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    values = to_dlt_layout(grid.values, vl)
    aux = None if grid.aux is None else to_dlt_layout(grid.aux, vl)
    for _ in range(steps):
        values = dlt_step(spec, values, grid.boundary, vl, aux_dlt=aux)
    return from_dlt_layout(values, vl)


# --------------------------------------------------------------------------- #
# registry executor
# --------------------------------------------------------------------------- #
def _execute_dlt(plan, grid: Grid, steps: int) -> np.ndarray:
    """Numeric path of a compiled DLT plan: run in the DLT layout."""
    return dlt_run(spec=plan.spec, grid=grid, steps=steps, vl=plan.isa_spec.vector_lanes)


def _describe_dlt(plan) -> str:
    return "dimension-lifted transpose layout, boundary-column fixups each sweep"


set_executor("dlt", _execute_dlt, describe_path=_describe_dlt)
