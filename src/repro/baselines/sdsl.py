"""SDSL baseline: DLT vectorization + split tiling (Henretty et al., ICS'13).

The paper's multicore comparison uses the SDSL software package as the prior
state of the art that combines a vectorization-friendly layout (DLT) with
temporal tiling (nested/hybrid split tiling).  In this reproduction the
configuration is composed from the two pieces built elsewhere:

* the steady-state instruction profile of the DLT method
  (:func:`repro.baselines.dlt.profile_dlt`), and
* the temporal cache-reuse factors of split tiling under the DLT layout's
  locality penalty (:func:`repro.tiling.splittiling.split_tiling_cache_reuse`).

SDSL is profile-only: it has no numeric executor, and
:meth:`~repro.core.plan.PlanBuilder.compile` refuses it.  Split tiling
reorders the reference's point updates, so its values would be
``reference_run``'s; only the performance differs, and that is what the
profile models.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.dlt import profile_dlt
from repro.machine import MachineSpec
from repro.perfmodel.profiles import MethodProfile
from repro.registry import register_method
from repro.stencils.spec import StencilSpec
from repro.tiling.splittiling import SplitTilingConfig, split_tiling_cache_reuse


@register_method(
    "sdsl",
    label="SDSL",
    profile_only=True,
    description="DLT vectorization + split tiling (prior state of the art)",
)
def profile_sdsl(
    spec: StencilSpec,
    isa: str,
    config: SplitTilingConfig,
    grid_shape: Sequence[int],
    machine: MachineSpec,
    hybrid_blocks: Sequence[int] | None = None,
) -> MethodProfile:
    """Build the SDSL (DLT + split tiling) performance profile.

    Parameters
    ----------
    spec:
        Stencil being executed.
    isa:
        ``"avx2"`` or ``"avx512"``.
    config:
        Split-tiling block size and time range.  SDSL's published
        configurations use shallow time blocks (the DLT boundary-column
        fixups are paid at every tile face and every time level), so callers
        typically cap the time range well below what tessellation uses.
    grid_shape:
        Spatial problem size (the streamed dimensions enter the tile
        footprint).
    machine:
        Machine description providing the cache capacities.
    hybrid_blocks:
        Spatial block sizes of the hybrid tiling applied to the non-split
        dimensions of multi-dimensional stencils (``None`` = streamed).
    """
    base = profile_dlt(spec, isa)
    caches = [(lvl.name, lvl.capacity_bytes) for lvl in machine.caches]
    bytes_per_point = 8.0 * base.arrays
    reuse = split_tiling_cache_reuse(
        config,
        grid_shape,
        spec.radius,
        bytes_per_point,
        caches,
        hybrid_blocks=hybrid_blocks,
    )
    profile = base.with_tiling(reuse, notes="SDSL: DLT layout + split tiling")
    profile.method = "sdsl"
    return profile
