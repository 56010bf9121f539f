"""Split/nested tiling — the temporal tiling used by the SDSL baseline.

Henretty et al. combine the DLT data layout with *split tiling*: the time
dimension is blocked and, within a time block, the outermost spatial
dimension is covered by two families of trapezoid-shaped tiles executed in
two phases (their "nested split tiling" for 1-D; higher dimensions use a
hybrid that streams the remaining dimensions).  Structurally this is the
1-dimensional special case of the tessellation machinery — triangles and
inverted triangles along one dimension, full-extent streaming along the
others — so the implementation here reuses
:mod:`repro.tiling.tessellate` with a configuration restricted in exactly
that way.

The practical difference the paper highlights is not the tile shapes but the
interaction with the DLT layout: because the lanes of one DLT vector are
``N/vl`` apart, the effective per-tile footprint is much larger and the
usable time-block depth is smaller, which
:func:`split_tiling_cache_reuse` reflects when building the performance
profiles of the SDSL configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec
from repro.tiling.tessellate import TessellationConfig, tessellate_run


@dataclass(frozen=True)
class SplitTilingConfig:
    """Configuration of the split-tiling baseline.

    Attributes
    ----------
    block_size:
        Block extent along the split (outermost) dimension.
    time_range:
        Time steps per pass.
    split_dimension:
        Which dimension is split into trapezoids (0 = outermost, the usual
        choice); the remaining dimensions are streamed in full.
    """

    block_size: int
    time_range: int
    split_dimension: int = 0

    def as_tessellation(self, dims: int) -> TessellationConfig:
        """Express the split tiling as a tessellation configuration."""
        if not 0 <= self.split_dimension < dims:
            raise ValueError("split_dimension out of range")
        blocks: Tuple[Optional[int], ...] = tuple(
            self.block_size if d == self.split_dimension else None for d in range(dims)
        )
        return TessellationConfig(block_sizes=blocks, time_range=self.time_range)


def split_tiling_run(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    config: SplitTilingConfig,
) -> np.ndarray:
    """Execute ``steps`` time steps with split tiling (sequential executor).

    Functionally identical to the reference executor; the tests assert the
    equality.  The SDSL baseline's performance profile is built separately in
    :mod:`repro.baselines.sdsl`.
    """
    return tessellate_run(spec, grid, steps, config.as_tessellation(grid.dims))


def split_tiling_cache_reuse(
    config: SplitTilingConfig,
    grid_shape: Sequence[int],
    radius: int,
    bytes_per_point: float,
    machine_caches: Sequence[Tuple[str, int]],
    dlt_locality_penalty: float = 2.0,
    hybrid_blocks: Optional[Sequence[int]] = None,
) -> Dict[str, float]:
    """Per-level temporal reuse factors of the SDSL (DLT + split tiling) setup.

    The split dimension is blocked by ``config.block_size``; the remaining
    dimensions are either streamed in full (1-D split tiling) or, with the
    hybrid tiling SDSL applies to multi-dimensional stencils, blocked by
    ``hybrid_blocks``.  The DLT layout additionally scatters each vector's
    lanes across the whole innermost extent, which inflates the footprint
    that must stay resident for temporal reuse; ``dlt_locality_penalty``
    models that inflation (the paper attributes SDSL's inferior blocking
    behaviour to exactly this layout constraint).

    Returns ``{level: reuse}`` factors (including ``"Memory"``) clamped to at
    least 1.
    """
    tile_points = float(config.block_size + 2 * radius * config.time_range)
    for d, extent in enumerate(grid_shape):
        if d != config.split_dimension:
            if hybrid_blocks is not None and d < len(hybrid_blocks):
                tile_points *= min(extent, hybrid_blocks[d] + 2 * radius * config.time_range)
            else:
                tile_points *= extent
    tile_bytes = tile_points * bytes_per_point * dlt_locality_penalty
    reuse: Dict[str, float] = {name: 1.0 for name, _ in machine_caches}
    reuse["Memory"] = 1.0
    fits = False
    for name, capacity in machine_caches:
        if tile_bytes <= capacity:
            fits = True
        if fits:
            reuse[name] = float(config.time_range)
    if fits:
        reuse["Memory"] = float(config.time_range)
    return reuse
