"""Split/nested tiling — the temporal tiling used by the SDSL baseline.

Henretty et al. combine the DLT data layout with *split tiling*: the time
dimension is blocked and, within a time block, the outermost spatial
dimension is covered by two families of trapezoid-shaped tiles executed in
two phases (their "nested split tiling" for 1-D; higher dimensions use a
hybrid that streams the remaining dimensions).  Structurally this is the
1-dimensional special case of a tessellation — triangles and inverted
triangles along dimension 0, full-extent streaming along the others, i.e.
``TessellationConfig((block_size,) + (None,) * (d - 1), time_range)``.

The practical difference the paper highlights is not the tile shapes but the
interaction with the DLT layout: because the lanes of one DLT vector are
``N/vl`` apart, the effective per-tile footprint is much larger and the
usable time-block depth is smaller, which
:func:`split_tiling_cache_reuse` reflects when building the performance
profiles of the SDSL configuration.  Like the tessellation, split tiling is
modelled only; SDSL has no numeric executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SplitTilingConfig:
    """Configuration of the split-tiling baseline.

    Attributes
    ----------
    block_size:
        Block extent along the split dimension, the outermost one (0); the
        remaining dimensions are streamed in full.
    time_range:
        Time steps per pass.
    """

    block_size: int
    time_range: int


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

    Dimension 0 is split, blocked by ``config.block_size``; the remaining
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
    for d, extent in enumerate(grid_shape[1:], start=1):
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
