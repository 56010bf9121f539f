"""Tiling frameworks.

* :mod:`repro.tiling.tessellate` — tessellate tiling (Yuan et al., SC'17),
  the temporal tiling framework the paper integrates its vectorization with:
  the iteration space is covered by ``d + 1`` stages of tiles
  (triangles / inverted triangles in 1-D and their tensor products in higher
  dimensions); tiles within one stage are independent, so they may run in
  any order (or, on the paper's OpenMP target, concurrently) without
  redundant computation,
* :mod:`repro.tiling.splittiling` — the split/nested tiling configuration of
  the SDSL baseline (Henretty et al.), expressed with the same machinery but
  constrained by the DLT layout,
* :mod:`repro.tiling.schedule` — the tile-schedule data structures shared by
  the executors and the multicore model.
"""

from repro.tiling.schedule import Tile, TileStage, TileSchedule
from repro.tiling.tessellate import (
    TessellationConfig,
    build_tessellation,
    tessellate_run,
)
from repro.tiling.splittiling import SplitTilingConfig, split_tiling_run

__all__ = [
    "Tile",
    "TileStage",
    "TileSchedule",
    "TessellationConfig",
    "build_tessellation",
    "tessellate_run",
    "SplitTilingConfig",
    "split_tiling_run",
]
