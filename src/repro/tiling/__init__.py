"""Tiling frameworks, as a model and tuner axis.

* :mod:`repro.tiling.tessellate` — tessellate tiling (Yuan et al., SC'17),
  the temporal tiling framework the paper integrates its vectorization with:
  the iteration space is covered by ``d + 1`` stages of tiles
  (triangles / inverted triangles in 1-D and their tensor products in higher
  dimensions); tiles within one stage are independent, so on the paper's
  OpenMP target they run concurrently without redundant computation,
* :mod:`repro.tiling.splittiling` — the split/nested tiling configuration of
  the SDSL baseline (Henretty et al.), constrained by the DLT layout.

Both configurations feed the cache-reuse and multicore models behind
``estimate()``, the harness figures and the tuner.  No executor runs a tile
schedule: a tiled plan's ``run()`` executes untiled and returns the same
values.
"""

from repro.tiling.tessellate import TessellationConfig
from repro.tiling.splittiling import SplitTilingConfig

__all__ = [
    "TessellationConfig",
    "SplitTilingConfig",
]
