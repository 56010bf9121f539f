"""Tessellate tiling (Yuan et al., SC'17) — the paper's tiling framework.

The iteration space of ``TR`` consecutive time steps is covered by ``d + 1``
*stages* of tiles.  Each spatial dimension is decomposed into alternating
**triangle** and **inverted-triangle** components:

* a triangle owns a base interval of length ``B`` and shrinks by the stencil
  radius ``r`` on both sides every time step, so it never needs data from
  outside itself within the pass;
* an inverted triangle sits on the boundary between two triangles and grows
  by ``r`` per step, consuming exactly the staircase the triangles left
  behind.

A d-dimensional tile is a tensor product of per-dimension components; its
stage is the number of inverted components.  Tiles of one stage are mutually
independent, and every grid point is updated exactly once per time step (no
redundant computation — the key advantage over overlapped/ghost-zone
tiling).  The paper runs the tiles of a stage concurrently under OpenMP.

Here the tessellation is a model and tuner axis: :class:`TessellationConfig`
and :func:`cache_reuse_factors` feed the multicore model
(:mod:`repro.parallel.model`) behind ``estimate()``, the harness figures and
the tuner.  A tiled plan's ``run()`` executes untiled, since a reordering of
the same point updates returns the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class TessellationConfig:
    """Configuration of a tessellate tiling.

    Attributes
    ----------
    block_sizes:
        Base extent of the triangle components per dimension.  ``None`` for a
        dimension means "do not tile this dimension in time" (a single
        full-extent component) — used by the split-tiling baseline and by
        streaming dimensions.
    time_range:
        Time steps ``TR`` advanced by one pass over the stages.  Every tiled
        dimension must satisfy ``block >= 2 * radius * TR``.
    """

    block_sizes: Tuple[Optional[int], ...]
    time_range: int

    def validate(self, dims: int, radius: int) -> None:
        """Check the configuration against a ``dims``-D stencil of ``radius``.

        The time range must be at least 1, there must be one block per
        dimension, and each block must be positive and at least
        ``2 * radius * time_range`` (``None`` blocks stream their dimension).
        A block need not divide the grid extent: the model counts
        ``extent // block`` tiles.
        """
        if self.time_range < 1:
            raise ValueError("time_range must be >= 1")
        if len(self.block_sizes) != dims:
            raise ValueError(
                f"block_sizes {self.block_sizes} must have one entry per dimension "
                f"of the {dims}-D stencil"
            )
        for block in self.block_sizes:
            if block is None:
                continue
            if block <= 0:
                raise ValueError("block sizes must be positive")
            if block < 2 * radius * self.time_range:
                raise ValueError(
                    f"block size {block} is too small for radius {radius} and "
                    f"time range {self.time_range} (needs >= {2 * radius * self.time_range})"
                )


def cache_reuse_factors(
    config: TessellationConfig,
    radius: int,
    bytes_per_point: float,
    machine_caches: Sequence[Tuple[str, int]],
) -> dict:
    """Per-level temporal reuse factors contributed by the tessellation.

    A tile whose working set (``prod(block + halo) * bytes_per_point``) fits
    in cache level ``L`` stays resident there for the whole ``time_range``
    pass, so it is fetched through ``L``'s outer boundary — and through every
    boundary farther out, including DRAM — only once per pass instead of once
    per step: the traffic through those boundaries drops by the time-range
    factor.  Boundaries *inside* the residency level still see every step.
    Dimensions that are not tiled (block ``None``) stream their full extent,
    which usually pushes the tile out of every cache level — the quantitative
    reason the paper's blocking sizes (Table 1) are small.

    Parameters
    ----------
    config:
        The tessellation configuration.
    radius:
        Stencil radius (adds the halo to the tile working set).
    bytes_per_point:
        Bytes per grid point per array times the number of streamed arrays.
    machine_caches:
        Sequence of ``(level_name, capacity_bytes)`` pairs, innermost first.

    Returns
    -------
    dict
        ``{level_name: reuse_factor}`` including a ``"Memory"`` entry, with
        factors ``>= 1``.
    """
    tile_points = 1.0
    unbounded = False
    for block in config.block_sizes:
        if block is None:
            unbounded = True
            break
        tile_points *= block + 2 * radius * config.time_range
    reuse = {name: 1.0 for name, _ in machine_caches}
    reuse["Memory"] = 1.0
    if unbounded:
        return reuse
    tile_bytes = tile_points * bytes_per_point
    fits = False
    for name, capacity in machine_caches:
        if tile_bytes <= capacity:
            fits = True
        if fits:
            reuse[name] = float(config.time_range)
    if fits:
        reuse["Memory"] = float(config.time_range)
    return reuse
