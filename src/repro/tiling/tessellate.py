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
independent (they only depend on earlier stages), every grid point is updated
exactly once per time step (no redundant computation — the key advantage
over overlapped/ghost-zone tiling), and the whole pass works in-place on the
usual two Jacobi arrays.

The module provides the schedule builder (:func:`build_tessellation`), a
sequential executor validated against the reference
(:func:`tessellate_run`), and the per-region update helper it runs on
(:func:`update_region`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stencils.boundary import BoundaryCondition, DIRICHLET_VALUE
from repro.stencils.grid import Grid
from repro.stencils.reference import linear_sum
from repro.stencils.spec import StencilSpec
from repro.tiling.schedule import Region, Tile, TileSchedule, TileStage


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

    def validate(self, grid_shape: Sequence[int], radius: int) -> None:
        """Check the configuration against a grid and stencil radius."""
        if self.time_range < 1:
            raise ValueError("time_range must be >= 1")
        if len(self.block_sizes) != len(grid_shape):
            raise ValueError("block_sizes must match the grid dimensionality")
        for extent, block in zip(grid_shape, self.block_sizes):
            if block is None:
                continue
            if block <= 0:
                raise ValueError("block sizes must be positive")
            if extent % block != 0:
                raise ValueError(
                    f"extent {extent} is not divisible by the block size {block}"
                )
            if block < 2 * radius * self.time_range:
                raise ValueError(
                    f"block size {block} is too small for radius {radius} and "
                    f"time range {self.time_range} (needs >= {2 * radius * self.time_range})"
                )


# --------------------------------------------------------------------------- #
# per-dimension component intervals
# --------------------------------------------------------------------------- #
def _triangle_intervals(
    block_index: int, block: int, radius: int, step: int
) -> List[Tuple[int, int]]:
    """Interval updated by triangle ``block_index`` at local step ``step`` (1-based)."""
    start = block_index * block + step * radius
    stop = (block_index + 1) * block - step * radius
    if start >= stop:
        return []
    return [(start, stop)]


def _inverted_intervals(
    boundary_pos: int,
    extent: int,
    radius: int,
    step: int,
    boundary: BoundaryCondition,
) -> List[Tuple[int, int]]:
    """Interval(s) updated by the inverted component at ``boundary_pos``.

    The inverted triangle is centred on the block boundary; with periodic
    boundaries the component at position 0 wraps around the end of the
    dimension and is represented as two intervals.
    """
    lo = boundary_pos - step * radius
    hi = boundary_pos + step * radius
    if lo >= hi:
        return []
    if boundary is BoundaryCondition.PERIODIC:
        if lo < 0:
            return [(lo % extent, extent), (0, hi)]
        return [(lo, hi)]
    return [(max(0, lo), min(extent, hi))]


def _dimension_components(
    extent: int,
    block: Optional[int],
    radius: int,
    time_range: int,
    boundary: BoundaryCondition,
) -> List[Tuple[int, List[List[Tuple[int, int]]]]]:
    """Enumerate the components of one dimension.

    Returns a list of ``(inverted_flag, per_step_intervals)`` where
    ``per_step_intervals[t]`` is the list of intervals updated at local step
    ``t + 1``.  A ``block`` of ``None`` yields a single full-extent component
    flagged as not inverted.
    """
    if block is None:
        full = [[(0, extent)] for _ in range(time_range)]
        return [(0, full)]
    nblocks = extent // block
    components: List[Tuple[int, List[List[Tuple[int, int]]]]] = []
    for k in range(nblocks):
        steps = [_triangle_intervals(k, block, radius, t) for t in range(1, time_range + 1)]
        components.append((0, steps))
    if boundary is BoundaryCondition.PERIODIC:
        boundaries = [k * block for k in range(nblocks)]
    else:
        boundaries = [k * block for k in range(nblocks + 1)]
    for pos in boundaries:
        steps = [
            _inverted_intervals(pos, extent, radius, t, boundary)
            for t in range(1, time_range + 1)
        ]
        components.append((1, steps))
    return components


# --------------------------------------------------------------------------- #
# schedule construction
# --------------------------------------------------------------------------- #
def build_tessellation(
    grid_shape: Sequence[int],
    radius: int,
    config: TessellationConfig,
    boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
) -> TileSchedule:
    """Build the tessellate tile schedule for one pass of ``config.time_range`` steps.

    Parameters
    ----------
    grid_shape:
        Spatial extents of the grid.
    radius:
        Stencil radius ``r`` (per time step).
    config:
        Block sizes and time range.
    boundary:
        Boundary condition; it determines how many inverted components each
        dimension has and whether they wrap.
    """
    grid_shape = tuple(int(s) for s in grid_shape)
    config.validate(grid_shape, radius)
    per_dim = [
        _dimension_components(extent, block, radius, config.time_range, boundary)
        for extent, block in zip(grid_shape, config.block_sizes)
    ]

    dims = len(grid_shape)
    stages_tiles: List[List[Tile]] = [[] for _ in range(dims + 1)]

    def _product(dim: int, chosen: List[Tuple[int, List[List[Tuple[int, int]]]]]) -> None:
        if dim == dims:
            stage = sum(flag for flag, _ in chosen)
            steps: List[Tuple[Region, ...]] = []
            for t in range(config.time_range):
                regions: List[Region] = []
                per_dim_intervals = [steps_list[t] for _flag, steps_list in chosen]
                # Cartesian product of the per-dimension interval lists.
                def _regions(d: int, prefix: List[Tuple[int, int]]) -> None:
                    if d == dims:
                        regions.append(tuple(prefix))
                        return
                    for interval in per_dim_intervals[d]:
                        prefix.append(interval)
                        _regions(d + 1, prefix)
                        prefix.pop()

                if all(per_dim_intervals):
                    _regions(0, [])
                steps.append(tuple(regions))
            if any(steps):
                stages_tiles[stage].append(Tile(stage=stage, steps=tuple(steps)))
            return
        for component in per_dim[dim]:
            chosen.append(component)
            _product(dim + 1, chosen)
            chosen.pop()

    _product(0, [])

    stages = tuple(
        TileStage(index=i, tiles=tuple(tiles))
        for i, tiles in enumerate(stages_tiles)
        if tiles
    )
    # Re-index stages densely (a dimension with block=None contributes no
    # inverted components, so some stage numbers may be empty).
    stages = tuple(
        TileStage(index=i, tiles=stage.tiles) for i, stage in enumerate(stages)
    )
    return TileSchedule(stages=stages, grid_shape=grid_shape, time_range=config.time_range)


# --------------------------------------------------------------------------- #
# region update + executor
# --------------------------------------------------------------------------- #
def update_region(
    spec: StencilSpec,
    src: np.ndarray,
    dst: np.ndarray,
    region: Region,
    boundary: BoundaryCondition,
    aux: Optional[np.ndarray] = None,
) -> None:
    """Apply one stencil update to the points of ``region``.

    Gathers one halo slab, the region plus ``spec.radius`` on every side
    (wrapped on a periodic grid, :data:`DIRICHLET_VALUE` outside a Dirichlet
    one), correlates it with ``spec.kernel`` exactly as
    :func:`~repro.stencils.reference.reference_step` does, and writes the
    cropped, post-ruled values into ``dst`` at the region: the reference's
    bits.  Used by the tessellation executor, and through it by the
    split-tiling baseline.  It reads only ``src`` and writes only ``dst`` at
    ``region``, so the regions of one tessellation stage may be updated in
    any order.
    """
    slices = tuple(slice(start, stop) for start, stop in region)
    if any(s.start >= s.stop for s in slices):
        return
    radius = spec.radius
    slab = src
    for axis, ((start, stop), extent) in enumerate(zip(region, src.shape)):
        idx = np.arange(start - radius, stop + radius)
        if boundary is BoundaryCondition.PERIODIC:
            slab = np.take(slab, idx % extent, axis=axis)
        else:
            slab = np.take(slab, idx, axis=axis, mode="clip")
            outside = (idx < 0) | (idx >= extent)
            slab[(slice(None),) * axis + (outside,)] = DIRICHLET_VALUE
    inner = tuple(slice(radius, radius + stop - start) for start, stop in region)
    acc = linear_sum(spec, slab, boundary)[inner]
    if spec.post_rule is not None:
        acc = spec.post_rule(acc, src[slices], None if aux is None else aux[slices])
    dst[slices] = acc


def tessellate_run(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    config: TessellationConfig,
) -> np.ndarray:
    """Run ``steps`` time steps using tessellate tiling (sequential executor).

    The result is exactly equal to the reference executor: tessellation is a
    reordering of the same point updates, and the tests assert the equality
    on random grids for 1-D, 2-D and 3-D stencils.

    Parameters
    ----------
    spec:
        Stencil to execute.
    grid:
        Initial grid (the boundary condition of the grid is honoured).
    steps:
        Total time steps; the final pass uses a reduced time range when
        ``steps`` is not a multiple of ``config.time_range``.
    config:
        Block sizes and time range of the tessellation.

    At most two schedules are built per run: the full time range's, shared
    by every full pass, and the shorter last pass's.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    radius = spec.radius
    arrays = [grid.values.copy(), np.empty_like(grid.values)]
    schedules: Dict[int, TileSchedule] = {}
    done = 0
    parity = 0  # arrays[parity] holds the current time level
    while done < steps:
        tr = min(config.time_range, steps - done)
        schedule = schedules.get(tr)
        if schedule is None:
            pass_config = TessellationConfig(block_sizes=config.block_sizes, time_range=tr)
            schedule = build_tessellation(grid.shape, radius, pass_config, grid.boundary)
            schedules[tr] = schedule
        for stage in schedule.stages:
            for tile in stage.tiles:
                for t, regions in enumerate(tile.steps, start=1):
                    src = arrays[(parity + t - 1) % 2]
                    dst = arrays[(parity + t) % 2]
                    for region in regions:
                        update_region(spec, src, dst, region, grid.boundary, aux=grid.aux)
        done += tr
        parity = (parity + tr) % 2
    return arrays[parity]


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
