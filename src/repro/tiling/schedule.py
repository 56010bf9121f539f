"""Tile-schedule data structures.

A temporal tiling of a stencil's iteration space is described as a list of
*stages*; each stage holds *tiles* that may execute in any order (or
concurrently); each tile is a sequence of per-local-time-step update regions
(axis-aligned boxes in the spatial grid).  The executor in
:mod:`repro.tiling.tessellate` runs a :class:`TileSchedule` stage by stage;
the analytic multicore model in :mod:`repro.parallel.model` prices the same
stage structure (a barrier per stage, each stage's tiles spread over the
cores) from the tiling configuration alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: A half-open interval ``[start, stop)`` along one spatial dimension.
Interval = Tuple[int, int]

#: An axis-aligned box: one interval per spatial dimension.
Region = Tuple[Interval, ...]


@dataclass(frozen=True)
class Tile:
    """One tile of a temporal tiling.

    Attributes
    ----------
    stage:
        Stage index the tile belongs to (0-based).
    steps:
        ``steps[t]`` is the list of regions updated at local time step
        ``t + 1`` (regions may be empty when the tile has shrunk to nothing
        at that step, and may consist of several boxes when a tile wraps
        around a periodic boundary).
    """

    stage: int
    steps: Tuple[Tuple[Region, ...], ...]

    @property
    def time_range(self) -> int:
        """Number of local time steps the tile advances."""
        return len(self.steps)

    def points_updated(self) -> int:
        """Total point-updates performed by the tile (all steps, all regions)."""
        total = 0
        for regions in self.steps:
            for region in regions:
                size = 1
                for start, stop in region:
                    size *= max(0, stop - start)
                total += size
        return total


@dataclass(frozen=True)
class TileStage:
    """A set of tiles that can execute concurrently."""

    index: int
    tiles: Tuple[Tile, ...]

    def points_updated(self) -> int:
        """Total point-updates performed by the stage."""
        return sum(t.points_updated() for t in self.tiles)


@dataclass(frozen=True)
class TileSchedule:
    """A complete temporal tiling of ``time_range`` steps of the iteration space.

    Attributes
    ----------
    stages:
        Stages in execution order; stage ``i + 1`` may only start after stage
        ``i`` has completed (tiles within a stage are independent).
    grid_shape:
        Spatial extents of the tiled grid.
    time_range:
        Time steps advanced by one pass over all stages.
    """

    stages: Tuple[TileStage, ...]
    grid_shape: Tuple[int, ...]
    time_range: int

    def all_tiles(self) -> Iterator[Tile]:
        """Iterate over every tile in stage order."""
        for stage in self.stages:
            yield from stage.tiles

    @property
    def num_tiles(self) -> int:
        """Total number of tiles across all stages."""
        return sum(len(stage.tiles) for stage in self.stages)

    def points_updated(self) -> int:
        """Total point-updates performed by one pass over the schedule."""
        return sum(stage.points_updated() for stage in self.stages)

    def expected_points(self) -> int:
        """Point-updates a redundancy-free tiling must perform.

        Tessellate tiling performs no redundant computation, so
        :meth:`points_updated` must equal ``prod(grid_shape) * time_range``;
        the property-based tests assert exactly that.
        """
        size = 1
        for extent in self.grid_shape:
            size *= extent
        return size * self.time_range
