"""Analytic multicore performance model.

Extends the single-core cost model of :mod:`repro.perfmodel.costmodel` with
the three effects that shape the paper's scalability results (Figure 10,
Table 3):

* **memory-bandwidth sharing** — the per-socket DRAM bandwidth is divided
  between the active cores (already handled by
  :meth:`repro.machine.MachineSpec.memory_bytes_per_cycle`), which is what
  flattens the curves of the memory-bound 3-D stencils;
* **frequency throttling** — the clock drops as more cores activate, and
  further under heavy AVX-512 use (the paper observes 3.70 → 3.00 → 2.10 GHz
  on its Xeon Gold 6140);
* **tile-scheduling overheads** — each tessellation stage ends with a
  barrier, and the tiles of a stage may not divide evenly across the cores;
  both effects grow with the core count and shrink with the problem size.

The model works entirely from the method profile, the tiling configuration
and the machine description, so the harness can sweep stencils × methods ×
core counts cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.machine import MachineSpec
from repro.perfmodel.costmodel import PerformanceEstimate, estimate_performance
from repro.perfmodel.profiles import MethodProfile
from repro.tiling.tessellate import TessellationConfig, cache_reuse_factors


@dataclass(frozen=True)
class MulticoreConfig:
    """Parameters of the multicore model.

    Attributes
    ----------
    barrier_cycles:
        Cycles charged per stage barrier per core (covers the OpenMP fork/join
        and the cache-line ping-pong of the barrier itself).
    imbalance_exponent:
        Strength of the load-imbalance penalty: the efficiency is modelled as
        ``(tiles_per_stage / ceil(tiles_per_stage / cores) / cores) **
        imbalance_exponent`` — 1.0 uses the plain ceiling argument.
    """

    barrier_cycles: float = 20000.0
    imbalance_exponent: float = 1.0


def _tiles_per_stage(
    grid_shape: Sequence[int], tiling: Optional[TessellationConfig]
) -> float:
    """Approximate number of concurrent tiles per tessellation stage."""
    if tiling is None:
        return float(np.prod([max(1, s // 64) for s in grid_shape]))
    count = 1.0
    for extent, block in zip(grid_shape, tiling.block_sizes):
        if block is None:
            continue
        count *= max(1, extent // block)
    return max(count, 1.0)


def _imbalance_efficiency(tiles: float, cores: int, exponent: float) -> float:
    """Fraction of ideal throughput retained after load imbalance."""
    if cores <= 1:
        return 1.0
    waves = np.ceil(tiles / cores)
    ideal_waves = tiles / cores
    eff = ideal_waves / waves if waves > 0 else 1.0
    return float(eff ** exponent)


def multicore_estimate(
    profile: MethodProfile,
    grid_shape: Sequence[int],
    time_steps: int,
    machine: MachineSpec,
    cores: int,
    radius: int,
    tiling: Optional[TessellationConfig] = None,
    config: MulticoreConfig = MulticoreConfig(),
) -> PerformanceEstimate:
    """Estimate aggregate performance on ``cores`` cores.

    Parameters
    ----------
    profile:
        Steady-state method profile (its temporal reuse is extended by the
        tiling configuration passed here).
    grid_shape:
        Spatial problem size.
    time_steps:
        Total time steps of the run.
    machine:
        Machine description.
    cores:
        Active cores (1 … machine.total_cores).
    radius:
        Stencil radius, needed for the tile working-set estimate.
    tiling:
        Tessellation configuration providing temporal cache reuse and the
        stage/tile structure; ``None`` models an untiled (stream) execution.
    config:
        Overhead parameters.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    npoints = int(np.prod(grid_shape))

    effective_profile = profile
    stages = 1
    time_range = 1
    if tiling is not None:
        caches = [(lvl.name, lvl.capacity_bytes) for lvl in machine.caches]
        reuse = cache_reuse_factors(
            tiling, radius, 8.0 * profile.arrays, caches
        )
        effective_profile = profile.with_tiling(reuse)
        stages = sum(1 for b in tiling.block_sizes if b is not None) + 1
        time_range = tiling.time_range

    tiles = _tiles_per_stage(grid_shape, tiling)
    efficiency = _imbalance_efficiency(tiles, cores, config.imbalance_exponent)

    # Barrier overhead per point per time step: one barrier per stage per
    # pass of `time_range` steps, paid by every core, amortised over the
    # points a core updates during that pass.
    points_per_core_pass = max(1.0, npoints * time_range / cores)
    sync_cycles_per_point = stages * config.barrier_cycles / points_per_core_pass

    est = estimate_performance(
        effective_profile,
        npoints=npoints,
        time_steps=time_steps,
        machine=machine,
        active_cores=cores,
        sync_overhead_cycles_per_point=sync_cycles_per_point,
    )
    if efficiency < 1.0:
        est = PerformanceEstimate(
            gflops=est.gflops * efficiency,
            gflops_per_core=est.gflops_per_core * efficiency,
            cycles_per_point=est.cycles_per_point / efficiency,
            compute_cycles_per_point=est.compute_cycles_per_point,
            memory_cycles_per_point=est.memory_cycles_per_point,
            bound=est.bound,
            frequency_ghz=est.frequency_ghz,
            residency=est.residency,
        )
    return est
