"""Port-pressure + roofline cost model.

Given a :class:`~repro.perfmodel.profiles.MethodProfile`, a problem size and
a machine description, the model estimates the steady-state cycles per grid
point per time step as

``cycles/point = max(compute, L2 traffic, L3 traffic, DRAM traffic) + overheads``

* **compute** — issue-port pressure: instructions of each class are spread
  over the ports that can execute them (Skylake-SP: FMA/add/mul on ports 0/1,
  shuffles and lane-crossing permutes on port 5, loads on 2/3, stores on 4);
  the busiest port bounds the throughput.  This is what makes the paper's
  "data reorganisation can be overlapped by arithmetic" argument quantitative:
  shuffles only cost time once port 5 becomes the bottleneck.
* **memory** — per-level traffic from the analytic working-set model divided
  by the per-level bandwidth (DRAM bandwidth is shared between active cores
  and scaled by the AVX-512 frequency throttling).

The absolute numbers are *model* numbers — the reproduction does not claim
cycle accuracy — but the relative ordering and the crossover behaviour track
the paper's measurements, which is what the experiments assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.analytic import estimate_traffic
from repro.machine import MachineSpec
from repro.perfmodel.profiles import MethodProfile
from repro.simd.isa import IsaSpec, isa_for


@dataclass
class PerformanceEstimate:
    """Modelled performance of one method on one problem configuration.

    Attributes
    ----------
    gflops:
        Aggregate useful GFLOP/s over all active cores.
    gflops_per_core:
        Useful GFLOP/s of one core.
    cycles_per_point:
        Modelled core cycles per grid point per time step (including the
        amortised layout overhead and parallel overheads added by the caller).
    compute_cycles_per_point:
        The compute (port-pressure) component.
    memory_cycles_per_point:
        Per-level memory components, keyed by level name.
    bound:
        Name of the binding resource (``"compute"``, ``"L2"``, ``"L3"``,
        ``"Memory"``).
    frequency_ghz:
        Clock frequency used for the conversion.
    residency:
        Innermost cache level holding the working set.
    """

    gflops: float
    gflops_per_core: float
    cycles_per_point: float
    compute_cycles_per_point: float
    memory_cycles_per_point: Dict[str, float] = field(default_factory=dict)
    bound: str = "compute"
    frequency_ghz: float = 0.0
    residency: str = "Memory"


def port_pressure_cycles(counts, isa: IsaSpec) -> float:
    """Cycles per point implied by issue-port pressure for ``counts``.

    Each instruction class contributes ``count × rthroughput`` cycles of port
    occupancy.  The occupancy is distributed over the class's legal ports the
    way an out-of-order scheduler would: the most port-constrained classes
    are placed first and every class's work is water-filled onto its
    currently least-loaded ports, so e.g. FMAs move off port 5 when the
    shuffles of a register transpose already occupy it.  The busiest port is
    the compute bound; a second bound of total instructions over the 4-wide
    issue width is also applied (it rarely binds for these kernels).
    """
    port_load: Dict[str, float] = {}
    total = 0.0
    # Most-constrained classes (fewest legal ports) are scheduled first.
    items = sorted(
        (item for item in counts.counts.items() if item[1] > 0),
        key=lambda item: len(isa.timing(item[0]).ports),
    )
    for cls, count in items:
        timing = isa.timing(cls)
        work = count * timing.rthroughput
        total += count
        ports = list(timing.ports)
        for port in ports:
            port_load.setdefault(port, 0.0)
        remaining = work
        # Water-fill: raise the least-loaded legal ports together until the
        # class's occupancy is exhausted.
        while remaining > 1e-12:
            lowest = min(port_load[p] for p in ports)
            tied = [p for p in ports if port_load[p] - lowest < 1e-12]
            higher = [port_load[p] for p in ports if port_load[p] - lowest >= 1e-12]
            if higher:
                headroom = (min(higher) - lowest) * len(tied)
                if remaining <= headroom:
                    share = remaining / len(tied)
                    for p in tied:
                        port_load[p] += share
                    remaining = 0.0
                else:
                    lift = min(higher) - lowest
                    for p in tied:
                        port_load[p] += lift
                    remaining -= headroom
            else:
                share = remaining / len(tied)
                for p in tied:
                    port_load[p] += share
                remaining = 0.0
    busiest = max(port_load.values()) if port_load else 0.0
    issue_bound = total / 4.0
    return max(busiest, issue_bound)


def estimate_performance(
    profile: MethodProfile,
    npoints: int,
    time_steps: int,
    machine: MachineSpec,
    active_cores: int = 1,
    points_per_core: Optional[int] = None,
    sync_overhead_cycles_per_point: float = 0.0,
) -> PerformanceEstimate:
    """Estimate performance of ``profile`` on ``npoints`` grid points.

    Parameters
    ----------
    profile:
        The method profile (instruction mix, sweeps per step, tiling reuse).
    npoints:
        Total grid points of the problem.
    time_steps:
        Total time steps (used to amortise layout transformation overheads).
    machine:
        Machine description (must match the profile's ISA family for the
        numbers to be meaningful).
    active_cores:
        Cores executing the kernel; memory bandwidth and clock frequency are
        adjusted accordingly.
    points_per_core:
        Grid points handled by one core (defaults to an even split); the
        per-core working set decides the cache residency.
    sync_overhead_cycles_per_point:
        Additional cycles per point charged by the caller for tile-scheduling
        synchronisation (used by the multicore model).
    """
    if npoints <= 0 or time_steps <= 0:
        raise ValueError("npoints and time_steps must be positive")
    if active_cores < 1:
        raise ValueError("active_cores must be >= 1")
    isa = isa_for(profile.isa)
    avx512 = profile.isa == "avx512"
    freq = machine.frequency.effective_ghz(active_cores, machine.total_cores, avx512)

    # ------------------------------------------------------------------ #
    # compute component
    # ------------------------------------------------------------------ #
    compute = port_pressure_cycles(profile.counts_per_point, isa)

    # ------------------------------------------------------------------ #
    # memory component
    # ------------------------------------------------------------------ #
    if points_per_core is None:
        points_per_core = max(1, npoints // active_cores)
    bytes_per_point = 8.0 * (profile.arrays + profile.extra_arrays)
    working_set = bytes_per_point * points_per_core
    extra_mem_sweeps = profile.layout_overhead_sweeps / time_steps
    traffic = estimate_traffic(
        working_set_bytes=working_set,
        machine=machine,
        sweeps_per_step=profile.sweeps_per_step,
        temporal_reuse=profile.temporal_cache_reuse,
        extra_memory_sweeps_per_step=extra_mem_sweeps,
        cores_sharing_l3=(
            active_cores if active_cores <= machine.cores_per_socket else machine.cores_per_socket
        ),
    )

    memory_cycles: Dict[str, float] = {}
    for level in machine.caches[1:]:
        bytes_moved = traffic.bytes_from(level.name)
        if bytes_moved > 0:
            memory_cycles[level.name] = bytes_moved / level.bandwidth_bytes_per_cycle
    dram_bytes = traffic.bytes_from("Memory")
    if dram_bytes > 0:
        dram_bpc = machine.memory_bytes_per_cycle(active_cores, avx512)
        memory_cycles["Memory"] = dram_bytes / dram_bpc

    # ------------------------------------------------------------------ #
    # combine
    # ------------------------------------------------------------------ #
    worst_memory = max(memory_cycles.values()) if memory_cycles else 0.0
    cycles = max(compute, worst_memory) + sync_overhead_cycles_per_point
    if cycles <= 0:
        raise RuntimeError("cost model produced non-positive cycles per point")
    if compute >= worst_memory:
        bound = "compute"
    else:
        bound = max(memory_cycles, key=memory_cycles.get)

    seconds_per_point = cycles / (freq * 1e9)
    gflops_core = profile.flops_per_point / seconds_per_point / 1e9
    return PerformanceEstimate(
        gflops=gflops_core * active_cores,
        gflops_per_core=gflops_core,
        cycles_per_point=cycles,
        compute_cycles_per_point=compute,
        memory_cycles_per_point=memory_cycles,
        bound=bound,
        frequency_ghz=freq,
        residency=traffic.residency,
    )
