"""Method profiles: the interface between schedules and the cost model.

A :class:`MethodProfile` captures everything the cost model needs to know
about one (stencil, vectorization method) pair:

* the steady-state instruction mix per grid point per *logical* time step,
* how many passes over the working set a time step costs (temporal folding
  advances ``m`` steps per pass, so its value is ``1/m``),
* one-off layout transformation overheads (DLT's global transposes),
* how many grid-sized arrays the method keeps live (DLT needs an extra one),
* the useful flops per point per step, which the GFLOP/s metric is defined
  over (identical for every method — that is the point of reporting
  GFLOP/s).

Profiles are pure data: they are produced by the schedule analyses in
:mod:`repro.core` and :mod:`repro.baselines` and consumed by
:mod:`repro.perfmodel.costmodel`, the multicore model and the experiment
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.simd.machine import InstructionCounts


@dataclass
class MethodProfile:
    """Steady-state execution profile of one method on one stencil.

    Attributes
    ----------
    method:
        Method key (``"multiple_loads"``, ``"data_reorg"``, ``"dlt"``,
        ``"transpose"``, ``"folded"``, ...).
    stencil:
        Stencil name the profile was derived for.
    isa:
        ``"avx2"`` or ``"avx512"``.
    counts_per_point:
        Vector instructions per grid point per logical time step.
    flops_per_point:
        Useful floating-point operations per grid point per time step (the
        numerator of GFLOP/s).
    sweeps_per_step:
        Full passes over the working set per logical time step (``1.0``
        normally, ``1/m`` with m-step temporal folding).
    layout_overhead_sweeps:
        Extra full read+write passes executed once for the whole run (DLT's
        pre/post transposes); the cost model amortises them over the time
        steps.
    extra_arrays:
        Grid-sized arrays required beyond the two Jacobi arrays (DLT's
        transposed copy).
    temporal_cache_reuse:
        Per-level reuse factors contributed by temporal tiling: a tile kept
        resident in level ``L`` for ``t`` time steps divides traffic through
        ``L`` by ``t``.  Empty when no temporal blocking is applied.
    arrays:
        Number of grid-sized arrays streamed per sweep (2 for Jacobi, 3 for
        APOP which also reads the payoff array).
    notes:
        Free-form description used in reports.
    """

    method: str
    stencil: str
    isa: str
    counts_per_point: InstructionCounts
    flops_per_point: float
    sweeps_per_step: float = 1.0
    layout_overhead_sweeps: float = 0.0
    extra_arrays: int = 0
    temporal_cache_reuse: Dict[str, float] = field(default_factory=dict)
    arrays: int = 2
    notes: str = ""

    def with_tiling(self, reuse: Dict[str, float], notes: Optional[str] = None) -> "MethodProfile":
        """Return a copy of the profile with temporal tiling reuse applied.

        Used by the multicore experiments, which combine every vectorization
        method with a tiling framework (tessellation for ours and the
        tessellation baseline, split tiling for SDSL).
        """
        merged = dict(self.temporal_cache_reuse)
        for level, factor in reuse.items():
            merged[level] = max(merged.get(level, 1.0), float(factor))
        return MethodProfile(
            method=self.method,
            stencil=self.stencil,
            isa=self.isa,
            counts_per_point=self.counts_per_point,
            flops_per_point=self.flops_per_point,
            sweeps_per_step=self.sweeps_per_step,
            layout_overhead_sweeps=self.layout_overhead_sweeps,
            extra_arrays=self.extra_arrays,
            temporal_cache_reuse=merged,
            arrays=self.arrays,
            notes=notes if notes is not None else self.notes,
        )

    @property
    def data_organization_per_point(self) -> float:
        """Shuffle/permute/blend/broadcast instructions per point per step."""
        return self.counts_per_point.data_organization

    @property
    def arithmetic_per_point(self) -> float:
        """Arithmetic vector instructions per point per step."""
        return self.counts_per_point.arithmetic
