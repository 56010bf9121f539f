"""Schedule IR: the typed vector IR behind the execution stack.

The IR is the single source of truth for everything downstream of a
register-level folding schedule:

* :mod:`repro.ir.ops` — the typed IR (:class:`IrOp` /
  :class:`IrSegment` / :class:`ScheduleIR`) with derived instruction
  accounting,
* :mod:`repro.ir.recorder` — :class:`TraceRecorder`, the
  :class:`~repro.simd.machine.SimdMachine` proxy that records a schedule's
  instruction stream as IR segments instead of executing it,
* :mod:`repro.ir.lower` — :func:`lower_schedule`, producing the IR once per
  ``(schedule, isa, dims)`` by running the schedule's own pipeline pieces
  against the trace recorder,
* :mod:`repro.ir.dependency` — the per-segment :class:`DependencyGraph`
  (def-use edges plus :class:`MemoryRef` alias analysis over the memory
  tags) the ``reschedule`` pass schedules from,
* :mod:`repro.ir.passes` — the optimizing pass pipeline
  (:class:`PassManager`; CSE, shuffle coalescing, multiply–add fusion, DCE,
  loop-invariant hoisting and graph-driven re-scheduling), every pass
  preserving bit-identical replay,
* :mod:`repro.ir.executor` — :class:`CompiledSweep`, the dimension-generic
  batched replay engine (:func:`compile_sweep`).

Consumers: :meth:`repro.core.plan.CompiledPlan.simulate` replays the IR,
:class:`~repro.simd.machine.InstructionCounts` are derived from it, the
port-pressure cost model reads its steady-state per-point mix
(:meth:`ScheduleIR.steady_counts_per_point` via
:meth:`~repro.core.vectorized_folding.FoldingSchedule.instruction_profile`)
and the cache layer expands its memory tags into exact address streams
(:mod:`repro.cache.irprofile`).
"""

from repro.ir.dependency import DependencyGraph, MemoryRef
from repro.ir.executor import CompiledSweep, compile_sweep
from repro.ir.lower import lower_schedule
from repro.ir.ops import IrOp, IrSegment, ScheduleIR
from repro.ir.recorder import TraceRecorder, TraceReg
from repro.ir.passes import (
    DEFAULT_PASSES,
    PassManager,
    PassReport,
    coalesce_shuffles,
    common_subexpression_elimination,
    dead_code_elimination,
    fuse_multiply_add,
    hoist_loop_invariants,
    reschedule_register_pressure,
)

__all__ = [
    "IrOp",
    "IrSegment",
    "ScheduleIR",
    "TraceRecorder",
    "TraceReg",
    "lower_schedule",
    "CompiledSweep",
    "compile_sweep",
    "DependencyGraph",
    "MemoryRef",
    "PassManager",
    "PassReport",
    "DEFAULT_PASSES",
    "common_subexpression_elimination",
    "coalesce_shuffles",
    "fuse_multiply_add",
    "dead_code_elimination",
    "hoist_loop_invariants",
    "reschedule_register_pressure",
]
