"""repro — reproduction of "Reducing Redundancy in Data Organization and
Arithmetic Calculation for Stencil Computations" (SC'21).

The package implements the paper's transpose data layout, temporal
computation folding (with shifts reuse, tessellate tiling as a model and
tuner axis, and the linear-regression generalisation for arbitrary
stencils), the baselines it compares against (multiple loads, data
reorganisation, DLT, SDSL) and the substrates needed to evaluate everything
from Python: a simulated SIMD machine with instruction accounting, an
analytic cache model and an analytic multicore performance model mirroring
the paper's Xeon Gold 6140.

Quick start
-----------
>>> import repro
>>> case = repro.get_benchmark("2d9p")
>>> p = repro.plan(case.spec).method("folded").isa("avx2").unroll(2).compile()
>>> grid = case.make_grid()
>>> result = p.run(grid, steps=4)
>>> batch = p.run_batch([case.make_grid(seed=s) for s in range(4)], steps=4)
>>> round(p.folding_report().profitability_optimized, 1)
10.0

Methods are looked up in a pluggable registry
(:mod:`repro.registry`); register new backends with
:func:`~repro.registry.register_method`.  (The legacy ``StencilEngine``
wrapper was removed in 1.5 — see the README migration table.)

Simulated execution (:meth:`~repro.core.plan.CompiledPlan.simulate`) defaults
to the trace-replay backend of :mod:`repro.ir`: the register-level
schedule is recorded once, compiled into a batched NumPy program and replayed
over all block positions per sweep — bit-identical to the instruction-level
interpreter (``backend="interpret"``) and typically orders of magnitude
faster.  ``backend="kernel"`` runs the same program as native SIMD code,
emitted as C and built by the system compiler on first use, from
:mod:`repro.backend`'s process-wide cache keyed by the program's content
(IR replay on a host without a compiler), and :mod:`repro.backend.measure`
puts its measured wall-clock cycles per point next to the cost model's
estimate.

Configuration search is first-class too: ``repro.plan(spec).autotune()``
(or :func:`repro.autotune.autotune`) runs a staged search over
``(method, m, isa, tiling)`` — every candidate is scored with the IR cost
model first, unprofitable ones are pruned with a recorded reason, and only
the top-K survivors are measured on the optimized kernel backend.  The
immutable :class:`~repro.autotune.TuneResult` keeps the full ranked ledger,
so "why was this configuration not chosen" is always one lookup away.

Parameter sweeps are first-class: :func:`repro.study` declares an
experiment grid (method × stencil × ISA × core count × ...), expands the
cross-product, memoizes the profile/estimate pipeline and returns an
immutable queryable :class:`~repro.study.resultset.ResultSet`.  Every
figure and table of the paper's evaluation
(:mod:`repro.harness.experiments`) is a thin study definition over any
:class:`~repro.machine.MachineSpec`.
"""

from repro.machine import (
    MachineSpec,
    MACHINES,
    XEON_GOLD_6140_AVX2,
    XEON_GOLD_6140_AVX512,
    isa_variant,
    machine_for_isa,
    scalability_cores,
)
from repro.methods import METHOD_KEYS, METHOD_LABELS, build_profile
from repro.registry import (
    MethodDescriptor,
    get_method,
    label_for,
    method_keys,
    method_labels,
    register_method,
)
from repro.core.plan import CompiledPlan, PlanBuilder, PlanConfig, plan
from repro.parallel.executor import map_ordered, run_plan_batch
from repro.study import (
    EvalCache,
    Provenance,
    ResultSet,
    StudyBuilder,
    config_hash,
    study,
)
from repro.core.folding import analyze_folding, profitability, folding_matrix
from repro.core.vectorized_folding import FoldingSchedule
from repro.stencils.grid import Grid
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.spec import StencilSpec, StencilShape
from repro.stencils.library import BENCHMARKS, BenchmarkCase, get_benchmark
from repro.stencils.reference import reference_run, reference_step
from repro.tiling.tessellate import TessellationConfig
from repro.perfmodel.costmodel import estimate_performance, PerformanceEstimate
from repro.ir import (
    DEFAULT_PASSES,
    CompiledSweep,
    PassManager,
    ScheduleIR,
    TraceRecorder,
    compile_sweep,
    lower_schedule,
)
from repro.backend import (
    EXECUTION_BACKENDS,
    KernelProgram,
    compile_kernel,
    measure_backend,
    measured_vs_estimated,
)
from repro.autotune import (
    CandidateRecord,
    SearchSpace,
    TuneResult,
    TuningWorkload,
    autotune,
)

__version__ = "1.28.0"

__all__ = [
    "MachineSpec",
    "MACHINES",
    "XEON_GOLD_6140_AVX2",
    "XEON_GOLD_6140_AVX512",
    "machine_for_isa",
    "METHOD_KEYS",
    "METHOD_LABELS",
    "build_profile",
    "MethodDescriptor",
    "get_method",
    "label_for",
    "method_keys",
    "method_labels",
    "register_method",
    "plan",
    "PlanBuilder",
    "PlanConfig",
    "CompiledPlan",
    "run_plan_batch",
    "analyze_folding",
    "profitability",
    "folding_matrix",
    "FoldingSchedule",
    "Grid",
    "BoundaryCondition",
    "StencilSpec",
    "StencilShape",
    "BENCHMARKS",
    "BenchmarkCase",
    "get_benchmark",
    "reference_run",
    "reference_step",
    "TessellationConfig",
    "estimate_performance",
    "PerformanceEstimate",
    "CompiledSweep",
    "ScheduleIR",
    "lower_schedule",
    "PassManager",
    "DEFAULT_PASSES",
    "study",
    "StudyBuilder",
    "ResultSet",
    "EvalCache",
    "Provenance",
    "config_hash",
    "map_ordered",
    "isa_variant",
    "scalability_cores",
    "TraceRecorder",
    "compile_sweep",
    "EXECUTION_BACKENDS",
    "KernelProgram",
    "compile_kernel",
    "measure_backend",
    "measured_vs_estimated",
    "autotune",
    "SearchSpace",
    "TuningWorkload",
    "TuneResult",
    "CandidateRecord",
    "__version__",
]
