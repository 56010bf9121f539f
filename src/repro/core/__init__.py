"""The paper's primary contribution.

* :mod:`repro.core.folding` — the folding matrix Λ, the instruction collects
  ``C(E)`` / ``C(E_Λ)`` and the profitability index of Section 3.2,
* :mod:`repro.core.counterparts` — vertical-folding counterparts and the
  separability analysis behind the single-counterpart fast path,
* :mod:`repro.core.regression` — the linear-regression generalisation of
  Section 3.5 that expresses counterparts as combinations of already
  computed ones for arbitrary (asymmetric) stencils,
* :mod:`repro.core.shifts_reuse` — the shifts-reusing optimisation of
  Section 3.4,
* :mod:`repro.core.vectorized_folding` — the vectorised multi-step schedules
  (Figure 5) on both the simulated SIMD machine and a fast numeric path,
* :mod:`repro.core.fold_kernel` — the compiled C fold kernel that numeric
  path runs, bit-identical to its NumPy body,
* :mod:`repro.core.plan` — the compile-once/run-many public API:
  :func:`~repro.core.plan.plan` (fluent builder) and
  :class:`~repro.core.plan.CompiledPlan` tying methods, tiling, batching and
  the performance model together.

(The deprecated ``StencilEngine`` wrapper was removed in 1.5; migrate with
the README's table — ``StencilEngine(spec, method=..., ...)`` becomes
``repro.plan(spec).method(...)....compile()``.)
"""

from repro.core.folding import (
    folding_matrix,
    collect_naive,
    collect_folded,
    collect_separable,
    profitability,
    ProfitabilityReport,
    analyze_folding,
)
from repro.core.counterparts import (
    CounterpartAnalysis,
    analyze_counterparts,
    separate_kernel,
)
from repro.core.regression import CounterpartPlan, CounterpartStep, plan_counterparts
from repro.core.shifts_reuse import ShiftsReuseReport, shifts_reuse_report
from repro.core.plan import CompiledPlan, PlanBuilder, PlanConfig, plan

__all__ = [
    "CompiledPlan",
    "PlanBuilder",
    "PlanConfig",
    "plan",
    "folding_matrix",
    "collect_naive",
    "collect_folded",
    "collect_separable",
    "profitability",
    "ProfitabilityReport",
    "analyze_folding",
    "CounterpartAnalysis",
    "analyze_counterparts",
    "separate_kernel",
    "CounterpartPlan",
    "CounterpartStep",
    "plan_counterparts",
    "ShiftsReuseReport",
    "shifts_reuse_report",
]
