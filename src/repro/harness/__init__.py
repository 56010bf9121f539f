"""Experiment harness.

Regenerates every table and figure of the paper's evaluation section:

==========  ===============================================================
artefact    harness entry point
==========  ===============================================================
Figure 8    :func:`repro.harness.experiments.figure8` — sequential
            block-free performance across storage levels, T ∈ {1000, 10000}
Table 2     :func:`repro.harness.experiments.table2` — relative improvement
            per storage level
Figure 9    :func:`repro.harness.experiments.figure9` — multicore
            cache-blocking performance and speedups for the nine benchmarks
Figure 10   :func:`repro.harness.experiments.figure10` — scalability curves
Table 3     :func:`repro.harness.experiments.table3` — 36-core speedups over
            a single core
(extra)     :func:`repro.harness.experiments.pass_ablation` — IR
            pass-pipeline count reductions per stencil × ISA
(extra)     :func:`repro.harness.experiments.measured_vs_estimated` —
            cost-model validation on the kernel backend
==========  ===============================================================

:mod:`repro.harness.runner` exposes a registry keyed by those names and
:mod:`repro.harness.report` renders results as aligned text tables.
"""

from repro.harness.experiments import (
    ExperimentResult,
    figure8,
    table2,
    figure9,
    figure10,
    table3,
    collects_analysis,
    dims3,
    measured_vs_estimated,
    pass_ablation,
)
from repro.harness.runner import EXPERIMENTS, run_experiment, run_all
from repro.harness.report import format_experiment

__all__ = [
    "ExperimentResult",
    "figure8",
    "table2",
    "figure9",
    "figure10",
    "table3",
    "collects_analysis",
    "dims3",
    "measured_vs_estimated",
    "pass_ablation",
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
    "format_experiment",
]
