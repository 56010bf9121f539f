"""The paper's evaluation experiments, as declarative studies.

Each function reproduces one table or figure of Section 4 and returns an
:class:`ExperimentResult` whose rows mirror the series of the original
artefact.  Absolute GFLOP/s values come from the analytic performance model
(the substrate substitution the README's introduction names); the
assertions the benchmark suite makes are about the *shape* of the results —
method orderings, crossover points, scaling behaviour — which is what a
reproduction on a different substrate can meaningfully claim.

Every experiment is a thin :mod:`repro.study` definition: the sweep axes
(method × storage level × ISA × core count × benchmark) are declared on the
study builder, the per-cell metric routes the profile/estimate pipeline
through the study's memoization cache, and the resulting
:class:`~repro.study.resultset.ResultSet` is wrapped in the legacy
:class:`ExperimentResult` row format the benchmark suite consumes.  All
experiments accept

* ``machine=`` — any :class:`~repro.machine.MachineSpec` (the paper's Xeon
  Gold 6140 stays the default); the multicore experiments derive the
  AVX-512 variant via :func:`repro.machine.isa_variant` and sweep core
  counts derived from the target machine's topology
  (:func:`repro.machine.scalability_cores`);
* ``cache=`` — a shared :class:`~repro.study.cache.EvalCache`, so repeated
  cells across experiments (Table 2 replays Figure 8, Table 3 replays
  Figure 10) are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.analytic import problem_size_for_level, sweep_reuse_level
from repro.machine import (
    MachineSpec,
    XEON_GOLD_6140_AVX2,
    isa_variant,
    machine_for_isa,
    scalability_cores,
)
from repro.perfmodel.profiles import MethodProfile
from repro.registry import label_for, method_keys
from repro.stencils.library import BENCHMARKS, BenchmarkCase, get_benchmark
from repro.study import EvalCache, StudyCell, study
from repro.tiling.splittiling import SplitTilingConfig
from repro.tiling.tessellate import TessellationConfig

#: Storage levels of Figure 8, in the order the paper plots them.
STORAGE_LEVELS = ("L1", "L2", "L3", "Memory")

#: Methods of the sequential block-free comparison (Figure 8 / Table 2) —
#: the registry's figure line-up, in the order the paper plots it.
SEQUENTIAL_METHODS = method_keys()

#: Core counts swept by the scalability experiment (Figure 10) on the
#: paper's machine; a non-default ``machine=`` derives its own sweep from
#: its topology via :func:`repro.machine.scalability_cores`.
SCALABILITY_CORES = scalability_cores(XEON_GOLD_6140_AVX2)

#: Benchmarks the SDSL package does not support (Table 3 shows "-").
SDSL_UNSUPPORTED = frozenset({"apop", "game-of-life", "gb"})

#: Series of the multicore experiments (Figure 9 / Figure 10 / Table 3), in
#: the order the paper plots them.
MULTICORE_SERIES = ("sdsl", "tessellation", "transpose", "folded", "folded_avx512")

#: Display label of the paper's "gains with AVX-512" series.
AVX512_LABEL = "Our (2 steps, AVX-512)"


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure plus provenance metadata."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def series(self, key: str) -> List[object]:
        """Column ``key`` across all rows (missing values become ``None``)."""
        return [row.get(key) for row in self.rows]

    def filter(self, **criteria: object) -> List[Dict[str, object]]:
        """Rows matching all ``column=value`` criteria."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

    def to_dict(self) -> Dict[str, object]:
        """Plain-data representation (for ``--json`` serialisation)."""
        return {
            "name": self.name,
            "description": self.description,
            "notes": self.notes,
            "rows": [dict(row) for row in self.rows],
        }


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _resolve_machine(isa: Optional[str], machine: Optional[MachineSpec]) -> MachineSpec:
    """The machine an ISA-parameterised sequential experiment targets.

    ``machine=None`` keeps the paper's Xeon Gold 6140 in the requested ISA
    configuration; an explicit machine is re-derived for the requested ISA
    (a no-op when it already matches).
    """
    if machine is None:
        return machine_for_isa(isa or "avx2")
    if isa is None:
        return machine
    return isa_variant(machine, isa)


def _tiling_from_case(case: BenchmarkCase, spec_radius: int) -> TessellationConfig:
    """Derive the tessellation configuration from a Table 1 blocking entry."""
    dims = len(case.problem_size)
    blocking = case.blocking_size
    spatial = list(blocking[:dims])
    while len(spatial) < dims:
        spatial.append(blocking[-1])
    if len(blocking) > dims:
        time_range = int(blocking[dims])
    else:
        time_range = max(1, min(spatial) // (2 * spec_radius))
    # Clamp the time range so every block satisfies the tessellation
    # feasibility constraint block >= 2 * r * TR.
    feasible = min(b // (2 * spec_radius) for b in spatial)
    time_range = max(1, min(time_range, feasible))
    return TessellationConfig(block_sizes=tuple(spatial), time_range=time_range)


#: Largest time-block depth credited to the SDSL baseline.  Split tiling on
#: the DLT layout pays boundary-column fixups on every tile face at every
#: time level, which keeps its published configurations shallow compared to
#: the tessellation's time ranges.
SDSL_MAX_TIME_RANGE = 8


def _sdsl_config(case: BenchmarkCase, spec_radius: int) -> SplitTilingConfig:
    """Split-tiling configuration of the SDSL baseline for one benchmark."""
    tiling = _tiling_from_case(case, spec_radius)
    return SplitTilingConfig(
        block_size=tiling.block_sizes[0] or case.problem_size[0],
        time_range=min(tiling.time_range, SDSL_MAX_TIME_RANGE),
    )


def _series_inputs(
    case: BenchmarkCase,
    series: str,
    machine_avx2: MachineSpec,
    machine_avx512: MachineSpec,
    cache: EvalCache,
) -> Optional[Tuple[MethodProfile, MachineSpec, Optional[TessellationConfig], str, str]]:
    """Resolve one multicore series for ``case``: profile, machine, tiling, label, isa.

    Returns ``None`` for combinations the paper marks "-" (SDSL on the
    benchmarks the package does not support).  Profiles are memoized through
    ``cache``, so the same series resolved for many core counts is free.
    """
    spec = case.spec
    radius = spec.radius
    tiling = _tiling_from_case(case, radius)
    if series == "sdsl":
        if case.key in SDSL_UNSUPPORTED:
            return None
        profile = cache.profile(
            "sdsl",
            spec,
            isa="avx2",
            config=_sdsl_config(case, radius),
            grid_shape=case.problem_size,
            machine=machine_avx2,
            hybrid_blocks=tiling.block_sizes,
        )
        # Split tiling's temporal reuse is baked into the SDSL profile, so
        # no tessellation config is attached on top.
        return profile, machine_avx2, None, label_for("sdsl"), "avx2"
    if series == "tessellation":
        profile = cache.profile("data_reorg", spec, isa="avx2")
        return profile, machine_avx2, tiling, label_for("tessellation"), "avx2"
    if series == "transpose":
        profile = cache.profile("transpose", spec, isa="avx2")
        return profile, machine_avx2, tiling, label_for("transpose"), "avx2"
    if series == "folded":
        profile = cache.profile("folded", spec, isa="avx2", m=2)
        return profile, machine_avx2, tiling, label_for("folded"), "avx2"
    if series == "folded_avx512":
        profile = cache.profile("folded", spec, isa="avx512", m=2)
        return profile, machine_avx512, tiling, AVX512_LABEL, "avx512"
    raise KeyError(f"unknown multicore series {series!r}")


def _multicore_machines(
    machine: Optional[MachineSpec],
) -> Tuple[MachineSpec, MachineSpec]:
    """Both ISA variants of the multicore experiments' target machine.

    Each variant is derived from the caller's spec directly, so passing an
    AVX-512 (or AVX-2) machine keeps that exact spec for its own series —
    identity matters for cache keys and provenance.
    """
    base = machine if machine is not None else machine_for_isa("avx2")
    return isa_variant(base, "avx2"), isa_variant(base, "avx512")


# --------------------------------------------------------------------------- #
# Figure 8 — sequential block-free performance across storage levels
# --------------------------------------------------------------------------- #
def figure8(
    isa: Optional[str] = None,
    time_steps_values: Sequence[int] = (1000, 10000),
    benchmark: str = "1d-heat",
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Sequential block-free comparison of the five vectorization methods.

    For each storage level a problem size resident in that level is chosen
    (as the paper does — the levels come from the target machine's own cache
    hierarchy) and every method's single-core performance is estimated
    without any spatial/temporal blocking, for both total time-step counts
    the paper examines.
    """
    machine = _resolve_machine(isa, machine)
    isa = machine.isa
    case = get_benchmark(benchmark)
    spec = case.spec
    description = (
        "Absolute performance (GFLOP/s) of the vectorization methods in "
        "single-thread blocking-free runs, by storage level"
    )
    notes = f"stencil={spec.name}, isa={isa}"
    if not tuple(time_steps_values):
        # An empty selection is a legal (empty) sweep, not an error.
        return ExperimentResult(name="figure8", description=description, notes=notes)

    def metric(cell: StudyCell) -> Dict[str, object]:
        npoints = problem_size_for_level(cell.machine, cell["level"], bytes_per_point=16.0)
        profile = cell.cache.profile(cell["method"], spec, isa=isa, m=2)
        est = cell.cache.estimate(
            profile, npoints=npoints, time_steps=cell["time_steps"], machine=cell.machine
        )
        return {
            "time_steps": cell["time_steps"],
            "level": cell["level"],
            "method": cell["method"],
            "label": label_for(cell["method"]),
            "npoints": npoints,
            "gflops": est.gflops,
            "bound": est.bound,
        }

    result = (
        study("figure8")
        .over(
            time_steps=tuple(time_steps_values),
            level=STORAGE_LEVELS,
            method=SEQUENTIAL_METHODS,
        )
        .on(machine)
        .metric(metric)
        .cache(cache)
        .run()
    )
    return result.to_experiment(name="figure8", description=description, notes=notes)


# --------------------------------------------------------------------------- #
# Table 2 — relative improvements per storage level
# --------------------------------------------------------------------------- #
def table2(
    isa: Optional[str] = None,
    benchmark: str = "1d-heat",
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Relative improvement of every method over multiple loads, per level.

    Reproduces Table 2: one row per storage level plus the mean row, with
    multiple loads normalised to 1.00x in every row.
    """
    base = figure8(
        isa=isa,
        time_steps_values=(1000,),
        benchmark=benchmark,
        machine=machine,
        cache=cache,
    )
    result = ExperimentResult(
        name="table2",
        description="Performance improvements relative to the multiple-loads method",
        notes=base.notes,
    )
    ratios_per_method: Dict[str, List[float]] = {m: [] for m in SEQUENTIAL_METHODS}
    for level in STORAGE_LEVELS:
        rows = base.filter(level=level, time_steps=1000)
        by_method = {row["method"]: row["gflops"] for row in rows}
        reference = by_method["multiple_loads"]
        entry: Dict[str, object] = {"level": level}
        for method in SEQUENTIAL_METHODS:
            ratio = by_method[method] / reference
            entry[method] = ratio
            ratios_per_method[method].append(ratio)
        result.rows.append(entry)
    mean_row: Dict[str, object] = {"level": "Mean"}
    for method in SEQUENTIAL_METHODS:
        mean_row[method] = float(np.mean(ratios_per_method[method]))
    result.rows.append(mean_row)
    return result


# --------------------------------------------------------------------------- #
# Figure 9 — multicore cache-blocking performance and speedups
# --------------------------------------------------------------------------- #
def figure9(
    cores: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Multicore cache-blocking comparison over the nine benchmarks.

    For every benchmark of Table 1 the SDSL baseline, the tessellation
    baseline, our transpose-layout method and our 2-step folded method are
    evaluated with AVX-2, plus the folded method with AVX-512 (the paper's
    "gains with AVX-512" series).  Speedups are reported relative to the
    first method available for the benchmark (SDSL where supported,
    tessellation otherwise), mirroring the paper's normalisation.
    """
    machine_avx2, machine_avx512 = _multicore_machines(machine)
    if cores is None:
        cores = machine_avx2.total_cores

    def metric(cell: StudyCell) -> Optional[Dict[str, object]]:
        case = get_benchmark(cell["key"])
        resolved = _series_inputs(
            case, cell["series"], machine_avx2, machine_avx512, cell.cache
        )
        if resolved is None:
            return None
        profile, mach, tiling, label, isa = resolved
        est = cell.cache.multicore(
            profile,
            grid_shape=case.problem_size,
            time_steps=case.time_steps,
            machine=mach,
            cores=cores,
            radius=case.spec.radius,
            tiling=tiling,
        )
        return {
            "benchmark": case.display_name,
            "key": case.key,
            "method": cell["series"],
            "label": label,
            "isa": isa,
            "gflops": est.gflops,
        }

    swept = (
        study("figure9")
        .over(key=tuple(BENCHMARKS), series=MULTICORE_SERIES)
        .on(machine_avx2)
        .metric(metric)
        .cache(cache)
        .run()
    )
    result = swept.to_experiment(
        name="figure9",
        description="Multicore cache-blocking performance (GFLOP/s) and speedups",
        notes=f"cores={cores}",
    )
    # The paper normalises each benchmark's bars to its first available
    # series; this needs the whole benchmark group, so it runs as a
    # post-pass over the (ordered) sweep rows.
    base_gflops: Dict[str, float] = {}
    for row in result.rows:
        base = base_gflops.setdefault(row["key"], row["gflops"])
        row["speedup"] = row["gflops"] / base
    return result


# --------------------------------------------------------------------------- #
# Figure 10 — scalability
# --------------------------------------------------------------------------- #
def figure10(
    cores_list: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Scalability curves (GFLOP/s versus active cores) for every benchmark.

    ``cores_list`` defaults to a sweep derived from the target machine's
    core topology (:func:`repro.machine.scalability_cores`) — the paper's
    ``(1, 2, 4, 8, 12, 18, 24, 30, 36)`` on the default Xeon Gold 6140.
    """
    machine_avx2, machine_avx512 = _multicore_machines(machine)
    if cores_list is None:
        cores_list = scalability_cores(machine_avx2)
    cores_list = tuple(cores_list)
    keys = tuple(benchmarks) if benchmarks is not None else tuple(BENCHMARKS)
    if not keys or not cores_list:
        # An empty selection is a legal (empty) sweep, not an error.
        return ExperimentResult(
            name="figure10",
            description="Scalability of the tiled methods",
            notes=f"cores={cores_list}",
        )

    def metric(cell: StudyCell) -> Optional[Dict[str, object]]:
        case = get_benchmark(cell["key"])
        resolved = _series_inputs(
            case, cell["series"], machine_avx2, machine_avx512, cell.cache
        )
        if resolved is None:
            return None
        profile, mach, tiling, label, _isa = resolved
        est = cell.cache.multicore(
            profile,
            grid_shape=case.problem_size,
            time_steps=case.time_steps,
            machine=mach,
            cores=cell["cores"],
            radius=case.spec.radius,
            tiling=tiling,
        )
        return {
            "benchmark": case.display_name,
            "key": case.key,
            "method": cell["series"],
            "label": label,
            "cores": cell["cores"],
            "gflops": est.gflops,
        }

    swept = (
        study("figure10")
        .over(key=keys, series=MULTICORE_SERIES, cores=cores_list)
        .on(machine_avx2)
        .metric(metric)
        .cache(cache)
        .run()
    )
    return swept.to_experiment(
        name="figure10",
        description=f"Scalability of the tiled methods from 1 to {max(cores_list)} cores",
        notes=f"cores={cores_list}",
    )


# --------------------------------------------------------------------------- #
# Table 3 — speedup over a single core at 36 cores
# --------------------------------------------------------------------------- #
def table3(
    cores: Optional[int] = None,
    benchmarks: Optional[Sequence[str]] = None,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Speedup over a single core for every stencil and method (Table 3)."""
    machine_avx2, _ = _multicore_machines(machine)
    if cores is None:
        cores = machine_avx2.total_cores
    scal = figure10(
        cores_list=(1, cores),
        benchmarks=benchmarks,
        machine=machine,
        cache=cache,
    )
    result = ExperimentResult(
        name="table3",
        description=f"Speedup over single core at {cores} cores",
        notes=scal.notes,
    )
    keys = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)
    for method in MULTICORE_SERIES:
        entry: Dict[str, object] = {"method": label_for(method, default=method)}
        for key in keys:
            case = get_benchmark(key)
            rows = scal.filter(key=key, method=method)
            if not rows:
                entry[case.display_name] = None
                continue
            by_cores = {row["cores"]: row["gflops"] for row in rows}
            if 1 not in by_cores or cores not in by_cores:
                entry[case.display_name] = None
                continue
            entry[case.display_name] = by_cores[cores] / by_cores[1]
        result.rows.append(entry)
    return result


# --------------------------------------------------------------------------- #
# Section 3.2 — collects / profitability analysis
# --------------------------------------------------------------------------- #
def collects_analysis(
    m: int = 2,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Arithmetic-collect analysis (Section 3.2) for every linear benchmark.

    Reports ``|C(E)|``, ``|C(E_Λ)|`` (plain and optimised) and the
    profitability index; for the paper's 2-step 9-point box the row is
    90 / 25 / 9 / 10.0.
    """
    linear_keys = tuple(key for key, case in BENCHMARKS.items() if case.spec.linear)

    def metric(cell: StudyCell) -> Dict[str, object]:
        case = get_benchmark(cell["key"])
        report = cell.cache.folding(case.spec, m)
        return {
            "benchmark": case.display_name,
            "collect_naive": report.collect_naive,
            "collect_folded": report.collect_folded,
            "collect_optimized": report.collect_optimized,
            "separable": report.separable,
            "profitability": report.profitability_optimized,
        }

    swept = (
        study("collects")
        .over(key=linear_keys)
        .metric(metric)
        .cache(cache)
        .run()
    )
    return swept.to_experiment(
        name="collects",
        description="Arithmetic collects and profitability of temporal folding",
        notes=f"m={m}",
    )


# --------------------------------------------------------------------------- #
# IR pass ablation — optimizing-pipeline count reductions per stencil × ISA
# --------------------------------------------------------------------------- #
#: Canonical per-dimensionality grid shapes of the pass-ablation sweep
#: (small enough to stay cheap, large enough that the prologue amortises).
_ABLATION_SHAPES = {
    1: lambda vl: (16 * vl * vl,),
    2: lambda vl: (8 * vl, 8 * vl),
    3: lambda vl: (4, 4 * vl, 4 * vl),
}


def pass_ablation(
    stencils: Sequence[str] = ("1d-heat", "1d5p", "2d9p", "2d-heat", "gb", "3d-heat"),
    m: int = 2,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """Per-sweep instruction reduction of the IR pass pipeline, per stencil × ISA.

    Every linear benchmark whose folded schedule the register-level
    constructions can express is lowered to the typed IR, run through the
    default optimizing pipeline (:data:`repro.ir.passes.DEFAULT_PASSES`) and
    accounted on a canonical grid: the rows report unoptimized vs optimized
    per-sweep totals, the data-organisation and spill deltas, and which pass
    removed how many static instructions.  Cells the IR cannot express
    (non-linear stencils, folded radius beyond the vector length) are
    skipped, mirroring the paper's "-" entries.
    """
    from repro.core.vectorized_folding import FoldingSchedule
    from repro.ir.lower import lower_schedule
    from repro.ir.passes import PassManager
    from repro.simd.isa import isa_for

    def metric(cell: StudyCell) -> Optional[Dict[str, object]]:
        case = get_benchmark(cell["stencil"])
        spec = case.spec
        isa = isa_for(cell["isa"])
        if not spec.linear:
            return None

        def analyse():
            schedule = FoldingSchedule(spec, m)
            if schedule.radius > isa.vector_lanes:
                return None
            shape = _ABLATION_SHAPES[spec.dims](isa.vector_lanes)
            ir = lower_schedule(schedule, isa)
            opt, reports = PassManager(True).run(ir)
            base, _, base_spills = ir.sweep_counts(shape if spec.dims > 1 else shape[0])
            best, _, best_spills = opt.sweep_counts(shape if spec.dims > 1 else shape[0])
            row: Dict[str, object] = {
                "benchmark": case.display_name,
                "isa": isa.name,
                "unoptimized": base.total,
                "optimized": best.total,
                "reduction_pct": 100.0 * (1.0 - best.total / base.total),
                "data_org_saved": base.data_organization - best.data_organization,
                "spills_saved": base_spills - best_spills,
            }
            for report in reports:
                row[report.name] = float(
                    report.counts_after.total - report.counts_before.total
                )
            return row

        return cell.cache.memoize(
            "pass-ablation", (case.key, isa.name, m), analyse
        )

    swept = (
        study("pass_ablation")
        .over(stencil=tuple(stencils), isa=("avx2", "avx512"))
        .metric(metric)
        .cache(cache)
        .run()
    )
    return swept.to_experiment(
        name="pass_ablation",
        description=(
            "IR pass-pipeline ablation: per-sweep instruction counts of the "
            "folded schedules, unoptimized vs optimized"
        ),
        notes=f"m={m}, passes=default pipeline",
    )


# --------------------------------------------------------------------------- #
# 3-D stencils — method × ISA sweep over the Table 1 3-D benchmarks
# --------------------------------------------------------------------------- #
def dims3(
    stencils: Sequence[str] = ("3d-heat", "3d27p"),
    m: int = 2,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """3-D benchmark sweep: every lineup method × both ISAs at paper scale.

    Sweeps the paper's 3-D stencils (7-point heat, 27-point box) through the
    full method lineup on both ISA variants of the target machine, at the
    Table 1 problem sizes.  Each row also reports the sweep's neighbour-reuse
    slab residency (:func:`repro.cache.analytic.sweep_reuse_level`) — for 3-D
    stencils the slab is a pair of grid planes, which is what pushes their
    streaming reuse out of the inner cache levels and makes the folded
    method's sweep reduction count double.
    """
    machine_avx2, machine_avx512 = _multicore_machines(machine)
    machines = {"avx2": machine_avx2, "avx512": machine_avx512}

    def metric(cell: StudyCell) -> Dict[str, object]:
        case = get_benchmark(cell["stencil"])
        spec = case.spec
        isa = cell["isa"]
        target = machines[isa]
        profile = cell.cache.profile(cell["method"], spec, isa=isa, m=m)
        npoints = int(np.prod(case.problem_size))
        est = cell.cache.estimate(
            profile, npoints=npoints, time_steps=case.time_steps, machine=target
        )
        return {
            "benchmark": case.display_name,
            "stencil": spec.name,
            "isa": isa,
            "method": cell["method"],
            "label": label_for(cell["method"]),
            "gflops": est.gflops,
            "bound": est.bound,
            "residency": est.residency,
            "reuse_level": sweep_reuse_level(case.problem_size, target, spec.radius),
        }

    result = (
        study("dims3")
        .over(stencil=tuple(stencils), isa=("avx2", "avx512"), method=SEQUENTIAL_METHODS)
        .on(machine_avx2)
        .metric(metric)
        .cache(cache)
        .run()
    )
    return result.to_experiment(
        name="dims3",
        description=(
            "3-D stencils: method lineup × ISA at the Table 1 problem sizes, "
            "with neighbour-reuse slab residency"
        ),
        notes=f"m={m}, stencils={', '.join(stencils)}",
    )


# --------------------------------------------------------------------------- #
# measured vs estimated — cost-model validation on the kernel backend
# --------------------------------------------------------------------------- #
def measured_vs_estimated(
    stencils: Sequence[str] = ("1d-heat", "2d9p", "3d-heat"),
    m: int = 2,
    steps: Optional[int] = None,
    backend: str = "kernel",
    repeats: int = 3,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
    clock=None,
) -> ExperimentResult:
    """Estimated vs measured cycles per point, per stencil × ISA, one axis.

    Every cell compiles the folded plan, asks the cost model for its
    predicted cycles per point, then *measures* the same workload on the
    kernel backend (:mod:`repro.backend`) — warmup + repeated
    timed runs, median — and converts the measurement with the estimate's
    effective frequency so both figures sit on the cost model's axis.  The
    ``measured_over_estimated`` ratio is the gap between the model and the
    kernel's native program on this host (NumPy replay on a host without a
    C compiler); rows where it approaches 1 are where the model is
    validated against the hardware rather than merely predictive.  Cells the register-level
    schedule cannot express (non-linear stencils, folded radius beyond the
    vector length) are skipped.

    ``clock`` injects the timing source (:mod:`repro.backend.measure`), which
    is how the test suite runs this experiment deterministically.  Timings
    are memoized per (stencil, isa, m, steps, backend, repeats) within the
    study cache — share a cache across calls only when re-measuring is not
    the point.
    """
    from repro.backend.measure import measured_vs_estimated as compare
    from repro.core.plan import plan as build_plan
    from repro.core.vectorized_folding import FoldingSchedule
    from repro.simd.isa import isa_for
    from repro.stencils.grid import Grid

    machine_avx2, machine_avx512 = _multicore_machines(machine)
    time_steps = steps if steps is not None else 2 * m

    def metric(cell: StudyCell) -> Optional[Dict[str, object]]:
        case = get_benchmark(cell["stencil"])
        spec = case.spec
        isa = isa_for(cell["isa"])
        if not spec.linear:
            return None

        def measure():
            if FoldingSchedule(spec, m).radius > isa.vector_lanes:
                return None
            compiled = build_plan(spec).method("folded").isa(isa.name).unroll(m).compile()
            shape = _ABLATION_SHAPES[spec.dims](isa.vector_lanes)
            grid = Grid.random(shape, seed=0)
            report = compare(
                compiled,
                grid,
                time_steps,
                backend=backend,
                machine=machine_avx512 if isa.name == "avx512" else machine_avx2,
                repeats=repeats,
                clock=clock,
            )
            return {
                "benchmark": case.display_name,
                "isa": isa.name,
                "estimated_cycles_per_point": report["estimated_cycles_per_point"],
                "measured_cycles_per_point": report["measured_cycles_per_point"],
                "measured_over_estimated": report["measured_over_estimated"],
                "median_seconds": report["median_seconds"],
                "frequency_ghz": report["frequency_ghz"],
                "bound": report["bound"],
            }

        return cell.cache.memoize(
            "measured-vs-estimated",
            (case.key, isa.name, m, time_steps, backend, repeats),
            measure,
        )

    swept = (
        study("measured_vs_estimated")
        .over(stencil=tuple(stencils), isa=("avx2", "avx512"))
        .metric(metric)
        .cache(cache)
        .run()
    )
    return swept.to_experiment(
        name="measured_vs_estimated",
        description=(
            "Cost-model validation: estimated vs measured cycles per point "
            f"on the {backend} execution backend"
        ),
        notes=f"m={m}, steps={time_steps}, backend={backend}, repeats={repeats}",
    )


# --------------------------------------------------------------------------- #
# autotune lineup — the staged tuner vs the hand-picked study-table configs
# --------------------------------------------------------------------------- #
def autotune_lineup(
    stencils: Optional[Sequence[str]] = None,
    machine: Optional[MachineSpec] = None,
    cache: Optional[EvalCache] = None,
) -> ExperimentResult:
    """The staged tuner against every hand-picked study-table configuration.

    The paper (and every experiment above) fixes its configurations by hand:
    each method at ``m = 2`` on the benchmark's own workload.  This
    experiment runs :func:`repro.autotune.autotune` (predict-only,
    ``budget=0`` — the ranking is the IR cost model's, so the rows are
    machine-independent and deterministic) over every linear library stencil
    on both ISAs and puts the tuned winner next to the *best* hand-picked
    config, scored through the same cached estimate path.  The tuned cost
    must be at or below the hand-picked cost in every row: the tuner's
    search space contains every hand-picked configuration, so any regression
    here means the predict stage scores the same configuration differently
    — exactly the scoring drift the staged redesign removed.
    """
    from repro.autotune.space import TuningWorkload
    from repro.autotune.tuner import autotune

    cache = cache if cache is not None else EvalCache()
    keys = tuple(stencils) if stencils else tuple(
        key for key in BENCHMARKS if get_benchmark(key).spec.linear
    )
    result = ExperimentResult(
        name="autotune_lineup",
        description=(
            "Tuned configuration vs the best hand-picked study-table config "
            "(predicted cycles per point, per stencil x ISA)"
        ),
        notes="budget=0 (predict-only), hand-picked lineup = each method at m=2",
    )
    for key in keys:
        case = get_benchmark(key)
        spec = case.spec
        workload = TuningWorkload.for_spec(spec)
        for isa in ("avx2", "avx512"):
            tuned = autotune(
                spec,
                machine=machine,
                budget=0,
                space=None,
                workload=workload,
                cache=cache,
                isas=(isa,),
                label=key,
            )
            scoring_machine = (
                machine_for_isa(isa) if machine is None else isa_variant(machine, isa)
            )
            hand_picked: List[Tuple[str, float]] = []
            for method in SEQUENTIAL_METHODS:
                try:
                    profile = cache.profile(method, spec, isa=isa, m=2)
                    estimate = cache.multicore(
                        profile,
                        workload.shape,
                        workload.time_steps,
                        scoring_machine,
                        workload.cores,
                        spec.radius,
                    )
                except (KeyError, ValueError):
                    continue  # method cannot express this stencil
                hand_picked.append((method, float(estimate.cycles_per_point)))
            if not hand_picked:
                continue
            hand_method, hand_cycles = min(hand_picked, key=lambda pair: pair[1])
            winner = tuned.winner
            result.rows.append(
                {
                    "benchmark": case.display_name,
                    "stencil": key,
                    "isa": isa,
                    "tuned_method": winner.method,
                    "tuned_m": winner.m,
                    "tuned_cycles_per_point": winner.predicted_cycles_per_point,
                    "hand_picked_method": hand_method,
                    "hand_picked_cycles_per_point": hand_cycles,
                    "improvement": hand_cycles / winner.predicted_cycles_per_point,
                    "candidates": tuned.generated,
                    "pruned_fraction": tuned.pruned_fraction,
                }
            )
    return result
