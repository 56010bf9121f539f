"""Grid workloads: folded ``run()`` and the SIMD engines against ``reference_run``.

Every case is timed interleaved with ``reference_run`` on the same grid and
steps, round after round, so host drift moves both sides of each ratio
together.  Every output is checked: each path against the same round's
reference within a float64 tolerance fixed in advance, and the trace and
kernel engines bit-for-bit against each other.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import layers
from perfbench.spans import Tracer, self_times
from perfbench.stats import Tally, geomean, median, paired_ratio, timed

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Case:
    """One grid problem: stencil, grid shape, fold factor m, ISA and steps."""

    stencil: str
    shape: Tuple[int, ...]
    m: int
    isa: str
    steps: int
    periodic: bool

    @property
    def name(self) -> str:
        return self.stencil

    @property
    def points(self) -> int:
        return math.prod(self.shape)

    @property
    def input_bytes(self) -> int:
        return 8 * self.points

    @property
    def updates(self) -> int:
        """Point-updates of one run: every point, every step."""
        return self.points * self.steps


# Input arrays 3-8x the 2 MiB per-core L2 (they fit the shared L3), steps a
# multiple of m.  Resized from 2^21 points and 8 steps: the engines take
# 2-5x reference time and every call jitters by 10-20% on a shared host, so
# a run needs many interleaved calls for steady medians.  1d5p at 2^20
# points (8 MiB) is still 4x L2; 4 steps are 2 sweeps at m=2 and 1 at m=4,
# the paper's steady regime.
PERIODIC_LARGE = (
    Case("1d5p", (1 << 20,), 2, "avx512", 4, True),
    Case("2d9p", (1024, 1024), 2, "avx2", 4, True),
    Case("2d-heat", (1024, 1024), 4, "avx512", 4, True),
    Case("3d-heat", (96, 96, 96), 2, "avx2", 4, True),
    Case("3d27p", (96, 96, 96), 2, "avx512", 4, True),
)

# Inputs that fit L2, odd steps so every run ends in remainder reference
# steps, Dirichlet boundaries so every folded update recomputes its band.
DIRICHLET_SMALL = (
    Case("1d5p", (1 << 14,), 2, "avx512", 17, False),
    Case("2d9p", (256, 256), 2, "avx2", 17, False),
    Case("2d-heat", (256, 256), 4, "avx512", 19, False),
    Case("3d-heat", (48, 48, 48), 2, "avx2", 17, False),
    Case("3d27p", (32, 32, 32), 2, "avx512", 9, False),
)

ENGINES = ("trace", "kernel")

#: workload -> (cases, timed paths besides the reference)
WORKLOADS = {
    "periodic-large": (PERIODIC_LARGE, ("run",)),
    "periodic-engines": (PERIODIC_LARGE, ENGINES),
    "dirichlet-small": (DIRICHLET_SMALL, ("run",)),
}

#: Cold set-up samples taken after each round: compile() alone costs a few
#: ms, so the run-path workloads take several; a sample with engine builds
#: costs ~0.4 s, so the engines take one every other round.
SETUP_PER_ROUND = {"periodic-large": 4, "periodic-engines": 0.5, "dirichlet-small": 4}

# Span names of the traced run, one per wrapped library function.
GRID_HOOKS = (
    ("repro.core.plan:PlanBuilder", "compile", "core.compile"),
    ("repro.core.plan:CompiledPlan", "run", "core.run"),
    ("repro.core.plan:CompiledPlan", "simulate", "core.simulate"),
    ("repro.core.vectorized_folding:FoldingSchedule", "numpy_step", "core.fold_update"),
    ("repro.core.plan", "_fix_dirichlet_band", "core.band_fix"),
    ("repro.core.plan", "reference_step", "stencils.reference_step"),
    ("repro.stencils.reference", "reference_step", "stencils.reference_step"),
    ("repro.core.plan", "compile_sweep", "ir.trace_build"),
    ("repro.ir.lower", "lower_schedule", "ir.lower"),
    ("repro.ir.passes:PassManager", "run", "ir.passes"),
    ("repro.ir.executor:CompiledSweep", "replay", "ir.replay_sweep"),
    ("repro.backend.codegen", "compile_kernel", "backend.kernel_build"),
    ("repro.backend.codegen:KernelProgram", "replay", "backend.kernel_sweep"),
    ("repro.core.plan", "to_transpose_layout", "layout.to"),
    ("repro.core.plan", "from_transpose_layout", "layout.from"),
)


def install_hooks(tracer: Tracer) -> None:
    import importlib

    for target, attr, name in GRID_HOOKS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name)


def tolerance(case: Case, npoints: int, reference: np.ndarray) -> float:
    """Largest accepted |path - reference|, fixed before any run.

    A step sums ``npoints`` float64 products, so its forward error is at most
    ``npoints`` ulps of the largest magnitude; the steps add up.
    """
    return case.steps * npoints * EPS * max(1.0, float(np.max(np.abs(reference))))


def make_grid(case: Case, seed: int, index: int):
    from repro.stencils.boundary import BoundaryCondition
    from repro.stencils.grid import Grid

    boundary = BoundaryCondition.PERIODIC if case.periodic else BoundaryCondition.DIRICHLET
    return Grid.random(case.shape, boundary=boundary, seed=seed * 1000 + index)


def _tiny_grid(case: Case, vl: int):
    """Smallest periodic grid an engine accepts, to build it without a sweep."""
    from repro.stencils.grid import Grid

    shape = {1: (2 * vl * vl,), 2: (2 * vl, 2 * vl), 3: (2, 2 * vl, 2 * vl)}[len(case.shape)]
    return Grid.random(shape, seed=0)


def setup_sample(cases: Sequence[Case], engines: Sequence[str], tracer: Optional[Tracer] = None):
    """One cold set-up: compile every plan, then build each measured engine.

    Returns ``(seconds, plans)``.  The counterpart and kernel caches are
    cleared first so each sample pays the full cost.
    """
    import repro
    from repro.backend import clear_kernel_cache
    from repro.core.regression import clear_counterpart_cache

    clear_counterpart_cache()
    clear_kernel_cache()
    gc.collect()
    plans = []

    def build() -> None:
        for case in cases:
            if tracer is not None:
                tracer.tag = case.name
            plan = repro.plan(case.stencil).method("folded").isa(case.isa).unroll(case.m).compile()
            if engines:
                tiny = _tiny_grid(case, plan.isa_spec.vector_lanes)
                for engine in engines:
                    plan.simulate(tiny, case.m, backend=engine, optimize=True)
            plans.append(plan)
        if tracer is not None:
            tracer.tag = None

    seconds, _ = timed(build)
    return seconds, plans


def _call(path: str, plan, case: Case, grid, tracer: Optional[Tracer]) -> Callable[[], np.ndarray]:
    from repro.stencils.reference import reference_run

    if path == "reference":
        if tracer is not None:
            return lambda: tracer.call("stencils.reference_run", reference_run, plan.spec, grid, case.steps)
        return lambda: reference_run(plan.spec, grid, case.steps)
    if path == "run":
        return lambda: plan.run(grid, case.steps)
    return lambda: plan.run(grid, case.steps, backend=path, optimize=True)


def _check_outputs(
    case: Case, plan, outputs: Dict[str, np.ndarray], tally: Tally, engine_outputs: Dict[str, np.ndarray]
) -> None:
    """Each path against this round's reference; each engine bit-for-bit
    against the other engine's latest output on the same grid and steps."""
    reference = outputs["reference"]
    tally.check(
        reference.shape == case.shape and bool(np.all(np.isfinite(reference))),
        f"{case.name}: reference output malformed",
    )
    tol = tolerance(case, plan.spec.npoints, reference)
    for path, values in outputs.items():
        if path == "reference":
            continue
        err = float(np.max(np.abs(values - reference))) if values.shape == reference.shape else math.inf
        tally.check(err <= tol, f"{case.name}: {path} differs from reference_run by {err:.3g} > {tol:.3g}")
    for engine in ENGINES:
        if engine not in outputs:
            continue
        engine_outputs[engine] = outputs[engine]
        other = engine_outputs.get(ENGINES[1 - ENGINES.index(engine)])
        if other is not None:
            tally.check(
                np.array_equal(outputs[engine], other),
                f"{case.name}: trace and kernel outputs are not bit-identical",
            )


@dataclass
class Samples:
    """Per-case, per-path seconds of the timed rounds; every round times
    each path once, so the i-th sample of a path pairs with the i-th
    reference sample of its case."""

    seconds: Dict[str, Dict[str, List[float]]]
    paths: Tuple[str, ...]

    @classmethod
    def empty(cls, cases: Sequence[Case], paths: Sequence[str]) -> "Samples":
        return cls({case.name: {p: [] for p in ("reference", *paths)} for case in cases}, tuple(paths))

    def ratios(self) -> Dict[Tuple[str, str], float]:
        """Median over rounds of reference / path seconds, per (case, path)."""
        return {
            (case, path): paired_ratio(per["reference"], per[path])
            for case, per in self.seconds.items()
            for path in self.paths
        }

    def throughput(self) -> float:
        """Reference seconds of every timed call's round over the seconds
        the calls took: the work rate in reference units."""
        ref = sum(sum(per["reference"]) * len(self.paths) for per in self.seconds.values())
        spent = sum(sum(per[path]) for per in self.seconds.values() for path in self.paths)
        return ref / spent

    def count(self) -> int:
        return min(len(per["reference"]) for per in self.seconds.values())


def run_round(
    cases: Sequence[Case],
    plans: Sequence,
    grids: Sequence,
    round_index: int,
    samples: Samples,
    tally: Tally,
    engine_outputs: Dict[str, Dict[str, np.ndarray]],
    tracer: Optional[Tracer] = None,
    calls: Optional[List[Tuple[str, str, int, int]]] = None,
) -> None:
    """Time each path of every case once, in a rotated order, and check it.

    With a tracer, ``calls`` receives ``(case, path, first span, end span)``
    for each timed call, so its spans can be attributed afterwards.
    """
    gc.collect()
    n = len(cases)
    paths = ("reference", *samples.paths)
    for k in range(n):
        i = (k + round_index) % n
        case, plan, grid = cases[i], plans[i], grids[i]
        rot = round_index % len(paths)
        outputs: Dict[str, np.ndarray] = {}
        if tracer is not None:
            tracer.tag = case.name
        for path in paths[rot:] + paths[:rot]:
            first = len(tracer.spans) if tracer is not None else 0
            seconds, values = timed(_call(path, plan, case, grid, tracer))
            if tracer is not None and calls is not None:
                calls.append((case.name, path, first, len(tracer.spans)))
            samples.seconds[case.name][path].append(seconds)
            outputs[path] = values
        _check_outputs(case, plan, outputs, tally, engine_outputs.setdefault(case.name, {}))
    if tracer is not None:
        tracer.tag = None


# --------------------------------------------------------------------------- #
# exact counts (model and computed numbers, labelled as such)
# --------------------------------------------------------------------------- #
def static_counts(plan, shape: Tuple[int, ...], m: int) -> Dict[str, float]:
    """Steady-segment IR ops before/after DEFAULT_PASSES and simulated
    instructions per point-update (model output); exact, seed-independent.
    The IR is the plan's, whatever the boundary of the grids it runs on."""
    from repro.ir.passes import DEFAULT_PASSES, PassManager

    raw = plan.schedule.schedule_ir(plan.isa_spec.vector_lanes)
    opt, _ = PassManager(DEFAULT_PASSES).run(raw)

    def steady(ir) -> float:
        return float(sum(seg.op_counts().total for seg in ir.segments if seg.trip != "once"))

    counts, _, _ = opt.sweep_counts(shape)
    return {
        "ir.static_ops_raw": steady(raw),
        "ir.static_ops_opt": steady(opt),
        "ir.sim_instr_per_update": counts.total / (math.prod(shape) * m),
    }


def computed_counts(plan) -> Dict[str, float]:
    """Useful flops and streamed bytes per point-update, as ``repro.perfmodel``
    computes them: the bytes are the plan's ``MethodProfile`` grid arrays
    (float64) times its sweeps per step, without write-allocate or layout
    sweeps."""
    from repro.perfmodel import useful_flops_per_point

    profile = plan.profile()
    streamed = 8.0 * (profile.arrays + profile.extra_arrays) * profile.sweeps_per_step
    return {
        "perfmodel.flops_per_update": float(useful_flops_per_point(plan.spec)),
        "perfmodel.bytes_per_update": streamed,
    }


def plan_counts(plan, shape: Tuple[int, ...], m: int) -> Dict[str, float]:
    return {**static_counts(plan, shape, m), **computed_counts(plan)}


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float, trace: bool, out, l2_bytes: int, root) -> dict:
    """Run one grid workload; returns the report consumed by ``run.py``."""
    cases, engines_and_run = WORKLOADS[workload]
    engines = tuple(p for p in engines_and_run if p in ENGINES)
    tally = Tally()
    lines: List[str] = [f"paths timed against reference_run: {', '.join(engines_and_run)}"]
    tracer = Tracer() if trace else None

    # Set-up: cold compile (and engine builds) of every case.  Samples are
    # spread over the whole run, between rounds, so host load that comes and
    # goes during the run weighs on set-up as it does on the rounds.
    setup: Dict[bool, List[float]] = {False: [], True: []}  # traced sample?
    setup_spans: List[Tuple[int, int]] = []

    def take_setup(traced_sample: bool) -> List:
        if traced_sample:
            first = len(tracer.spans)
            install_hooks(tracer)
            try:
                secs, built = setup_sample(cases, engines, tracer)
            finally:
                tracer.restore()
            setup_spans.append((first, len(tracer.spans)))
        else:
            secs, built = setup_sample(cases, engines)
        setup[traced_sample].append(secs)
        return built

    plans = take_setup(False)
    grids = [make_grid(case, seed, i) for i, case in enumerate(cases)]
    for case, grid in zip(cases, grids):
        lines.append(
            f"input {case.name}: shape={'x'.join(map(str, case.shape))} m={case.m} "
            f"isa={case.isa} steps={case.steps} "
            f"{'periodic' if case.periodic else 'dirichlet'} "
            f"bytes={case.input_bytes} ({case.input_bytes / l2_bytes:.2f}x the per-core L2)"
        )

    # Warm-up round: fills the plans' engine caches and the allocator; its
    # outputs are checked, its times are dropped.
    engine_outputs: Dict[str, Dict[str, np.ndarray]] = {}
    run_round(cases, plans, grids, 0, Samples.empty(cases, engines_and_run), tally, engine_outputs)

    plain, traced = Samples.empty(cases, engines_and_run), Samples.empty(cases, engines_and_run)
    calls: List[Tuple[str, str, int, int]] = []
    per_round = SETUP_PER_ROUND[workload]
    owed = 0.0
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < 4:
        traced_round = trace and rounds % 2 == 1
        if traced_round:
            install_hooks(tracer)
            try:
                run_round(cases, plans, grids, rounds, traced, tally, engine_outputs, tracer, calls)
            finally:
                tracer.restore()
        else:
            run_round(cases, plans, grids, rounds, plain, tally, engine_outputs)
        owed += per_round
        while owed >= 1:
            take_setup(traced_round)
            owed -= 1
        rounds += 1
    elapsed = time.perf_counter() - start

    e2e = _end_to_end(plain, setup[False])
    for case in cases:
        per = plain.seconds[case.name]
        ref = median(per["reference"])
        lines.append(
            f"case {case.name}: n={len(per['reference'])} reference {ref * 1e3:.2f}ms "
            + " ".join(
                f"{path} {median(per[path]) * 1e3:.2f}ms (x{ref / median(per[path]):.3f})"
                for path in engines_and_run
            )
        )
    report = {
        "metrics": e2e,
        "counts": {
            "rounds": rounds,
            "measured_s": elapsed,
            "setup_samples": len(setup[False]),
            "samples_per_path_and_case": plain.count(),
        },
        "lines": lines,
        "tally": tally,
    }
    if not trace:
        return report

    traced_e2e = _end_to_end(traced, setup[True])
    for name, value in e2e.items():
        other = traced_e2e[name]
        lines.append(
            f"tracing overhead {name}: untraced {value[0]:.6g} traced {other[0]:.6g} "
            f"({(other[0] / value[0] - 1) * 100:+.1f}%)"
        )
    counts = [plan_counts(plan, case.shape, case.m) for case, plan in zip(cases, plans)]
    per_layer, rows = _per_layer(cases, plain, tracer, calls, setup_spans, setup[True], counts, tally, root)
    lines.extend(rows)
    tracer.dump(out / f"trace-{workload}-seed{seed}.json", {"calls": calls, "setup": setup_spans})
    report["per_layer"] = per_layer
    return report


def _end_to_end(samples: Samples, setup: Sequence[float]):
    """``{metric: (value, unit, samples)}`` of one set of rounds; a ratio's
    sample count is the fewest timed calls of any (case, path)."""
    ratios = sorted(samples.ratios().values())
    n = samples.count()
    return {
        "vs_ref": (geomean(ratios), "x", n),
        "tail_vs_ref": (geomean(ratios[: (len(ratios) + 1) // 2]), "x", n),
        "throughput_vs_ref": (samples.throughput(), "x", n),
        "setup_s": (median(setup), "s", len(setup)),
    }


def _per_layer(cases, plain: Samples, tracer: Tracer, calls, setup_spans, setup_s, counts, tally, root):
    """The generic per-layer metrics (``layers.PER_LAYER``) plus one row of
    per-case figures for each case."""
    spans = tracer.spans
    selfs = self_times(spans)
    ref_median = {case.name: median(plain.seconds[case.name]["reference"]) for case in cases}
    values: Dict[str, float] = dict.fromkeys(layers.GRID_RUNTIME, 0.0)
    rows: List[str] = []

    # Runtime layers over every traced call of the workload's paths, in
    # units of the same case's untraced reference_run.
    ref_total = 0.0
    per_case: Dict[str, Dict[str, List[float]]] = {}
    for case_name, path, first, end in calls:
        if path == "reference":
            continue
        root_span = spans[first]
        inner = [(s.name, selfs[s.index], s.parent == root_span.index) for s in spans[first + 1 : end]]
        split = layers.attribute(root_span.duration, inner)
        for name, secs in split.items():
            values[name] += secs
        ref_total += ref_median[case_name]
        stats = per_case.setdefault(case_name, {})
        stats.setdefault("fold_share", []).append(split["core.fold_update_ref"] / root_span.duration)
        stats.setdefault("ref_steps_per_run", []).append(
            sum(1 for s in spans[first + 1 : end] if s.name == "stencils.reference_step")
        )
        for name, secs in split.items():
            stats.setdefault(f"{path}:{name}", []).append(secs)
    for name in layers.GRID_RUNTIME:
        values[name] /= ref_total

    # Set-up layers: self time in the traced set-up samples.
    setup_selfs = [(s.name, selfs[s.index]) for first, end in setup_spans for s in spans[first:end]]
    values.update(layers.setup_shares(setup_selfs, sum(setup_s)))
    compile_ms = [s.duration * 1e3 for first, end in setup_spans for s in spans[first:end] if s.name == "core.compile"]
    values["core.compile_ms"] = median(compile_ms)

    # The yardstick.
    step_ms = {
        case.name: median(
            [
                s.duration * 1e3
                for case_name, path, first, end in calls
                if path == "reference" and case_name == case.name
                for s in spans[first + 1 : end]
                if s.name == "stencils.reference_step"
            ]
        )
        for case in cases
    }
    values["stencils.reference_step_ms"] = geomean(list(step_ms.values()))
    values["stencils.reference_mlups"] = sum(c.updates for c in cases) / sum(ref_median.values()) / 1e6
    values["repro.import_s"] = median(layers.import_seconds(root))
    values.update(layers.exact_counts(counts))
    metrics = layers.complete(values, layers.SERVICE_RUNTIME + layers.SERVICE_COUNTERS + ("setup.import_share",))

    # Per-case rows: the same split per case and path, in ms, with the
    # exact counts of each plan.
    for case, case_counts in zip(cases, counts):
        stats = per_case[case.name]
        ref_calls = stats["ref_steps_per_run"]
        tally.check(len(set(ref_calls)) == 1, f"{case.name}: reference_step calls per run vary {sorted(set(ref_calls))}")
        cold = {
            name: [s.duration * 1e3 for first, end in setup_spans for s in spans[first:end] if s.name == name and s.tag == case.name]
            for name in ("core.compile", "ir.lower", "ir.passes", "ir.trace_build", "backend.kernel_build")
        }
        parts = [f"stencils.reference_step_ms={step_ms[case.name]:.4g}"]
        parts += [f"{name}_ms={median(v):.4g}" for name, v in cold.items() if v]
        parts += [
            f"{key.replace('_ref', '_ms')}={median(v) * 1e3:.4g}"
            for key, v in sorted(stats.items())
            if ":" in key and median(v) > 0
        ]
        parts.append(f"core.fold_share={median(stats['fold_share']):.3f}")
        parts.append(f"stencils.reference_calls_per_run={ref_calls[0]}")
        parts += [f"{name}={value:.6g}" for name, value in case_counts.items()]
        rows.append(f"layers {case.name}: " + " ".join(parts))
    rows.append(
        "labels: ir.static_ops_* and ir.sim_instr_per_update are model outputs (counted on the "
        "simulated IR); perfmodel.* are computed by repro.perfmodel (useful flops; the MethodProfile's "
        "streamed bytes); neither is a measured time. Runtime layers (*_ref) are self time over the "
        "traced calls divided by the same calls' reference_run time"
    )
    zero = [name for name, (value, _unit) in metrics.items() if value == 0.0]
    rows.append(f"layers not entered by this workload (read 0): {', '.join(zero)}")
    return metrics, rows
