"""The staged configuration tuner: predict, prune, measure.

The search never executes a candidate it has not already scored — the PyPy
vectorizer's ``profitable()`` discipline applied to stencil configuration:

1. **predict** — every generated candidate is scored with the IR cost model
   (:func:`repro.parallel.model.multicore_estimate` over the method's
   optimized-IR instruction profile), exactly the estimate
   :meth:`CompiledPlan.estimate` and the service's ``estimate`` kind report,
   memoized through the shared :class:`~repro.study.cache.EvalCache`;
2. **prune** — a pure function of predicted cost ranks the candidates and
   records a ``pruned_reason`` for everything that will not be measured
   (invalid, unprofitable, unmeasurable, or beyond the top-K budget);
3. **measure** — the surviving top-``budget`` candidates run through
   :meth:`CompiledPlan.measure` on the kernel backend with the default pass
   pipeline, content-keyed in the same cache so re-running a search
   measures nothing twice.

All three stages operate on plain candidate-row dicts so the service worker
pool can shard them; :func:`autotune` is the in-process orchestration and
:func:`repro.core.plan.PlanBuilder.autotune` the fluent front end.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.autotune.result import CandidateRecord, TuneResult
from repro.autotune.space import (
    SearchSpace,
    TuningWorkload,
    candidate_validity,
    coerce_spec,
    expand_candidates,
    measurability,
    tiling_config,
)
from repro.ir.passes import DEFAULT_PASSES
from repro.machine import MachineSpec, isa_variant, machine_for_isa
from repro.simd.isa import isa_for
from repro.stencils.library import BenchmarkCase, get_benchmark
from repro.stencils.spec import StencilSpec
from repro.study.cache import EvalCache
from repro.study.hashing import config_hash

__all__ = [
    "OBJECTIVES",
    "PRUNE_RATIO",
    "autotune",
    "predict_row",
    "prune_rows",
    "measure_row",
    "assemble_result",
    "candidate_hash",
    "space_from_params",
    "execute_tune_payload",
    "predict_candidate_rows",
    "measure_ledger_rows",
    "assemble_tune_response",
]

#: Supported optimisation objectives.  ``cycles_per_point`` minimises the
#: modelled per-point cost; ``gflops`` maximises modelled throughput.
OBJECTIVES: Tuple[str, ...] = ("cycles_per_point", "gflops")

#: Predicted-cost cutoff of the prune stage: candidates predicted worse than
#: this multiple of the best candidate's cost are never measured.
PRUNE_RATIO: float = 2.0


def candidate_hash(spec: StencilSpec, candidate: Mapping[str, Any]) -> str:
    """Content key of one ``(stencil, configuration)`` pair.

    Shared by the in-process tuner, the service's ``tune`` kind and the
    measurement cache, so identical configurations deduplicate across all
    three regardless of which path scored them first.
    """
    return config_hash(
        "tune-candidate",
        spec.name,
        candidate["method"],
        candidate["isa"],
        int(candidate["m"]),
        candidate.get("tiling"),
    )


def _resolve_machine(machine: Optional[MachineSpec], isa: str) -> MachineSpec:
    """The machine model scoring an ``isa`` candidate (per-ISA variant of a
    custom machine, the paper's Xeon otherwise)."""
    if machine is None:
        return machine_for_isa(isa)
    return isa_variant(machine, isa)


def predict_row(
    cache: EvalCache,
    spec: StencilSpec,
    workload: TuningWorkload,
    candidate: Mapping[str, Any],
    machine: Optional[MachineSpec] = None,
) -> Dict[str, Any]:
    """Predict stage for one candidate: validity check + modelled cost.

    Returns the candidate's ledger row.  Invalid candidates get their
    ``pruned_reason`` here and are never scored; scoreable ones carry the
    cost model's ``predicted_cycles_per_point``/``predicted_gflops`` (the
    same figures :meth:`CompiledPlan.estimate` reports for that
    configuration) plus the private ``_unmeasurable`` marker consumed by
    :func:`prune_rows`.
    """
    row: Dict[str, Any] = dict(candidate)
    row["config_hash"] = candidate_hash(spec, row)
    reason = candidate_validity(spec, row, workload)
    if reason is not None:
        row["pruned_reason"] = f"invalid: {reason}"
        return row
    profile = cache.profile(row["method"], spec, isa=row["isa"], m=int(row["m"]))
    estimate = cache.multicore(
        profile,
        workload.shape,
        workload.time_steps,
        _resolve_machine(machine, row["isa"]),
        workload.cores,
        spec.radius,
        tiling=tiling_config(row),
    )
    row["predicted_cycles_per_point"] = float(estimate.cycles_per_point)
    row["predicted_gflops"] = float(estimate.gflops)
    row["bound"] = getattr(estimate, "bound", None)
    row["frequency_ghz"] = float(estimate.frequency_ghz)
    unmeasurable = measurability(spec, row)
    if unmeasurable is not None:
        row["_unmeasurable"] = unmeasurable
    return row


def _objective_value(row: Mapping[str, Any], objective: str) -> float:
    if objective == "gflops":
        return float(row["predicted_gflops"])
    return float(row["predicted_cycles_per_point"])


def _sort_key(row: Mapping[str, Any], objective: str) -> Tuple[float, int]:
    value = _objective_value(row, objective)
    return (-value if objective == "gflops" else value, int(row["index"]))


def _cost_ratio(row: Mapping[str, Any], best: float, objective: str) -> float:
    """How much worse than the best candidate, as a cost multiple (>= 1)."""
    value = _objective_value(row, objective)
    if objective == "gflops":
        return best / value if value > 0 else float("inf")
    return value / best if best > 0 else float("inf")


def prune_rows(
    rows: Sequence[Dict[str, Any]],
    budget: int,
    objective: str,
    prune_ratio: float = PRUNE_RATIO,
) -> List[Dict[str, Any]]:
    """Prune stage: rank the scored rows and select the measurement set.

    A pure function of the predicted costs already on the rows — no model
    evaluation, no measurement, no randomness — so worker shards and
    in-process searches select identical sets.  Mutates the rows in place
    (``rank`` for every scored row, ``pruned_reason`` for every row not
    selected) and returns the selected rows in rank order.
    """
    scored = [
        row
        for row in rows
        if row.get("pruned_reason") is None and row.get("predicted_cycles_per_point") is not None
    ]
    scored.sort(key=lambda row: _sort_key(row, objective))
    selected: List[Dict[str, Any]] = []
    if not scored:
        return selected
    best = _objective_value(scored[0], objective)
    for rank, row in enumerate(scored, start=1):
        row["rank"] = rank
        ratio = _cost_ratio(row, best, objective)
        unmeasurable = row.pop("_unmeasurable", None)
        if ratio > prune_ratio:
            row["pruned_reason"] = (
                f"unprofitable: predicted {ratio:.2f}x the best candidate's cost"
            )
        elif unmeasurable is not None:
            row["pruned_reason"] = f"unmeasurable: {unmeasurable}"
        elif len(selected) < budget:
            selected.append(row)
        else:
            row["pruned_reason"] = f"beyond measurement budget: rank {rank} > top-{budget}"
    return selected


def measure_shape(dims: int, vector_lanes: int) -> Tuple[int, ...]:
    """Smallest backend-compliant measurement grid for ``dims``.

    Extents are multiples of ``vl²`` (1-D transpose layout) or ``vl`` along
    the innermost extents (2-D/3-D), matching
    :meth:`CompiledPlan.simulate`'s grid requirements.
    """
    vl = vector_lanes
    return {1: (16 * vl * vl,), 2: (8 * vl, 8 * vl), 3: (4, 4 * vl, 4 * vl)}[dims]


def _build_candidate_plan(spec: StencilSpec, row: Mapping[str, Any]):
    from repro.core.plan import plan as make_plan

    return (
        make_plan(spec)
        .method(row["method"])
        .isa(row["isa"])
        .unroll(int(row["m"]))
        .compile()
    )


def measure_row(
    cache: EvalCache,
    spec: StencilSpec,
    row: Dict[str, Any],
    seed: int = 0,
    steps: Optional[int] = None,
    warmup: int = 1,
    repeats: int = 3,
    clock: Optional[Any] = None,
) -> Dict[str, Any]:
    """Measure stage for one selected row: timed kernel replay, cache-keyed.

    The measurement grid is derived from the candidate's ISA (so it always
    satisfies the backend's extent constraints) and seeded deterministically;
    the result is memoized in ``cache`` under the candidate's content key, so
    re-running a search — or two searches sharing a cache — measures each
    distinct configuration at most once.  ``clock`` is injectable for tests
    and never part of the cache key.
    """
    from repro.stencils.grid import Grid

    vl = isa_for(row["isa"]).vector_lanes
    shape = measure_shape(spec.dims, vl)
    run_steps = int(steps) if steps is not None else 2 * int(row["m"])
    key_parts = (spec, row["config_hash"], shape, run_steps, seed, warmup, repeats)

    def compute() -> Dict[str, float]:
        built = _build_candidate_plan(spec, row)
        grid = Grid.random(shape, seed=seed)
        measurement = built.measure(
            grid,
            run_steps,
            backend="kernel",
            optimize=True,
            warmup=warmup,
            repeats=repeats,
            clock=clock,
        )
        return {
            "median_seconds": float(measurement.median_seconds),
            "seconds_per_point": float(measurement.seconds_per_point),
        }

    payload = cache.memoize("measure", key_parts, compute)
    row["measured_seconds"] = payload["median_seconds"]
    row["measured_cycles_per_point"] = (
        payload["seconds_per_point"] * float(row["frequency_ghz"]) * 1e9
    )
    return row


def assemble_result(
    stencil: str,
    spec: StencilSpec,
    objective: str,
    budget: int,
    rows: Sequence[Dict[str, Any]],
    space: SearchSpace,
    workload: TuningWorkload,
    seed: int,
) -> TuneResult:
    """Fold the staged rows into an immutable :class:`TuneResult`.

    The ledger orders scored rows by rank, then invalid rows by generation
    index.  The winner is the best *measured* candidate when any measurement
    ran (the expensive oracle outranks the model), the rank-1 predicted
    candidate otherwise.
    """
    scored = sorted(
        (row for row in rows if row.get("rank") is not None), key=lambda row: row["rank"]
    )
    invalid = sorted(
        (row for row in rows if row.get("rank") is None), key=lambda row: row["index"]
    )
    ledger = tuple(CandidateRecord.from_row(row) for row in [*scored, *invalid])
    measured = [record for record in ledger if record.measured]
    if measured:
        winner = min(
            measured, key=lambda rec: (rec.measured_cycles_per_point, rec.index)
        )
    elif scored:
        winner = ledger[0]
    else:
        reasons = sorted({record.pruned_reason for record in ledger if record.pruned_reason})
        raise ValueError(
            f"search space produced no scoreable candidate for {stencil!r}"
            + (f" ({'; '.join(reasons)})" if reasons else "")
        )
    provenance: Dict[str, Any] = {
        "stencil": stencil,
        "space": space.describe(),
        "workload": workload.to_dict(),
        "seed": int(seed),
        "prune_ratio": PRUNE_RATIO,
        "stencil_spec": spec,
        # The predict stage scores candidates on the default-pipeline
        # optimized IR; pin the pass line-up so a ledger is reproducible
        # against the exact pipeline that ranked it.
        "ir_passes": list(DEFAULT_PASSES),
        # Every candidate shares these: the schedules vectorize on the
        # transpose layout and the measure stage replays the optimized
        # program on the kernel backend.
        "layout": "transpose",
        "pipeline": "default",
        "backend": "kernel",
    }
    return TuneResult(
        stencil=stencil,
        objective=objective,
        budget=budget,
        winner=winner,
        ledger=ledger,
        provenance=provenance,
    )


def autotune(
    spec: Union[StencilSpec, BenchmarkCase, str],
    machine: Optional[MachineSpec] = None,
    *,
    budget: int = 3,
    objective: str = "cycles_per_point",
    space: Optional[SearchSpace] = None,
    workload: Optional[TuningWorkload] = None,
    cache: Optional[EvalCache] = None,
    seed: int = 0,
    warmup: int = 1,
    repeats: int = 3,
    clock: Optional[Any] = None,
    measure_steps: Optional[int] = None,
    label: Optional[str] = None,
    shape: Optional[Sequence[int]] = None,
    time_steps: Optional[int] = None,
    cores: int = 1,
    isas: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
    m_values: Optional[Sequence[int]] = None,
    tilings: Optional[Sequence[Any]] = None,
) -> TuneResult:
    """Run the staged search and return its :class:`TuneResult`.

    ``budget`` caps the measure stage (``0`` = predict-only search);
    ``objective`` is one of :data:`OBJECTIVES`.  ``space``/``workload``
    default to the registry- and benchmark-derived ones
    (:meth:`SearchSpace.for_spec` / :meth:`TuningWorkload.for_spec`); the
    axis keywords (``isas=``, ``methods=``, ``m_values=``, ...) constrain
    whichever space is in effect.  ``cache`` shares predictions and
    measurements across searches; ``seed`` fixes the measurement grids and
    ``clock`` injects a timer for wall-clock-free tests.
    """
    if isinstance(spec, str) and label is None:
        label = spec
    spec = coerce_spec(spec)
    if label is None:
        label = spec.name
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    overrides = {
        name: value
        for name, value in (
            ("isas", isas),
            ("methods", methods),
            ("m_values", m_values),
            ("tilings", tilings),
        )
        if value is not None
    }
    if space is None:
        space = SearchSpace.for_spec(spec, **overrides)
    elif overrides:
        space = space.constrain(**overrides)
    if workload is None:
        workload = TuningWorkload.for_spec(spec, shape=shape, time_steps=time_steps, cores=cores)
    cache = cache if cache is not None else EvalCache()
    rows = [
        predict_row(cache, spec, workload, candidate, machine=machine)
        for candidate in expand_candidates(spec, space)
    ]
    for row in prune_rows(rows, budget, objective):
        measure_row(
            cache,
            spec,
            row,
            seed=seed,
            steps=measure_steps,
            warmup=warmup,
            repeats=repeats,
            clock=clock,
        )
    return assemble_result(label, spec, objective, budget, rows, space, workload, seed)


# --------------------------------------------------------------------------- #
# service-payload front ends (shared by the unsharded handler and the pool)
# --------------------------------------------------------------------------- #
def space_from_params(
    params: Mapping[str, Any],
) -> Tuple[StencilSpec, SearchSpace, TuningWorkload]:
    """Rebuild the search posing from normalized ``tune`` request params."""
    spec = get_benchmark(params["stencil"]).spec
    space = SearchSpace.for_spec(
        spec,
        isas=tuple(params["isas"]),
        methods=tuple(params["methods"]),
        m_values=tuple(params["m_values"]),
    )
    workload = TuningWorkload(
        shape=tuple(params["shape"]),
        time_steps=int(params["time_steps"]),
        cores=int(params["cores"]),
    )
    return spec, space, workload


def execute_tune_payload(
    params: Mapping[str, Any], cache: EvalCache, clock: Optional[Any] = None
) -> Dict[str, Any]:
    """The unsharded ``tune`` computation: one full in-process search."""
    spec, space, workload = space_from_params(params)
    result = autotune(
        spec,
        budget=int(params["budget"]),
        objective=params["objective"],
        space=space,
        workload=workload,
        cache=cache,
        seed=int(params["seed"]),
        repeats=int(params["repeats"]),
        clock=clock,
        label=params["stencil"],
    )
    return result.to_dict()


def predict_candidate_rows(
    params: Mapping[str, Any], candidates: Sequence[Mapping[str, Any]], cache: EvalCache
) -> List[Dict[str, Any]]:
    """Predict stage over one shard of the candidate list."""
    spec, _, workload = space_from_params(params)
    return [predict_row(cache, spec, workload, candidate) for candidate in candidates]


def measure_ledger_rows(
    params: Mapping[str, Any],
    rows: Sequence[Dict[str, Any]],
    cache: EvalCache,
    clock: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """Measure stage over the selected rows (one job, not sharded — the
    selected set is at most ``budget`` rows)."""
    spec, _, _ = space_from_params(params)
    return [
        measure_row(
            cache,
            spec,
            dict(row),
            seed=int(params["seed"]),
            repeats=int(params["repeats"]),
            clock=clock,
        )
        for row in rows
    ]


def assemble_tune_response(
    params: Mapping[str, Any], rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold merged shard rows into the canonical ``tune`` response dict —
    the same :meth:`TuneResult.to_dict` shape the unsharded path returns."""
    spec, space, workload = space_from_params(params)
    result = assemble_result(
        params["stencil"],
        spec,
        params["objective"],
        int(params["budget"]),
        list(rows),
        space,
        workload,
        int(params["seed"]),
    )
    return result.to_dict()
