"""Declarative configuration search spaces for the staged autotuner.

A :class:`SearchSpace` names the candidate axes — ``(method, m, isa,
tiling)`` — and :func:`expand_candidates` turns it into the flat,
deterministic candidate list the tuner's predict stage scores.  Defaults
are derived, not hard-coded: the method axis comes from the registry's
:class:`~repro.registry.MethodDescriptor` capability flags
(:func:`repro.registry.tunable_method_keys`), the unroll axis from the
stencil's radius against the widest vector length in the ISA axis, the
workload from the benchmark library's paper-scale problem sizes.

Candidates are plain JSON-ready dicts so the service protocol can shard
them across worker processes verbatim; every validity rule lives in
:func:`candidate_validity` as a pure function of ``(spec, candidate,
workload)`` so shards reach the same verdicts as an in-process search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.machine import MACHINES
from repro.registry import get_method, tunable_method_keys
from repro.simd.isa import isa_for
from repro.stencils.library import BENCHMARKS, BenchmarkCase, get_benchmark
from repro.stencils.spec import StencilSpec
from repro.tiling.tessellate import TessellationConfig

__all__ = [
    "SearchSpace",
    "TuningWorkload",
    "expand_candidates",
    "candidate_validity",
    "measurability",
    "tiling_candidates",
    "default_workload_shape",
    "coerce_spec",
]

#: Unroll factors considered by default, before the radius/vector-length cut.
DEFAULT_M_CANDIDATES: Tuple[int, ...] = (1, 2, 3, 4)

#: Block-size ladder of the tiling axis: paper-style round sizes, cut per
#: dimension to the feasible window.
_BLOCK_LADDER: Tuple[int, ...] = (16, 32, 64, 100, 128, 200, 256, 400, 512, 1000, 2000, 4096)


def coerce_spec(spec: Union[StencilSpec, BenchmarkCase, str]) -> StencilSpec:
    """Accept a spec, a benchmark case or a benchmark key — like ``plan()``."""
    if isinstance(spec, str):
        return get_benchmark(spec).spec
    if isinstance(spec, BenchmarkCase):
        return spec.spec
    if not isinstance(spec, StencilSpec):
        raise TypeError(
            "expected a StencilSpec, a BenchmarkCase or a benchmark key"
        )
    return spec


def _benchmark_for_spec(spec: StencilSpec) -> Optional[BenchmarkCase]:
    """The library benchmark whose spec matches ``spec`` by name, if any."""
    for case in BENCHMARKS.values():
        if case.spec.name == spec.name:
            return case
    return None


def default_workload_shape(dims: int) -> Tuple[int, ...]:
    """Dimensionality-matched default problem shape for cost estimates."""
    return {1: (1 << 22,), 2: (2048, 2048), 3: (256, 256, 256)}[dims]


@dataclass(frozen=True)
class TuningWorkload:
    """The problem the tuner optimises for: shape, time steps, active cores.

    Predicted cost is workload-dependent (the memory/compute balance shifts
    with the working set), so the workload is part of the search's
    provenance and of every cache key.
    """

    shape: Tuple[int, ...]
    time_steps: int = 1000
    cores: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if not self.shape or any(n < 1 for n in self.shape):
            raise ValueError("workload shape extents must be positive")
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")

    @classmethod
    def for_spec(
        cls,
        spec: Union[StencilSpec, BenchmarkCase, str],
        shape: Optional[Sequence[int]] = None,
        time_steps: Optional[int] = None,
        cores: int = 1,
    ) -> "TuningWorkload":
        """Paper-scale workload for ``spec``: the benchmark library's problem
        size and step count when the spec is a library stencil, a
        dimensionality-matched default otherwise."""
        spec = coerce_spec(spec)
        case = _benchmark_for_spec(spec)
        if shape is None:
            shape = case.problem_size if case is not None else default_workload_shape(spec.dims)
        if time_steps is None:
            time_steps = case.time_steps if case is not None else 1000
        return cls(shape=tuple(shape), time_steps=int(time_steps), cores=int(cores))

    def to_dict(self) -> Dict[str, Any]:
        return {"shape": list(self.shape), "time_steps": self.time_steps, "cores": self.cores}


@dataclass(frozen=True)
class SearchSpace:
    """Declarative candidate axes of one autotuning search.

    The cross product of the axes — minus invalid combinations, which the
    predict stage records with a ``pruned_reason`` — is the candidate set.
    ``tilings`` holds :class:`TessellationConfig` objects or ``None`` (no
    tiling).
    """

    methods: Tuple[str, ...]
    m_values: Tuple[int, ...]
    isas: Tuple[str, ...] = ("avx2", "avx512")
    tilings: Tuple[Optional[TessellationConfig], ...] = (None,)

    def __post_init__(self) -> None:
        for name in ("methods", "m_values", "isas", "tilings"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.methods:
            raise ValueError("a SearchSpace needs at least one method")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValueError("m_values must be a non-empty tuple of factors >= 1")
        if not self.isas:
            raise ValueError("a SearchSpace needs at least one ISA")
        for isa in self.isas:
            if isa not in MACHINES:
                raise ValueError(f"unknown ISA {isa!r}; expected one of {tuple(MACHINES)}")
        for method in self.methods:
            try:
                get_method(method)
            except KeyError:
                raise ValueError(f"unknown method {method!r} in the search space") from None

    @classmethod
    def for_spec(
        cls,
        spec: Union[StencilSpec, BenchmarkCase, str],
        isas: Optional[Sequence[str]] = None,
        methods: Optional[Sequence[str]] = None,
        m_values: Optional[Sequence[int]] = None,
        tilings: Optional[Sequence[Optional[TessellationConfig]]] = None,
    ) -> "SearchSpace":
        """Registry- and stencil-derived default space for ``spec``.

        * methods — the executable line-up methods
          (:func:`~repro.registry.tunable_method_keys`);
        * m — :data:`DEFAULT_M_CANDIDATES` cut to the factors whose folded
          radius ``m·r`` fits the widest vector length in the ISA axis
          (narrower ISAs mark the excess factors invalid per candidate);
        * isas — both paper ISAs.
        """
        spec = coerce_spec(spec)
        isas = tuple(isas) if isas is not None else tuple(MACHINES)
        if methods is None:
            methods = tunable_method_keys()
        if m_values is None:
            max_vl = max(isa_for(isa).vector_lanes for isa in isas) if isas else 8
            m_max = max(1, max_vl // max(1, spec.radius))
            m_values = tuple(m for m in DEFAULT_M_CANDIDATES if m <= m_max) or (1,)
        return cls(
            methods=tuple(methods),
            m_values=tuple(m_values),
            isas=isas,
            tilings=tuple(tilings) if tilings is not None else (None,),
        )

    def constrain(self, **axes: Any) -> "SearchSpace":
        """A copy with the named axes replaced (``methods=``, ``isas=``, ...)."""
        return replace(self, **{name: tuple(value) for name, value in axes.items()})

    @property
    def size(self) -> int:
        """Upper bound on the candidate count (before unroll deduplication)."""
        return len(self.methods) * len(self.m_values) * len(self.isas) * len(self.tilings)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready provenance record of the axes."""
        return {
            "methods": list(self.methods),
            "m_values": list(self.m_values),
            "isas": list(self.isas),
            "tilings": [_tiling_dict(t) for t in self.tilings],
        }


def _tiling_dict(tiling: Optional[TessellationConfig]) -> Optional[Dict[str, Any]]:
    if tiling is None:
        return None
    return {
        "block_sizes": [None if b is None else int(b) for b in tiling.block_sizes],
        "time_range": int(tiling.time_range),
    }


def tiling_config(candidate: Dict[str, Any]) -> Optional[TessellationConfig]:
    """Rebuild the candidate's :class:`TessellationConfig` (or ``None``)."""
    tiling = candidate.get("tiling")
    if tiling is None:
        return None
    if isinstance(tiling, TessellationConfig):
        return tiling
    return TessellationConfig(
        block_sizes=tuple(tiling["block_sizes"]), time_range=int(tiling["time_range"])
    )


def expand_candidates(
    spec: Union[StencilSpec, BenchmarkCase, str], space: SearchSpace
) -> List[Dict[str, Any]]:
    """The space's flat candidate list, in deterministic generation order.

    Axis nesting (slowest to fastest): isa, method, m, tiling.  Methods that
    do not consume the unroll factor appear once with the canonical ``m=1``
    instead of once per unroll value — the profile is ``m``-independent, so
    extra rows would only be duplicates.  Every
    candidate carries its generation ``index``; no validity filtering
    happens here (the predict stage records ``pruned_reason`` instead, so
    the ledger accounts for every generated candidate).
    """
    spec = coerce_spec(spec)
    candidates: List[Dict[str, Any]] = []
    for isa in space.isas:
        for method in space.methods:
            descriptor = get_method(method)
            m_axis = space.m_values if descriptor.uses_unroll else (1,)
            for m in m_axis:
                for tiling in space.tilings:
                    candidates.append(
                        {
                            "index": len(candidates),
                            "method": method,
                            "isa": isa,
                            "m": int(m),
                            "tiling": _tiling_dict(tiling),
                        }
                    )
    return candidates


def candidate_validity(
    spec: StencilSpec, candidate: Dict[str, Any], workload: TuningWorkload
) -> Optional[str]:
    """Why ``candidate`` cannot be scored at all, or ``None`` if it can.

    A pure function of ``(spec, candidate, workload)`` so that worker shards
    and in-process searches agree.  Scoring requires an IR-consistent
    profile: folding candidates whose folded radius ``m·r`` exceeds the
    ISA's vector length have no register-level schedule, and their
    closed-form fallback profile is not comparable with the optimized-IR
    costs the rest of the ranking uses — they are marked invalid rather
    than silently scored on a different model.
    """
    descriptor = get_method(candidate["method"])
    isa = isa_for(candidate["isa"])
    m = int(candidate["m"])
    if descriptor.uses_unroll and spec.linear and m * spec.radius > isa.vector_lanes:
        return (
            f"schedule-inexpressible: folded radius {m * spec.radius} exceeds "
            f"vl={isa.vector_lanes} on {candidate['isa']}"
        )
    tiling = tiling_config(candidate)
    if tiling is not None:
        blocks = tiling.block_sizes
        if len(blocks) != len(workload.shape):
            return (
                f"tiling is {len(blocks)}-D but the workload is {len(workload.shape)}-D"
            )
        minimum = max(2 * spec.radius * tiling.time_range, 1)
        for block, extent in zip(blocks, workload.shape):
            if block is None:
                continue
            if block > extent:
                return f"block size {block} exceeds the workload extent {extent}"
            if block < minimum:
                return (
                    f"block size {block} below the tessellation minimum {minimum} "
                    f"(2·r·TR with r={spec.radius}, TR={tiling.time_range})"
                )
    return None


def measurability(spec: StencilSpec, candidate: Dict[str, Any]) -> Optional[str]:
    """Why ``candidate`` cannot reach the measure stage, or ``None``.

    Measurement replays the register-level schedule through the kernel
    backend, so it needs everything simulation needs; candidates that fail
    here can still win on predicted cost — they are pruned from
    *measurement*, with this reason, not from the ranking.
    """
    descriptor = get_method(candidate["method"])
    if not descriptor.supports_simulation:
        return f"method {descriptor.key!r} has no register-level schedule to measure"
    if not spec.linear:
        return "measured replay requires a linear stencil"
    if tiling_config(candidate) is not None:
        return "backend replay bypasses tessellation tiling"
    return None


def tiling_candidates(
    grid_shape: Sequence[int],
    radius: int,
    time_ranges: Sequence[int] = (8, 16, 32, 64),
    max_candidates_per_dim: int = 4,
) -> List[TessellationConfig]:
    """Feasible tessellation configurations for ``grid_shape``.

    The ladder of round block sizes is cut, per dimension, to the feasible
    window ``[2·r·TR, extent]`` and capped at ``max_candidates_per_dim``
    entries; each surviving time range contributes one config per rank
    (every dimension uses its rank-``i`` candidate).  Deterministic
    generation order: time ranges outermost, ranks innermost.
    """
    configs: List[TessellationConfig] = []
    for time_range in time_ranges:
        per_dim: List[List[int]] = []
        for extent in grid_shape:
            minimum = max(2 * radius * time_range, 8)
            ladder = [b for b in _BLOCK_LADDER if minimum <= b <= extent]
            if not ladder and minimum <= extent:
                ladder = [minimum]
            per_dim.append(ladder[:max_candidates_per_dim])
        if any(not ladder for ladder in per_dim):
            continue
        # The same relative candidate rank in every dimension (clamped to the
        # shorter ladders) — block shapes are roughly isotropic for the
        # paper's stencils, and per-dimension cross products explode.
        ranks = max(len(ladder) for ladder in per_dim)
        for rank in range(ranks):
            configs.append(
                TessellationConfig(
                    block_sizes=tuple(
                        ladder[min(rank, len(ladder) - 1)] for ladder in per_dim
                    ),
                    time_range=int(time_range),
                )
            )
    return configs
