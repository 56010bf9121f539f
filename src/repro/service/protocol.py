"""Request schema, validation and canonical keys of the compute service.

A request is one JSON object: ``{"kind": ..., <parameters>}``.  Kinds map
onto the plan API's verbs:

``plan``
    Compile a plan and return its explanation and derived configuration.
``estimate``
    Modelled performance (GFLOPS, cycles/point) of a configuration on the
    paper's machine model — the cheap, cache-friendly workhorse.
``simulate``
    Execute the register-level schedule on the simulated SIMD machine and
    return the final grid plus the instruction tally.
``run``
    Numerically advance a grid with the compiled method.
``study``
    A declarative sweep (axes of method/isa/unroll) evaluated cell-by-cell;
    the server shards the cross-product across its worker pool.
``tune``
    A staged autotuning search (:mod:`repro.autotune`): the candidate list
    is sharded across the worker pool for the predict stage, the prune
    stage runs as a pure function on the merged rows, and the surviving
    top-``budget`` candidates are measured in one worker job.  The response
    is the :meth:`repro.autotune.TuneResult.to_dict` ledger, cached by the
    request's ``config_hash`` key like every other kind.

:func:`normalize` validates a raw payload against the method registry and
the benchmark library **before** it costs a queue slot, fills defaults, and
returns a canonical :class:`Request` whose :attr:`~Request.key` is stable
across processes, platforms and JSON key orders
(:func:`repro.study.hashing.config_hash` — see the golden-hash tests).
That key is the identity used for single-flight dedup, the in-memory
response cache and the persistent store.  It includes the library's
``repro.__version__``: a store written by another version of the code,
whose numbers may differ, is never answered from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import repro
from repro.backend import ExecutionOptions
from repro.registry import get_method, is_registered
from repro.stencils.library import BENCHMARKS, get_benchmark
from repro.study.hashing import config_hash

__all__ = [
    "PROTOCOL_VERSION",
    "KINDS",
    "RETIRED_KINDS",
    "ServiceError",
    "Request",
    "normalize",
    "expand_study_cells",
    "expand_tune_candidates",
    "shard_cells",
]

#: Wire-format version; part of every request key so a future incompatible
#: protocol cannot read this one's store entries as its own.
PROTOCOL_VERSION = 1

#: Public request kinds, cheap → expensive.
KINDS = ("plan", "estimate", "simulate", "run", "study", "tune")

#: Former hidden fault-injection kinds, replaced by the seeded
#: :mod:`repro.service.faults` framework.  Rejected with a pointed message
#: so a stale chaos harness fails loudly instead of silently validating.
RETIRED_KINDS = ("_sleep", "_crash")

#: Kinds whose cold execution is heavyweight (full grid sweeps): they queue
#: behind cheap analysis requests at the same arrival time.
EXPENSIVE_KINDS = frozenset({"simulate", "run", "study", "tune"})

ISAS = ("avx2", "avx512")


class ServiceError(Exception):
    """A structured, client-visible failure.

    ``code`` is machine-matchable (``invalid-request``, ``overloaded``,
    ``timeout``, ``worker-crash``, ``quarantined``, ``draining``,
    ``internal``); ``status`` is the HTTP status the front end maps it to.
    ``retry_after`` (seconds) rides along on load-shedding errors and
    becomes the HTTP ``Retry-After`` header, so well-behaved clients back
    off for exactly as long as the server suggests.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 400,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out


def _invalid(message: str) -> ServiceError:
    return ServiceError("invalid-request", message, status=400)


@dataclass(frozen=True)
class Request:
    """A validated, canonicalised request.

    ``params`` is complete (defaults filled) and key-sorted; ``key`` is the
    request's content hash — equal requests, however spelled, share it.
    """

    kind: str
    params: Mapping[str, Any]
    key: str

    @property
    def expensive(self) -> bool:
        """Whether a cold execution is heavyweight (priority class)."""
        return self.kind in EXPENSIVE_KINDS

    def to_payload(self) -> Dict[str, Any]:
        """The canonical JSON payload (what workers receive)."""
        return {"kind": self.kind, **self.params}


# --------------------------------------------------------------------------- #
# field coercers
# --------------------------------------------------------------------------- #
def _str_field(params: Mapping[str, Any], name: str, default: Optional[str]) -> str:
    value = params.get(name, default)
    if not isinstance(value, str) or not value:
        raise _invalid(f"{name!r} must be a non-empty string")
    return value.strip().lower()


def _int_field(params: Mapping[str, Any], name: str, default: Optional[int], minimum: int) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{name!r} must be an integer")
    if value < minimum:
        raise _invalid(f"{name!r} must be >= {minimum}")
    return value

def _bool_field(params: Mapping[str, Any], name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise _invalid(f"{name!r} must be a boolean")
    return value


def _shape_field(
    params: Mapping[str, Any], name: str = "shape", max_points: int = 1 << 24
) -> List[int]:
    value = params.get(name)
    if not isinstance(value, (list, tuple)) or not 1 <= len(value) <= 3:
        raise _invalid(f"{name!r} must be a list of 1-3 extents")
    shape = []
    total = 1
    for extent in value:
        if isinstance(extent, bool) or not isinstance(extent, int) or extent < 1:
            raise _invalid(f"{name!r} extents must be positive integers")
        shape.append(extent)
        total *= extent
    if total > max_points:
        raise _invalid(f"{name!r} exceeds the service's {max_points}-point limit")
    return shape


def _stencil_field(params: Mapping[str, Any]) -> str:
    key = _str_field(params, "stencil", None)
    try:
        return get_benchmark(key).key
    except KeyError:
        raise _invalid(f"unknown stencil {key!r}; known: {', '.join(sorted(BENCHMARKS))}") from None


def _method_field(params: Mapping[str, Any], executable: bool) -> str:
    key = _str_field(params, "method", "folded")
    if not is_registered(key):
        raise _invalid(f"unknown method {key!r}")
    descriptor = get_method(key)
    if descriptor.virtual:
        raise _invalid(f"method {key!r} is a figure label, not an executable method")
    if executable and descriptor.profile_only:
        raise _invalid(f"method {key!r} is profile-only; it cannot execute requests")
    if not executable and descriptor.profile_builder is None:
        raise _invalid(f"method {key!r} has no instruction profile to estimate from")
    return descriptor.key


def _isa_field(params: Mapping[str, Any]) -> str:
    isa = _str_field(params, "isa", "avx2")
    if isa not in ISAS:
        raise _invalid(f"'isa' must be one of {ISAS}")
    return isa


def _backend_field(params: Mapping[str, Any], context: str, optimize: bool = False) -> str:
    """Validate ``backend`` (and ``optimize``) exactly as the plan API does.

    :meth:`ExecutionOptions.normalize <repro.backend.ExecutionOptions.normalize>`
    for ``context`` decides — ``"simulate"`` defaults to ``"trace"``,
    ``"run"`` to ``"auto"`` — so requests fail here, before they cost a
    queue slot, on every combination the plan verbs would reject.  The
    normalized value lands in ``params`` and therefore in the request's
    ``config_hash`` identity: kernel and interpret executions of the same
    configuration are distinct store entries, never collisions.
    """
    backend = _str_field(params, "backend", ExecutionOptions.allowed_backends(context)[0])
    try:
        return ExecutionOptions.normalize(backend, optimize, context=context).backend
    except ValueError as exc:
        raise _invalid(str(exc)) from None


# --------------------------------------------------------------------------- #
# per-kind normalisers — each returns the complete params dict
# --------------------------------------------------------------------------- #
def _normalize_plan(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "stencil": _stencil_field(params),
        "method": _method_field(params, executable=True),
        "isa": _isa_field(params),
        "m": _int_field(params, "m", 2, 1),
    }


def _normalize_estimate(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "stencil": _stencil_field(params),
        "method": _method_field(params, executable=False),
        "isa": _isa_field(params),
        "m": _int_field(params, "m", 2, 1),
        "shape": _shape_field(params) if "shape" in params else [4096, 4096],
        "time_steps": _int_field(params, "time_steps", 1000, 1),
        "cores": _int_field(params, "cores", 1, 1),
        "shifts_reuse": _bool_field(params, "shifts_reuse", True),
    }


def _normalize_simulate(params: Mapping[str, Any]) -> Dict[str, Any]:
    out = {
        "stencil": _stencil_field(params),
        "method": _method_field(params, executable=True),
        "isa": _isa_field(params),
        "m": _int_field(params, "m", 2, 1),
        "shape": _shape_field(params, max_points=1 << 20),
        "steps": _int_field(params, "steps", None, 1),
        "seed": _int_field(params, "seed", 0, 0),
        "optimize": _bool_field(params, "optimize", False),
    }
    out["backend"] = _backend_field(params, "simulate", out["optimize"])
    return out


def _normalize_run(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "stencil": _stencil_field(params),
        "method": _method_field(params, executable=True),
        "isa": _isa_field(params),
        "m": _int_field(params, "m", 2, 1),
        "shape": _shape_field(params, max_points=1 << 22),
        "steps": _int_field(params, "steps", None, 1),
        "seed": _int_field(params, "seed", 0, 0),
        "backend": _backend_field(params, "run"),
    }


#: Axes a study request may sweep, with their validators.
_STUDY_AXES = ("method", "isa", "m")


def _normalize_study(params: Mapping[str, Any]) -> Dict[str, Any]:
    axes_raw = params.get("axes")
    if not isinstance(axes_raw, Mapping) or not axes_raw:
        raise _invalid("'axes' must be a non-empty mapping of axis name -> values")
    axes: Dict[str, List[Any]] = {}
    for name, values in axes_raw.items():
        if name not in _STUDY_AXES:
            raise _invalid(f"unknown study axis {name!r}; known: {_STUDY_AXES}")
        if not isinstance(values, (list, tuple)) or not values:
            raise _invalid(f"study axis {name!r} must be a non-empty list")
        levels = []
        for value in values:
            probe = {name: value}
            if name == "method":
                levels.append(_method_field(probe, executable=False))
            elif name == "isa":
                levels.append(_isa_field(probe))
            else:
                levels.append(_int_field(probe, "m", None, 1))
        axes[name] = levels
    cells = 1
    for levels in axes.values():
        cells *= len(levels)
    if cells > 4096:
        raise _invalid(f"study expands to {cells} cells; the service caps at 4096")
    return {
        "stencil": _stencil_field(params),
        # Axis order is canonical (method, isa, m) so equal studies share a
        # key; row order is restored from the cells themselves.
        "axes": {name: axes[name] for name in _STUDY_AXES if name in axes},
        "shape": _shape_field(params) if "shape" in params else [4096, 4096],
        "time_steps": _int_field(params, "time_steps", 1000, 1),
        "cores": _int_field(params, "cores", 1, 1),
    }


def _normalize_tune(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.autotune.space import SearchSpace, default_workload_shape
    from repro.autotune.tuner import OBJECTIVES

    stencil = _stencil_field(params)
    spec = get_benchmark(stencil).spec

    isas_raw = params.get("isas", list(ISAS))
    if not isinstance(isas_raw, (list, tuple)) or not isas_raw:
        raise _invalid("'isas' must be a non-empty list")
    requested = {_isa_field({"isa": value}) for value in isas_raw}
    isas = [isa for isa in ISAS if isa in requested]

    # Registry-/stencil-derived defaults for the method and unroll axes come
    # from the same SearchSpace the tuner itself would build, so a bare
    # {"kind": "tune", "stencil": ...} request is a full default search.
    defaults = SearchSpace.for_spec(spec, isas=tuple(isas))
    methods_raw = params.get("methods", list(defaults.methods))
    if not isinstance(methods_raw, (list, tuple)) or not methods_raw:
        raise _invalid("'methods' must be a non-empty list")
    methods = []
    for value in methods_raw:
        method = _method_field({"method": value}, executable=False)
        if method not in methods:
            methods.append(method)

    m_raw = params.get("m_values", list(defaults.m_values))
    if not isinstance(m_raw, (list, tuple)) or not m_raw:
        raise _invalid("'m_values' must be a non-empty list")
    m_values = sorted({_int_field({"m": value}, "m", None, 1) for value in m_raw})

    budget = _int_field(params, "budget", 0, 0)
    if budget > 8:
        raise _invalid("'budget' must be <= 8 (measured candidates per request)")
    objective = _str_field(params, "objective", "cycles_per_point")
    if objective not in OBJECTIVES:
        raise _invalid(f"'objective' must be one of {OBJECTIVES}")

    shape = (
        _shape_field(params)
        if "shape" in params
        else list(default_workload_shape(spec.dims))
    )
    if len(shape) != spec.dims:
        raise _invalid(
            f"'shape' must have {spec.dims} extents for stencil {stencil!r}"
        )
    return {
        "stencil": stencil,
        "isas": isas,
        "methods": methods,
        "m_values": m_values,
        "budget": budget,
        "objective": objective,
        "shape": shape,
        "time_steps": _int_field(params, "time_steps", 1000, 1),
        "cores": _int_field(params, "cores", 1, 1),
        "repeats": _int_field(params, "repeats", 3, 1),
        "seed": _int_field(params, "seed", 0, 0),
    }


_NORMALIZERS = {
    "plan": _normalize_plan,
    "estimate": _normalize_estimate,
    "simulate": _normalize_simulate,
    "run": _normalize_run,
    "study": _normalize_study,
    "tune": _normalize_tune,
}


def normalize(payload: Any) -> Request:
    """Validate ``payload`` and return the canonical :class:`Request`.

    Raises :class:`ServiceError` (code ``invalid-request``) for anything
    malformed; the error message names the offending field so clients can
    fix their request without reading server logs.
    """
    if not isinstance(payload, Mapping):
        raise _invalid("request body must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise _invalid("'kind' must be a string")
    kind = kind.strip().lower()
    if kind in RETIRED_KINDS:
        raise _invalid(
            f"kind {kind!r} was retired; use the seeded fault-injection "
            f"schedule (ServiceConfig.faults / repro.service.faults) instead"
        )
    if kind not in KINDS:
        raise _invalid(f"unknown kind {kind!r}; known: {', '.join(KINDS)}")
    params = _NORMALIZERS[kind](payload)
    key = config_hash("service", PROTOCOL_VERSION, repro.__version__, kind, params)
    return Request(kind=kind, params=params, key=key)


# --------------------------------------------------------------------------- #
# study sharding
# --------------------------------------------------------------------------- #
def expand_study_cells(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The study's cross-product, in canonical axis order (method, isa, m).

    The first declared axis varies slowest, mirroring
    :meth:`repro.study.builder.StudyBuilder.over` semantics.
    """
    axes: Mapping[str, Sequence[Any]] = params["axes"]
    cells: List[Dict[str, Any]] = [{}]
    for name in _STUDY_AXES:
        if name not in axes:
            continue
        cells = [dict(cell, **{name: value}) for cell in cells for value in axes[name]]
    defaults = {"method": "folded", "isa": "avx2", "m": 2}
    return [
        {"index": i, **{k: cell.get(k, defaults[k]) for k in _STUDY_AXES}}
        for i, cell in enumerate(cells)
    ]


def expand_tune_candidates(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The tune request's deterministic candidate list (predict-stage units).

    Rebuilt identically on the server and in any worker from the normalized
    params alone, so shards can be merged back by candidate ``index``.
    """
    from repro.autotune.space import expand_candidates
    from repro.autotune.tuner import space_from_params

    spec, space, _ = space_from_params(params)
    return expand_candidates(spec, space)


def shard_cells(cells: Sequence[Dict[str, Any]], shards: int) -> List[List[Dict[str, Any]]]:
    """Split ``cells`` into at most ``shards`` contiguous, ordered chunks."""
    shards = max(1, min(int(shards), len(cells)))
    size, extra = divmod(len(cells), shards)
    out: List[List[Dict[str, Any]]] = []
    start = 0
    for i in range(shards):
        end = start + size + (1 if i < extra else 0)
        out.append(list(cells[start:end]))
        start = end
    return out
