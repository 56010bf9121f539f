"""The ``kernel`` execution backend and its measurement harness.

The third execution engine next to the interpreted schedule and the batched
trace replay: :mod:`repro.backend.codegen` compiles a
:class:`~repro.ir.ops.ScheduleIR`, optionally after the IR pass pipeline,
into a :class:`~repro.backend.codegen.KernelProgram` — the IR executor,
shared process-wide through a cache keyed by the program's content.
:mod:`repro.backend.measure` times any backend (warmup / repeats / median,
injectable clock) and puts measured cycles-per-point on the cost model's
estimated axis.

:data:`EXECUTION_BACKENDS` is the one registry of backend names the whole
stack validates against — ``CompiledPlan.simulate``/``run``, the service
protocol's ``backend`` request field and the ``repro-measure`` CLI all
accept exactly these keys.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.backend.codegen import (
    KernelProgram,
    clear_kernel_cache,
    compile_kernel,
    kernel_cache_stats,
    kernel_content_key,
)
from repro.backend.measure import (
    BackendMeasurement,
    Measurement,
    measure_backend,
    measure_callable,
    measured_vs_estimated,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "backend_keys",
    "is_backend",
    "ExecutionOptions",
    "KernelProgram",
    "compile_kernel",
    "kernel_content_key",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "Measurement",
    "BackendMeasurement",
    "measure_callable",
    "measure_backend",
    "measured_vs_estimated",
]

#: Execution backend registry: name → one-line description.  The order is
#: fidelity-first (the oracle, then the engines validated against it).
EXECUTION_BACKENDS: Dict[str, str] = {
    "interpret": (
        "one simulated SIMD instruction at a time — the oracle every other "
        "backend is bit-identical to"
    ),
    "trace": (
        "batched NumPy replay of the typed IR over all block positions "
        "(per-op dispatch loop)"
    ),
    "kernel": (
        "the trace replay of the IR, shared process-wide by the program's "
        "content key"
    ),
}


def backend_keys() -> Tuple[str, ...]:
    """The valid execution backend names, in registry order."""
    return tuple(EXECUTION_BACKENDS)


def is_backend(name: str) -> bool:
    """True when ``name`` is a registered execution backend."""
    return name in EXECUTION_BACKENDS


# Imported after the registry above so that repro.backend.options can consult
# backend_keys() from the partially initialised package without a cycle.
from repro.backend.options import ExecutionOptions  # noqa: E402
