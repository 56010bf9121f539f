"""Wall-clock measurement of plan execution, on any backend.

The cost model *predicts* cycles per point from instruction counts and port
pressure; this module *measures* them: warmup + repeated timed runs of
``CompiledPlan.run(grid, steps, backend=...)``, summarized by the median (the
robust central estimate under scheduler noise), and converted onto the cost
model's axis — cycles per grid point per time step at an assumed clock
frequency — so estimated and measured cost become directly comparable
(the ``measured_vs_estimated`` harness experiment and the ``repro-measure``
CLI both sit on top of :func:`measured_vs_estimated`).

Every timing entry point takes an injectable ``clock`` (any zero-argument
callable returning monotonically non-decreasing seconds; defaults to
:func:`time.perf_counter`).  Tests pass a fake clock and assert exact
medians and cycle conversions — tier-1 never asserts on real wall-clock.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "Measurement",
    "BackendMeasurement",
    "measure_callable",
    "measure_backend",
    "measured_vs_estimated",
]

Clock = Callable[[], float]


@dataclass(frozen=True)
class Measurement:
    """Timed samples of one repeated callable (seconds, warmup excluded).

    ``samples`` holds only the timed repeats; the ``warmup`` calls ran before
    the first sample and are never included (they absorb one-time costs —
    kernel builds, cache population, allocator warmup).
    """

    samples: Tuple[float, ...]
    warmup: int = 0

    @property
    def repeats(self) -> int:
        """Number of timed samples."""
        return len(self.samples)

    @property
    def median_seconds(self) -> float:
        """Median of the timed samples — the headline statistic."""
        return statistics.median(self.samples)

    @property
    def best_seconds(self) -> float:
        """Fastest sample (the least-perturbed run)."""
        return min(self.samples)

    @property
    def mean_seconds(self) -> float:
        """Arithmetic mean of the timed samples."""
        return statistics.fmean(self.samples)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (samples included for reproducibility)."""
        return {
            "median_seconds": self.median_seconds,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "samples": list(self.samples),
        }


def measure_callable(
    fn: Callable[[], Any],
    warmup: int = 1,
    repeats: int = 5,
    clock: Optional[Clock] = None,
) -> Measurement:
    """Time ``fn()``: ``warmup`` untimed calls, then ``repeats`` timed ones.

    ``clock`` is sampled immediately before and after each timed call; the
    default is :func:`time.perf_counter`.  At least one timed repeat is
    required (the median of nothing is undefined).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    clock = clock or time.perf_counter
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return Measurement(samples=tuple(samples), warmup=warmup)


@dataclass(frozen=True)
class BackendMeasurement:
    """One backend's measured execution of a concrete (grid, steps) workload.

    ``points`` is the grid size, ``steps`` the logical time steps each timed
    run advanced, so ``points * steps`` point-updates happened per sample;
    :meth:`cycles_per_point` converts the median onto the cost model's axis
    for any assumed core frequency.
    """

    backend: str
    measurement: Measurement
    points: int
    steps: int
    sweeps: int

    @property
    def median_seconds(self) -> float:
        """Median seconds of one full ``steps``-step run."""
        return self.measurement.median_seconds

    @property
    def seconds_per_point(self) -> float:
        """Median seconds per grid-point update."""
        return self.median_seconds / (self.points * self.steps)

    def cycles_per_point(self, frequency_ghz: float) -> float:
        """Measured cycles per point per time step at ``frequency_ghz``.

        Using the *model's* effective frequency puts the measurement on the
        same axis as :attr:`PerformanceEstimate.cycles_per_point`, which is
        what makes estimated and measured cost directly comparable.
        """
        if frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        return self.seconds_per_point * frequency_ghz * 1e9

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary."""
        return {
            "backend": self.backend,
            "points": self.points,
            "steps": self.steps,
            "sweeps": self.sweeps,
            **self.measurement.to_dict(),
        }


def measure_backend(
    plan: Any,
    grid: Any,
    steps: int,
    backend: Optional[str] = "kernel",
    optimize: Any = False,
    warmup: int = 1,
    repeats: int = 5,
    clock: Optional[Clock] = None,
) -> BackendMeasurement:
    """Measure ``plan.run(grid, steps, backend=backend)`` wall-clock.

    The warmup runs trigger (and therefore exclude) one-time compilation:
    schedule lowering, pass pipelines and engine builds all hit
    their caches before the first timed sample.  ``steps`` must be positive —
    measuring an empty run says nothing.  ``optimize`` selects the IR pass
    pipeline of a trace/kernel backend, as in :meth:`CompiledPlan.simulate`;
    both keywords validate like :meth:`CompiledPlan.run`'s.
    """
    from repro.backend.options import ExecutionOptions

    if steps < 1:
        raise ValueError("steps must be >= 1")
    opts = ExecutionOptions.normalize(backend=backend, optimize=optimize, context="run")
    backend, optimize = opts.backend, opts.optimize
    m = plan.steps_per_update
    fn = lambda: plan.run(grid, steps, backend=backend, optimize=optimize)  # noqa: E731
    measurement = measure_callable(fn, warmup=warmup, repeats=repeats, clock=clock)
    return BackendMeasurement(
        backend=backend,
        measurement=measurement,
        points=int(grid.values.size),
        steps=int(steps),
        sweeps=int(steps) // m,
    )


def measured_vs_estimated(
    plan: Any,
    grid: Any,
    steps: int,
    backend: str = "kernel",
    optimize: Any = False,
    machine: Any = None,
    cores: int = 1,
    warmup: int = 1,
    repeats: int = 5,
    clock: Optional[Clock] = None,
) -> Dict[str, Any]:
    """Model-estimated vs measured cycles per point, on one shared axis.

    Runs the cost model (:meth:`CompiledPlan.estimate`) and the measurement
    harness on the same workload, converting the measured seconds with the
    *estimate's* effective frequency, and reports both figures side by side
    with their ratio (``> 1`` means the measured backend is slower than the
    hardware model predicts — the Python/NumPy interpretation gap the native
    targets exist to close).
    """
    estimate = plan.estimate(grid.values.shape, steps, cores=cores, machine=machine)
    measured = measure_backend(
        plan,
        grid,
        steps,
        backend=backend,
        optimize=optimize,
        warmup=warmup,
        repeats=repeats,
        clock=clock,
    )
    estimated_cpp = estimate.cycles_per_point
    measured_cpp = measured.cycles_per_point(estimate.frequency_ghz)
    return {
        "stencil": plan.spec.name,
        "method": plan.method_key,
        "isa": plan.config.isa,
        "m": plan.config.unroll,
        "backend": backend,
        "optimize": optimize if isinstance(optimize, bool) else list(optimize or ()),
        "shape": list(grid.values.shape),
        "steps": int(steps),
        "points": measured.points,
        "frequency_ghz": estimate.frequency_ghz,
        "estimated_cycles_per_point": estimated_cpp,
        "measured_cycles_per_point": measured_cpp,
        "measured_over_estimated": (
            measured_cpp / estimated_cpp if estimated_cpp > 0 else float("inf")
        ),
        "median_seconds": measured.median_seconds,
        "bound": getattr(estimate, "bound", None),
        "repeats": measured.measurement.repeats,
        "warmup": measured.measurement.warmup,
    }
