"""Compile-once/run-many execution plans.

This module is the public API of the library.  A plan separates *what* a
stencil computes (the :class:`~repro.stencils.spec.StencilSpec`) from *how*
it is scheduled (method, ISA, unrolling, tiling) — the paper's
central design point — and splits configuration from execution:

1. **Configure** with the fluent builder returned by :func:`plan`::

       p = (repro.plan("2d9p")
                .method("folded")
                .isa("avx512")
                .unroll(2)
                .tile(block_sizes=(32, 32), time_range=8)
                .parallel(workers=4)
                .compile())

2. **Compile once.**  :meth:`PlanBuilder.compile` validates the whole
   configuration, resolves the method through the pluggable registry
   (:mod:`repro.registry`) and — for methods that need one — takes the
   :class:`~repro.core.vectorized_folding.FoldingSchedule` of the stencil's
   weights and ``m`` from the process's schedule memo
   (:func:`~repro.core.vectorized_folding.folding_schedule`): built once per
   configuration, and with it the lowered IR, the pass run, the engines'
   compiled sweeps and the native build, which every plan of the
   configuration shares.

3. **Run many.**  The immutable :class:`CompiledPlan` exposes
   :meth:`~CompiledPlan.run`, :meth:`~CompiledPlan.run_batch` (thread-pool
   fan-out over many grids, bit-identical to sequential runs),
   :meth:`~CompiledPlan.simulate`, :meth:`~CompiledPlan.profile`,
   :meth:`~CompiledPlan.estimate`, :meth:`~CompiledPlan.folding_report` and
   :meth:`~CompiledPlan.explain`.

(The legacy ``StencilEngine`` facade that used to wrap this API was
removed; the migration table lives in the README.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import codegen
from repro.backend.options import ExecutionOptions
from repro.core.fold_kernel import RunArrays, band_status, fold_kernel_status, load_fold_kernel
from repro.core.folding import ProfitabilityReport, analyze_folding
from repro.core.vectorized_folding import FoldingSchedule, folding_schedule
from repro.ir.executor import compile_sweep
from repro.ir.lower import check_lowerable
from repro.ir.ops import block_axes
from repro.layout.transpose_layout import from_transpose_layout, to_transpose_layout
from repro.machine import MachineSpec, machine_for_isa
import repro.methods  # noqa: F401  (imports register the built-in methods)
from repro.parallel.executor import DEFAULT_BATCH_WORKERS, run_plan_batch
from repro.parallel.model import MulticoreConfig, multicore_estimate
from repro.perfmodel.costmodel import PerformanceEstimate
from repro.perfmodel.profiles import MethodProfile
from repro.registry import MethodDescriptor, get_method, set_executor
from repro.simd.isa import IsaSpec, isa_for
from repro.simd.machine import InstructionCounts, SimdMachine
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import BenchmarkCase, get_benchmark
from repro.stencils.reference import check_dims, reference_run, reference_step
from repro.stencils.spec import StencilSpec
from repro.tiling.tessellate import TessellationConfig


@dataclass(frozen=True)
class PlanConfig:
    """Scheduling decisions of one compiled plan.

    Attributes
    ----------
    method:
        Registry key of the execution method.
    isa:
        ``"avx2"`` or ``"avx512"``.
    unroll:
        Temporal folding factor ``m`` (consumed by methods with
        ``uses_unroll``).
    tiling:
        Optional tessellate-tiling configuration, a model and tuner axis:
        :meth:`CompiledPlan.estimate` and the tuner price it,
        :meth:`CompiledPlan.run` executes untiled whatever it says.
    shifts_reuse:
        Whether the shifts-reuse optimisation (Section 3.4) is assumed by the
        instruction profile; the ablation benchmarks switch it off.
    workers:
        Thread-pool width of :meth:`CompiledPlan.run_batch`.  ``None`` (the
        default) lets ``run_batch`` pick its own default pool; an explicit
        ``workers=1`` keeps it a sequential loop.  :meth:`CompiledPlan.run`
        never reads it.
    """

    method: str = "folded"
    isa: str = "avx2"
    unroll: int = 2
    tiling: Optional[TessellationConfig] = None
    shifts_reuse: bool = True
    workers: Optional[int] = None


class PlanBuilder:
    """Fluent configurator for a :class:`CompiledPlan`.

    Every setter returns the builder, so configurations read as one chain;
    nothing is validated until :meth:`compile` (the single validation point).
    """

    def __init__(
        self,
        spec: Union[StencilSpec, BenchmarkCase, str],
        machine: Optional[MachineSpec] = None,
    ):
        if isinstance(spec, str):
            spec = get_benchmark(spec).spec
        elif isinstance(spec, BenchmarkCase):
            spec = spec.spec
        if not isinstance(spec, StencilSpec):
            raise TypeError(
                "plan() expects a StencilSpec, a BenchmarkCase or a benchmark key"
            )
        self._spec = spec
        self._machine = machine
        self._method = "folded"
        self._isa = "avx2"
        self._unroll = 2
        self._tiling: Optional[TessellationConfig] = None
        self._shifts_reuse = True
        self._workers: Optional[int] = None
        # Axes the caller pinned explicitly — autotune() keeps those fixed
        # and searches only the remaining ones.
        self._explicit: set = set()

    def method(self, key: str) -> "PlanBuilder":
        """Select the execution method by registry key."""
        self._method = key.strip().lower()
        self._explicit.add("method")
        return self

    def isa(self, name: str) -> "PlanBuilder":
        """Select the instruction set (``"avx2"`` or ``"avx512"``)."""
        self._isa = name.strip().lower()
        self._explicit.add("isa")
        return self

    def unroll(self, m: int) -> "PlanBuilder":
        """Set the temporal folding factor ``m``."""
        self._unroll = int(m)
        self._explicit.add("m")
        return self

    def tile(
        self,
        block_sizes: Union[TessellationConfig, Sequence[Optional[int]], None] = None,
        time_range: Optional[int] = None,
    ) -> "PlanBuilder":
        """Attach a tessellate tiling (a config object, or block sizes + TR).

        The tiling feeds :meth:`CompiledPlan.estimate` (the multicore
        model's cache reuse and tiles per stage) and the tuner's tiling
        axis; :meth:`CompiledPlan.run` executes untiled, with the same
        values.  :meth:`compile` validates it against the stencil.
        ``tile(None)`` removes a previously configured tiling.
        """
        if block_sizes is None and time_range is None:
            self._tiling = None
        elif isinstance(block_sizes, TessellationConfig):
            if time_range is not None:
                raise ValueError("pass either a TessellationConfig or block sizes + time_range")
            self._tiling = block_sizes
        else:
            if block_sizes is None or time_range is None:
                raise ValueError("tile() needs both block sizes and a time range")
            self._tiling = TessellationConfig(
                block_sizes=tuple(block_sizes), time_range=int(time_range)
            )
        self._explicit.add("tiling")
        return self

    def parallel(self, workers: int = 8) -> "PlanBuilder":
        """Set the thread-pool width of :meth:`CompiledPlan.run_batch`.

        ``workers=1`` pins ``run_batch`` to a sequential loop; leaving
        ``parallel`` uncalled lets it pick its own default pool.  A single
        :meth:`CompiledPlan.run` is sequential either way.
        """
        self._workers = int(workers)
        return self

    def shifts_reuse(self, enabled: bool = True) -> "PlanBuilder":
        """Toggle the shifts-reuse assumption of the instruction profile."""
        self._shifts_reuse = bool(enabled)
        return self

    def compile(self) -> "CompiledPlan":
        """Validate the configuration and build the immutable plan.

        Raises ``KeyError`` for unknown methods/ISAs and ``ValueError`` for
        invalid numeric settings, method/stencil mismatches or a tiling the
        stencil cannot have (:meth:`TessellationConfig.validate
        <repro.tiling.tessellate.TessellationConfig.validate>`).
        """
        descriptor = get_method(self._method)
        if descriptor.virtual:
            raise KeyError(
                f"method {self._method!r} is a figure label, not an executable method"
            )
        if descriptor.profile_only:
            raise KeyError(
                f"method {self._method!r} is profile-only (a performance model "
                "without a numeric executor); it cannot be compiled into a plan"
            )
        if self._unroll < 1:
            raise ValueError("unroll must be >= 1")
        if self._workers is not None and self._workers < 1:
            raise ValueError("workers must be >= 1")
        if self._tiling is not None:
            self._tiling.validate(self._spec.dims, self._spec.radius)
        isa_spec = isa_for(self._isa)
        config = PlanConfig(
            method=descriptor.key,
            isa=self._isa,
            unroll=self._unroll,
            tiling=self._tiling,
            shifts_reuse=self._shifts_reuse,
            workers=self._workers,
        )
        return CompiledPlan(self._spec, config, descriptor, isa_spec)

    def autotune(
        self,
        budget: int = 3,
        objective: str = "cycles_per_point",
        **kwargs,
    ):
        """Staged search over the plan's configuration space.

        Generates every valid ``(method, m, isa, tiling)``
        candidate (axes pinned on this builder — ``.method()``, ``.isa()``,
        ``.unroll()``, ``.tile()`` — stay fixed), scores each with the IR
        cost model (predict stage), prunes unprofitable candidates, measures
        the surviving top-``budget`` through :meth:`CompiledPlan.measure`
        (measure stage) and returns an immutable
        :class:`~repro.autotune.TuneResult` — winner plan plus the full
        ranked ledger.  See :func:`repro.autotune.autotune` for the keyword
        reference (``space=``, ``workload=``, ``cache=``, ``seed=``, ...).
        """
        from repro.autotune.tuner import autotune as _autotune

        if "methods" not in kwargs and "space" not in kwargs and "method" in self._explicit:
            kwargs["methods"] = (self._method,)
        if "isas" not in kwargs and "space" not in kwargs and "isa" in self._explicit:
            kwargs["isas"] = (self._isa,)
        if "m_values" not in kwargs and "space" not in kwargs and "m" in self._explicit:
            kwargs["m_values"] = (self._unroll,)
        if (
            "tilings" not in kwargs
            and "space" not in kwargs
            and "tiling" in self._explicit
            and self._tiling is not None
        ):
            kwargs["tilings"] = (self._tiling,)
        return _autotune(
            self._spec,
            machine=self._machine,
            budget=budget,
            objective=objective,
            **kwargs,
        )


def plan(
    spec: Union[StencilSpec, BenchmarkCase, str],
    machine: Optional[MachineSpec] = None,
) -> PlanBuilder:
    """Start configuring an execution plan for ``spec``.

    ``spec`` may be a :class:`StencilSpec`, a :class:`BenchmarkCase` or a
    benchmark key such as ``"2d9p"``.  ``machine`` optionally names the
    machine model used by :meth:`PlanBuilder.autotune` (per-ISA variants are
    derived with :func:`repro.machine.isa_variant`); the paper's Xeon Gold
    6140 is assumed when omitted.
    """
    return PlanBuilder(spec, machine=machine)


class CompiledPlan:
    """An immutable, validated execution plan — compile once, run many.

    Instances are produced by :meth:`PlanBuilder.compile`; all configuration
    is frozen at compile time, including the method descriptor resolved from
    the registry and (for folding methods) the
    :class:`~repro.core.vectorized_folding.FoldingSchedule`, which every
    :meth:`run`, :meth:`run_batch` and :meth:`simulate` call reuses.  The
    schedule is the process's one schedule of the configuration
    (:func:`~repro.core.vectorized_folding.folding_schedule`), shared with
    every other plan of the same weights and ``m``, and it holds what is
    built from it: the lowered IR, the engines' compiled sweeps and the
    native program.  A plan keeps its schedule even after the memo dropped
    it.
    """

    def __init__(
        self,
        spec: StencilSpec,
        config: PlanConfig,
        descriptor: MethodDescriptor,
        isa_spec: IsaSpec,
    ):
        self.spec = spec
        self.config = config
        self.descriptor = descriptor
        self.isa_spec = isa_spec
        # Taking the schedule here — never in run() — is what makes the plan
        # amortisable across many grids and safe to share between batch
        # threads.  Methods that only need a schedule for simulated execution
        # (transpose) look theirs up on each simulate() call instead.
        schedule: Optional[FoldingSchedule] = None
        if spec.linear and descriptor.uses_schedule:
            schedule = folding_schedule(spec, self.steps_per_update)
        self.schedule = schedule
        self._frozen = True

    def __setattr__(self, name: str, value: object) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "CompiledPlan is immutable; build a new plan with repro.plan(...)"
            )
        super().__setattr__(name, value)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(stencil={self.spec.name!r}, method={self.config.method!r}, "
            f"isa={self.config.isa!r}, unroll={self.config.unroll}, "
            f"tiled={self.config.tiling is not None}, workers={self.config.workers!r})"
        )

    # ------------------------------------------------------------------ #
    # derived configuration
    # ------------------------------------------------------------------ #
    @property
    def method_key(self) -> str:
        """Registry key of the plan's method."""
        return self.config.method

    @property
    def label(self) -> str:
        """Display label of the plan's method."""
        return self.descriptor.label

    @property
    def steps_per_update(self) -> int:
        """Time steps advanced per folded update (1 for single-step methods)."""
        return self.config.unroll if self.descriptor.uses_unroll else 1

    # ------------------------------------------------------------------ #
    # numerical execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        grid: Grid,
        steps: int,
        backend: Optional[str] = None,
        optimize: Optional[bool] = False,
    ) -> np.ndarray:
        """Advance ``grid`` by ``steps`` time steps and return the final values.

        Every method produces the same numerical answer as the reference
        executor (asserted by the test suite); what changes between methods
        is *how* it is computed — the DLT layout, the folded multi-step path,
        or plain reference arithmetic (:func:`reference_run
        <repro.stencils.reference.reference_run>` for a method without an
        executor).  A tiling configuration selects no path: a tiled plan runs
        as the same plan untiled.  ``run`` is pure (the grid is not mutated),
        which is what makes :meth:`run_batch` deterministic under thread
        fan-out.

        ``backend`` selects the execution engine: ``None`` / ``"auto"`` (the
        default) runs the method's own numeric executor.  For the folded
        method that is one sweep of the register-level schedule per ``m``
        steps, as the plan's native program (the raw, pass-free one
        ``backend="kernel"`` runs), on every periodic or Dirichlet grid
        whose extents and folded radius the engines accept (see below); on
        a Dirichlet grid the program reads zeros outside the grid.  The
        first such ``run()`` of a configuration — stencil weights, ``m``,
        ISA and dimensionality — queues the program's build on a background
        thread and returns without waiting for it.  Until the program loads,
        and for good when it cannot be built, and on every other grid (other
        extents, radii the engines refuse), the sweep is one
        :meth:`FoldingSchedule.numpy_step
        <repro.core.vectorized_folding.FoldingSchedule.numpy_step>` on the
        compiled fold kernel, or the NumPy fold without one.  On a Dirichlet
        grid each sweep's boundary band, and on every grid the ``steps % m``
        remainder, take single reference steps: one fold-kernel call for the
        whole band of a sweep and one per remainder step, or ``ndimage``
        without a fold kernel.  Every one of these engines returns the same
        bits, so the result never depends on which ran; ``explain()`` names
        them.  A grid whose dimensionality differs from the stencil's raises
        :func:`~repro.stencils.reference.reference_step`'s ``ValueError``
        whatever ``steps`` is (but 0).  ``"kernel"``, ``"trace"`` or
        ``"interpret"`` force the register-level schedule through the named
        engine (periodic linear stencils on simulation-capable methods only,
        grid extents in the schedule's block multiples, checked whatever
        ``steps`` is).  Whole folded updates run on the chosen engine and
        any ``steps % m`` remainder finishes with exact reference steps
        (compiled, as above), so every backend returns bit-identical values.
        ``optimize=True`` runs the default IR pass pipeline first on an
        explicit trace or kernel backend (see :meth:`simulate`); it requires
        one.  Both keywords validate through :meth:`ExecutionOptions.normalize
        <repro.backend.ExecutionOptions.normalize>`.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        opts = ExecutionOptions.normalize(backend=backend, optimize=optimize, context="run")
        if opts.explicit:
            return self._run_backend(grid, steps, opts.backend, opts.optimize)
        if steps == 0:
            return grid.values.copy()
        if self.descriptor.executor is not None:
            return self.descriptor.executor(self, grid, steps)
        return reference_run(self.spec, grid, steps)

    def _run_backend(
        self,
        grid: Grid,
        steps: int,
        backend: str,
        optimize: bool = False,
    ) -> np.ndarray:
        """Numeric execution forced through one register-level engine.

        ``backend``/``optimize`` arrive pre-validated by
        :meth:`ExecutionOptions.normalize` in :meth:`run`.
        """
        self._check_engine_support(grid, self.isa_spec.vector_lanes)
        m = self.steps_per_update
        sweeps, remainder = divmod(steps, m)
        if sweeps > 0:
            values, _ = self.simulate(grid, sweeps * m, backend=backend, optimize=optimize)
        else:
            values = grid.values.copy()
        return _reference_steps(self._simulation_schedule(), values, grid, remainder)

    def run_batch(
        self,
        grids: Sequence[Grid],
        steps: int,
        workers: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Run the plan over many grids concurrently; results keep input order.

        The fan-out happens on a thread pool
        (:func:`repro.parallel.executor.run_plan_batch`); because :meth:`run`
        is pure and the schedule is frozen at compile time, the batch result
        is bit-identical to ``[self.run(g, steps) for g in grids]`` for any
        worker count.
        """
        return run_plan_batch(self, grids, steps, workers=workers)

    # ------------------------------------------------------------------ #
    # simulated execution
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        grid: Grid,
        steps: int,
        machine: Optional[SimdMachine] = None,
        backend: Optional[str] = "trace",
        optimize: Optional[bool] = False,
    ) -> Tuple[np.ndarray, InstructionCounts]:
        """Execute the register-level schedule on the simulated SIMD machine.

        Supported for methods with the ``supports_simulation`` capability on
        1-D grids (held in the transpose layout for the duration of the run,
        as Section 2.2 prescribes: the native kernel transposes each vector
        set in registers as its first sweep reads it and its last sweep
        writes it, the other engines transform the grid on NumPy around the
        run), 2-D grids (original layout, Figure 5 square pipeline) and 3-D
        grids (original layout, plane-wise square pipeline with the leading
        dimension folded into the vertical phase).
        Grids must be periodic and sized in multiples of ``vl²`` (1-D) or
        ``vl`` along the two innermost extents (2-D/3-D).  Returns the final
        values together with the instruction tally of the whole run.

        Parameters
        ----------
        grid:
            Periodic grid to advance.
        steps:
            Time steps (a multiple of the plan's unroll factor).
        machine:
            Optional machine to execute/account on; a fresh machine in the
            plan's ISA is created when omitted.  Counts accumulate on the
            machine across calls with either backend.
        backend:
            ``"trace"`` (the default) lowers the schedule to the typed IR
            once, compiles it to a batched NumPy program (cached on the
            schedule, so once per configuration) and replays it over all
            block positions per sweep — bit-identical values and identical
            instruction counts, typically orders of magnitude faster.
            ``"kernel"`` runs the same program as native SIMD code built
            from C by the system compiler (IR replay
            without one; ``explain()`` says which), from
            :mod:`repro.backend`'s process-wide cache, keyed by the
            program's content, so plans whose programs agree share one
            compiled kernel; values and counts stay bit-identical.
            ``"interpret"`` executes the schedule one simulated instruction
            at a time (the oracle the other backends are tested against).
        optimize:
            Whether the trace and kernel backends run the default optimizing
            pass pipeline (:data:`repro.ir.passes.DEFAULT_PASSES`) first.
            ``False`` (the default) or ``None`` replays the recorded program
            as-is — counts identical to the interpreter.  ``True`` replay
            stays bit-identical to interpreted execution but accounts the
            optimized program's own (smaller) instruction tally.  Both
            variants are compiled at most once and cached side by side on
            the schedule.  Any other value raises ``ValueError``.
        """
        opts = ExecutionOptions.normalize(backend=backend, optimize=optimize, context="simulate")
        backend, optimize = opts.backend, opts.optimize
        machine = machine or SimdMachine(self.isa_spec)
        vl = machine.vl
        self._check_engine_support(grid, vl)
        m = self.steps_per_update
        if steps % m != 0:
            raise ValueError(f"steps ({steps}) must be a multiple of the unroll factor {m}")
        schedule = self._simulation_schedule()
        sweeps = steps // m
        # Every sweep and layout transform writes a new array, so the grid
        # is copied only when no sweep runs.
        if backend in ("trace", "kernel"):
            compiled = self._compiled(backend, schedule, machine.isa, optimize)
            result = _replay_sweeps(compiled, grid.values, sweeps)
            if sweeps > 0:
                counts, peak, spills = compiled.sweep_counts(grid.values.shape)
                machine.absorb(counts.scaled(sweeps), peak, spills * sweeps)
            return result, machine.counts
        if sweeps == 0:
            return grid.values.copy(), machine.counts
        if grid.dims == 1:
            data = to_transpose_layout(grid.values, vl)
            for _ in range(sweeps):
                data = schedule.simd_sweep_1d(machine, data)
            return from_transpose_layout(data, vl), machine.counts
        values = grid.values
        for _ in range(sweeps):
            values = schedule.simd_sweep_squares(machine, values)
        return values, machine.counts

    def _check_engine_support(self, grid: Grid, vl: int, dirichlet: bool = False) -> None:
        """Raise ``ValueError`` unless the register-level engines at ``vl``
        lanes can advance ``grid``.

        :meth:`simulate` and :meth:`run` with an explicit backend call it
        before anything else, so an unsupported grid fails the same way
        whatever ``steps`` is — never with a silent reference fallback.  The
        engines sweep periodic grids; the native program of the default
        folded :meth:`run` sweeps Dirichlet grids as well, which
        :meth:`_native_program` accepts with ``dirichlet=True``.
        """
        if not self.descriptor.supports_simulation:
            raise ValueError(
                f"method {self.config.method!r} does not support simulated execution"
            )
        if not self.spec.linear:
            raise ValueError("simulated execution requires a linear stencil")
        check_dims(self.spec, grid.values)
        accepted = {BoundaryCondition.PERIODIC}
        if dirichlet:
            accepted.add(BoundaryCondition.DIRICHLET)
        if grid.boundary not in accepted:
            raise ValueError("simulated execution requires periodic boundaries")
        block_axes(grid.values.shape, vl, grid.dims)  # raises outside the block multiples
        check_lowerable(self._simulation_schedule(), vl)

    def _native_program(self, grid: Grid):
        """The native raw program the default folded :meth:`run` sends
        ``grid``'s sweeps to, or ``None`` while they fold on the fold kernel.

        ``None`` for a grid :meth:`_check_engine_support` refuses, periodic
        and Dirichlet grids alike.  Otherwise the plan asks
        :func:`repro.backend.codegen.background_build` for its schedule's
        program, which queues the build on the schedule's first ask and
        keeps it there for every plan of the configuration: ``None`` until
        the program loaded natively, and for good when its build failed.
        """
        try:
            self._check_engine_support(grid, self.isa_spec.vector_lanes, dirichlet=True)
        except ValueError:
            return None
        return codegen.background_build(self.schedule, self.isa_spec).native

    def _native_run_description(self) -> str:
        """Which engine the default folded :meth:`run` takes for which grids.

        A property of the plan alone: the state of this process's build is
        :meth:`_native_build_state`'s.
        """
        vl = self.isa_spec.vector_lanes
        try:
            check_lowerable(self.schedule, vl)
        except ValueError as exc:
            return f"every grid folds on the fold kernel ({exc})"
        grids = {
            1: f"periodic and Dirichlet grids of a multiple of vl²={vl * vl} points",
            2: f"periodic and Dirichlet grids in multiples of vl={vl}",
            3: f"periodic and Dirichlet grids whose two innermost extents are "
            f"multiples of vl={vl}",
        }[self.spec.dims]
        return (
            f"{grids} run the register-level schedule natively once the plan's native "
            "program has loaded, on the fold kernel until then; every other grid folds "
            "on the fold kernel"
        )

    def _native_build_state(self) -> Optional[str]:
        """This process's build of the native program behind the default
        folded :meth:`run`, ``None`` when the schedule cannot lower; starts
        no build."""
        try:
            check_lowerable(self.schedule, self.isa_spec.vector_lanes)
        except ValueError:
            return None
        build = codegen.background_build(self.schedule, self.isa_spec, queue=False)
        if build is None:
            return "native program: not queued yet"
        if build.native is not None:
            return f"native program: loaded ({build.native.detail})"
        return f"native program: {build.status}"

    def _compiled(
        self,
        engine: str,
        schedule: FoldingSchedule,
        isa: IsaSpec,
        optimize: bool = False,
    ):
        """The compiled sweep of ``engine`` for ``(isa, optimize)``, kept on
        ``schedule``.

        ``engine`` is ``"trace"`` (:func:`~repro.ir.executor.compile_sweep`)
        or ``"kernel"`` (:func:`~repro.backend.codegen.compile_kernel`: the
        program's native C form, shared process-wide through its
        content-key cache).  Compiled at most once per schedule, engine, ISA
        and ``optimize`` (:meth:`FoldingSchedule.derived
        <repro.core.vectorized_folding.FoldingSchedule.derived>`) — the
        lower/optimize/compile step is grid-shape independent, so every
        simulate() call of every plan of the configuration reuses it.
        """
        build = compile_sweep if engine == "trace" else codegen.compile_kernel
        return schedule.derived(
            (engine, isa.name, optimize), lambda: build(schedule, isa, optimize=optimize)
        )

    def measure(
        self,
        grid: Grid,
        steps: int,
        backend: Optional[str] = "kernel",
        optimize: Optional[bool] = False,
        **kwargs,
    ):
        """Measured wall-clock execution of the plan on one backend.

        Convenience front end to
        :func:`repro.backend.measure.measure_backend`: warmup + repeated
        timed runs of ``run(grid, steps, backend=backend)``, reported as a
        :class:`~repro.backend.measure.BackendMeasurement` (median seconds,
        measured cycles per point for any assumed frequency).  ``backend``
        and ``optimize`` validate like :meth:`run`'s; the remaining keywords
        — ``warmup``, ``repeats``, ``clock`` — pass through.
        """
        from repro.backend.measure import measure_backend

        return measure_backend(self, grid, steps, backend=backend, optimize=optimize, **kwargs)

    def _simulation_schedule(self) -> FoldingSchedule:
        """The folding schedule backing simulated execution.

        Folding methods use the schedule taken at compile time; methods that
        only simulate (transpose, m = 1) look theirs up in the schedule memo
        (:func:`~repro.core.vectorized_folding.folding_schedule`) on use.
        """
        if self.schedule is not None:
            return self.schedule
        return folding_schedule(self.spec, self.steps_per_update)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def profile(self) -> MethodProfile:
        """Steady-state per-point instruction profile of the compiled method."""
        return self.descriptor.profile(
            self.spec,
            isa=self.config.isa,
            m=self.config.unroll,
            shifts_reuse=self.config.shifts_reuse,
        )

    def estimate(
        self,
        problem_shape: Sequence[int],
        time_steps: int,
        cores: int = 1,
        machine: Optional[MachineSpec] = None,
        multicore: MulticoreConfig = MulticoreConfig(),
    ) -> PerformanceEstimate:
        """Modelled performance for ``problem_shape`` over ``time_steps``.

        Parameters
        ----------
        problem_shape:
            Spatial extents of the problem (paper scale or otherwise).
        time_steps:
            Total time steps.
        cores:
            Active cores (1 for the sequential experiments).
        machine:
            Machine description; defaults to the paper's Xeon Gold 6140 in
            the plan's ISA configuration.
        multicore:
            Overhead parameters of the multicore model.
        """
        machine = machine or machine_for_isa(self.config.isa)
        return multicore_estimate(
            self.profile(),
            grid_shape=problem_shape,
            time_steps=time_steps,
            machine=machine,
            cores=cores,
            radius=self.spec.radius,
            tiling=self.config.tiling,
            config=multicore,
        )

    def folding_report(self) -> ProfitabilityReport:
        """Profitability analysis (Section 3.2) for the plan's unroll factor."""
        if not self.spec.linear:
            raise ValueError("folding profitability is defined for linear stencils only")
        return analyze_folding(self.spec, max(2, self.config.unroll))

    def explain(self) -> str:
        """Human-readable dump of the chosen execution path and analysis.

        Besides the plan, three parts read this process and host: the end of
        the ``execution path`` line (the native program's build, and where
        the band and the remainder steps run), the ``fold kernel`` line and
        the ``kernel backend`` line.  They report state only: ``explain()``
        starts no build and loads no library.
        """
        return "\n".join(self._explain_lines(host=True))

    def _explain_lines(self, host: bool) -> List[str]:
        """The lines of :meth:`explain`; ``host=False`` leaves out the parts
        that read the process and the host, so the text depends on the plan
        alone (the service's ``plan`` results carry it)."""
        spec, config = self.spec, self.config
        lines = [
            f"CompiledPlan for {spec.name!r} "
            f"({spec.npoints}-point {spec.shape_class.value}, {spec.dims}-D, "
            f"{'linear' if spec.linear else 'non-linear'})",
            f"  method         : {config.method} — {self.label}"
            + (f" ({self.descriptor.description})" if self.descriptor.description else ""),
            f"  isa            : {config.isa} (vl={self.isa_spec.vector_lanes} doubles)",
            f"  unroll (m)     : {config.unroll}"
            + ("" if self.descriptor.uses_unroll else " (unused by this method)"),
            f"  shifts reuse   : {'on' if config.shifts_reuse else 'off'}",
        ]
        if config.tiling is not None:
            lines.append(
                f"  tiling         : tessellation blocks={config.tiling.block_sizes} "
                f"time_range={config.tiling.time_range} "
                "(model and tuner axis; run() executes untiled)"
            )
        else:
            lines.append("  tiling         : none")
        workers = (
            f"unconfigured (run_batch uses up to {DEFAULT_BATCH_WORKERS})"
            if config.workers is None
            else f"{config.workers} (run_batch)"
        )
        lines.append(f"  workers        : {workers}")
        path = self._path_description()
        if host and self.schedule is not None:
            state = self._native_build_state()
            path += f"; {state}" if state else ""
            path += f"; the band and the steps % m remainder steps run on {band_status()}"
        lines.append(f"  execution path : {path}")
        if self.schedule is not None:
            variant = (
                "separable fast path"
                if self.schedule.separable_fast_path
                else "counterpart reuse"
            )
            lines.append(
                f"  schedule       : folded radius {self.schedule.radius}, "
                f"{self.schedule.num_materialized} materialized counterpart(s), {variant}"
            )
            if host:
                lines.append(f"  fold kernel    : {fold_kernel_status()}")
        ir_line = self._ir_pipeline_description()
        if ir_line is not None:
            lines.append(f"  ir pipeline    : {ir_line}")
            if host:
                lines.append(f"  kernel backend : {self._kernel_backend_description()}")
        try:
            profile = self.profile()
        except (TypeError, ValueError):
            # No vectorization model, or a plug-in profile builder needing
            # extra arguments explain() cannot supply.
            lines.append("  profile        : none (no vectorization model)")
        else:
            lines.append(
                f"  profile        : {profile.data_organization_per_point:.3f} data-org + "
                f"{profile.arithmetic_per_point:.3f} arithmetic vector instr/point, "
                f"{profile.sweeps_per_step:g} sweep(s)/step"
            )
        if spec.linear:
            report = self.folding_report()
            lines.append(
                f"  profitability  : |C(E)|={report.collect_naive} → "
                f"|C(E_Λ)|={report.collect_optimized} (optimised), "
                f"P={report.profitability_optimized:.1f}"
            )
        return lines

    def _ir_pipeline_description(self) -> Optional[str]:
        """Pass-by-pass static count deltas of the default IR pipeline.

        ``None`` when the plan has no register-level schedule to lower (the
        method does not simulate, or the folded radius exceeds the vector
        length).
        """
        if self.schedule is None or not self.descriptor.supports_simulation:
            return None
        lowered = self.schedule._lowered_ir(self.isa_spec.vector_lanes, True)
        if lowered is None or not lowered[1]:
            return None
        reports = lowered[1]
        before = reports[0].counts_before.total
        after = reports[-1].counts_after.total
        effective = [
            r.describe() for r in reports if r.removed or r.spills_after != r.spills_before
        ]
        detail = "; ".join(effective) if effective else "no pass fired"
        return f"{before:g} → {after:g} static ops ({detail})"

    def _kernel_backend_description(self) -> str:
        """How ``backend="kernel"`` runs the plan's default-pipeline program
        once the process built it: :attr:`KernelProgram.status
        <repro.backend.codegen.KernelProgram.status>`, ``native (<cached .so>,
        <ISA flags>)`` or ``ir replay (<reason>)``; starts no build."""
        ir, _ = self.schedule._lowered_ir(self.isa_spec.vector_lanes, True)
        program = codegen.cached_kernel(ir)
        return "not built in this process" if program is None else program.status

    def _path_description(self) -> str:
        if self.descriptor.describe_path is not None:
            return self.descriptor.describe_path(self)
        return describe_generic_path(self)


# --------------------------------------------------------------------------- #
# generic + folded numeric paths (registered with the registry below)
# --------------------------------------------------------------------------- #
def describe_generic_path(plan_: CompiledPlan) -> str:
    """Description of the path of a method without an executor
    (:func:`~repro.stencils.reference.reference_run`) for ``explain()``."""
    return "reference arithmetic, one sweep per time step"


def _sweep_layouts(i: int, sweeps: int, original: bool = False) -> Tuple[str, str]:
    """The layouts a 1-D :class:`~repro.backend.codegen.KernelProgram` reads
    and writes in sweep ``i`` of ``sweeps`` over an original-layout grid:
    the first sweep reads the original layout, the last writes it, and the
    sweeps between stay in the transpose layout; ``original`` keeps every
    sweep in the original layout."""
    return (
        "original" if original or i == 0 else "transpose",
        "original" if original or i == sweeps - 1 else "transpose",
    )


def _replay_sweeps(compiled, values: np.ndarray, sweeps: int) -> np.ndarray:
    """``sweeps`` sweeps of an engine program over the original-layout
    periodic ``values``, into new arrays.

    A 1-D :class:`~repro.backend.codegen.KernelProgram` moves between the
    layouts itself (:func:`_sweep_layouts`).  Trace replay runs between
    NumPy layout transforms.
    """
    if sweeps == 0:
        return values.copy()
    if compiled.dims == 1 and not isinstance(compiled, codegen.KernelProgram):
        data = to_transpose_layout(values, compiled.vl)
        for _ in range(sweeps):
            data = compiled.replay(data)
        return from_transpose_layout(data, compiled.vl)
    for i in range(sweeps):
        if compiled.dims == 1:
            values = compiled.replay(values, layouts=_sweep_layouts(i, sweeps))
        else:
            values = compiled.replay(values)
    return values


def _execute_folded(plan_: CompiledPlan, grid: Grid, steps: int) -> np.ndarray:
    """Folded fast path: one loop over the folded updates, then the
    ``steps % m`` remainder.

    Each folded update is one sweep of the plan's native program once it
    has loaded (:meth:`CompiledPlan._native_program`), periodic and
    Dirichlet grids alike, else one :meth:`FoldingSchedule.numpy_step`;
    on a Dirichlet grid :func:`_fix_dirichlet_band` then recomputes its
    band.  A 1-D native sweep of a periodic grid leaves the transpose
    layout only at the run's ends; on a Dirichlet grid every sweep reads
    and writes the original layout, the one the band recompute reads.  The
    remainder runs as single reference steps (:func:`_reference_steps`):
    on the fold kernel's compiled reference step, or on ``ndimage`` in a
    process without a fold kernel.  Every engine returns the same bits, so
    the result never depends on which ran, or on whether, or when, the
    background build finished.

    Every sweep, band fix and compiled reference step writes one of two
    arrays allocated once per run (:class:`RunArrays
    <repro.core.fold_kernel.RunArrays>`), whose addresses are read once, and
    the last result is returned as it is.  The NumPy body and ``ndimage``,
    which run without a fold kernel, write new arrays.  The grid is never
    written either way.
    """
    if plan_.schedule is None:
        # Non-linear stencils cannot fold their arithmetic; the method
        # degenerates to reference arithmetic (profile-wise it still models
        # the in-register m-step update, see repro.methods.profile_folded).
        return reference_run(plan_.spec, grid, steps)
    check_dims(plan_.spec, grid.values)
    schedule = plan_.schedule
    sweeps, remainder = divmod(steps, schedule.m)
    program = plan_._native_program(grid) if sweeps else None
    dirichlet = grid.boundary is BoundaryCondition.DIRICHLET
    radius = schedule.spec.radius
    arrays = RunArrays(grid.values)
    values = arrays.grid
    for i in range(sweeps):
        out = arrays.output(values)
        if program is None:
            folded = schedule.numpy_step(values, grid.boundary, out)
        else:
            layouts = _sweep_layouts(i, sweeps, original=dirichlet)
            folded = program.replay(
                values,
                out,
                layouts=layouts,
                boundary=grid.boundary,
                addresses=arrays.addresses(values, out),
            )
        if dirichlet:
            folded = _fix_dirichlet_band(schedule, values, folded, arrays, radius)
        values = folded
    values = _reference_steps(schedule, values, grid, remainder, arrays)
    return values.copy() if values is grid.values else values


def _reference_steps(
    schedule: FoldingSchedule,
    values: np.ndarray,
    grid: Grid,
    steps: int,
    arrays: Optional[RunArrays] = None,
) -> np.ndarray:
    """``steps`` reference steps of the schedule's stencil from ``values``.

    They run on the fold kernel's compiled reference step, fed with
    :meth:`FoldingSchedule.step_tables`, which returns ``reference_step``'s
    bits, into the run's ``arrays`` (new ones when none are given); a
    process without a fold kernel calls ``reference_step``.  ``values``
    itself is returned when ``steps`` is 0.
    """
    kernel = load_fold_kernel() if steps else None
    if kernel is not None and arrays is None:
        arrays = RunArrays(values)
        values = arrays.grid
    for _ in range(steps):
        if kernel is None:
            values = reference_step(schedule.spec, values, grid.boundary, aux=grid.aux)
        else:
            values = arrays.step(kernel, schedule.step_tables(), values, grid.boundary)
    return values


def _fix_dirichlet_band(
    schedule: FoldingSchedule,
    before: np.ndarray,
    folded: np.ndarray,
    arrays: Optional[RunArrays] = None,
    radius: Optional[int] = None,
) -> np.ndarray:
    """Recompute the boundary band of one folded update (ghost-zone handling).

    A folded ``m``-step update of ``before`` is exact only for points at
    distance ``>= (m-1)·r`` from a Dirichlet boundary, ``r`` the stencil's
    largest radius (``radius``, read from the spec when not given).  The
    band closer than that gets the values of ``m`` reference steps, written
    into ``folded``, which is returned.  The fold kernel recomputes the
    whole band in one call (every face, all ``m`` steps, on a frame that
    shrinks by ``r`` per step): the columns near each row end packed across
    rows into strips that run along y, so every vector sums as many band
    points as it has lanes; the rows near a face across planes or rows
    summed whole.  Its scratch holds only the band's strips and rows; a
    run's ``arrays`` allocate it once for all the run's band fixes (new
    ones serve a call without them).  Without a fold kernel, each face's
    strip takes ``m`` ``reference_step`` calls, the strip wide enough that
    its interior edge cannot contaminate the kept band.  Both return the
    bits of ``m`` full-grid reference steps.
    """
    spec, m = schedule.spec, schedule.m
    if radius is None:
        radius = spec.radius
    band = (m - 1) * radius
    if band <= 0:
        return folded
    kernel = load_fold_kernel()
    if kernel is not None:
        if arrays is None:
            arrays = RunArrays(before)
            before = arrays.grid
        return arrays.band(kernel, schedule.step_tables(), before, folded, m, radius)
    out = folded
    strip_width = band + m * radius
    for axis in range(before.ndim):
        n = before.shape[axis]
        width = min(strip_width, n)
        for side in (0, 1):
            strip = [slice(None)] * before.ndim
            keep_local = [slice(None)] * before.ndim
            keep_global = [slice(None)] * before.ndim
            if side == 0:
                strip[axis] = slice(0, width)
                keep_local[axis] = slice(0, min(band, width))
                keep_global[axis] = slice(0, min(band, n))
            else:
                strip[axis] = slice(n - width, n)
                keep_local[axis] = slice(width - min(band, width), width)
                keep_global[axis] = slice(n - min(band, n), n)
            sub = before[tuple(strip)].copy()
            for _ in range(m):
                sub = reference_step(spec, sub, BoundaryCondition.DIRICHLET)
            out[tuple(keep_global)] = sub[tuple(keep_local)]
    return out


def _describe_folded(plan_: CompiledPlan) -> str:
    if plan_.schedule is None:
        return (
            f"non-linear stencil: in-register {plan_.config.unroll}-step update via "
            + describe_generic_path(plan_)
        )
    variant = (
        "separable fast path"
        if plan_.schedule.separable_fast_path
        else "counterpart reuse"
    )
    vertical = plan_.schedule.describe_vertical_phase()
    return (
        f"{plan_.config.unroll}-step temporal folding ({variant})"
        + ("" if vertical is None else f", {vertical}")
        + ": "
        + plan_._native_run_description()
        + "; on a Dirichlet grid each folded update's band is recomputed exactly"
    )


# The folded profile builder is registered in repro.methods; its numeric
# executor lives here because it needs the folding machinery above.
set_executor("folded", _execute_folded, describe_path=_describe_folded)
