"""Tests for the compile-once/run-many plan API (repro.core.plan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import vectorized_folding
from repro.core.plan import CompiledPlan, plan
from repro.core.regression import clear_counterpart_cache
from repro.ir import PassManager, lower_schedule
from repro.methods import profile_folded
from repro.perfmodel.costmodel import PerformanceEstimate
from repro.simd.isa import AVX2
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import BENCHMARKS, box_2d9p, get_benchmark, heat_1d, heat_2d
from repro.stencils.reference import reference_run
from repro.tiling.tessellate import TessellationConfig
from repro.utils.validation import assert_allclose


@pytest.fixture
def schedule_counter(monkeypatch):
    """Count FoldingSchedule constructions from an empty schedule memo
    (cached-schedule assertions)."""
    clear_counterpart_cache()
    counter = {"n": 0}
    original = vectorized_folding.FoldingSchedule.__init__

    def counting_init(self, spec, m):
        counter["n"] += 1
        original(self, spec, m)

    monkeypatch.setattr(vectorized_folding.FoldingSchedule, "__init__", counting_init)
    return counter


class TestBuilder:
    def test_fluent_chain_compiles(self):
        p = (
            plan(box_2d9p())
            .method("folded")
            .isa("avx512")
            .unroll(2)
            .tile(block_sizes=(16, 16), time_range=2)
            .parallel(workers=4)
            .shifts_reuse(False)
            .compile()
        )
        assert isinstance(p, CompiledPlan)
        assert p.config.method == "folded"
        assert p.config.isa == "avx512"
        assert p.config.workers == 4
        assert p.config.tiling == TessellationConfig((16, 16), 2)
        assert not p.config.shifts_reuse

    def test_plan_accepts_benchmark_key_and_case(self):
        from_key = plan("2d9p").compile()
        from_case = plan(get_benchmark("2d9p")).compile()
        assert from_key.spec.name == from_case.spec.name == "2d9p"
        with pytest.raises(TypeError):
            plan(42)  # type: ignore[arg-type]

    def test_method_and_isa_are_normalized(self):
        p = plan(heat_1d()).method("  Folded ").isa(" AVX2 ").compile()
        assert p.config.method == "folded"
        assert p.config.isa == "avx2"

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            plan(heat_1d()).method("pochoir").compile()

    def test_virtual_method_rejected(self):
        with pytest.raises(KeyError):
            plan(heat_1d()).method("tessellation").compile()

    def test_profile_only_method_rejected(self):
        # SDSL is a performance model without a numeric executor: it can be
        # profiled but must not compile into a silently-wrong plan.
        with pytest.raises(KeyError, match="profile-only"):
            plan(heat_1d()).method("sdsl").compile()

    def test_unknown_isa_rejected(self):
        with pytest.raises(KeyError):
            plan(heat_1d()).isa("sve").compile()

    def test_invalid_numeric_settings_rejected(self):
        with pytest.raises(ValueError):
            plan(heat_1d()).unroll(0).compile()
        with pytest.raises(ValueError):
            plan(heat_1d()).parallel(0).compile()

    def test_tile_argument_validation(self):
        with pytest.raises(ValueError):
            plan(heat_2d()).tile(block_sizes=(16, 16))  # missing time range
        with pytest.raises(ValueError):
            plan(heat_2d()).tile(TessellationConfig((16, 16), 2), time_range=4)
        cfg = TessellationConfig((16, 16), 2)
        assert plan(heat_2d()).tile(cfg).compile().config.tiling == cfg
        assert plan(heat_2d()).tile(cfg).tile(None).compile().config.tiling is None


class TestCompiledPlanExecution:
    def test_round_trips_every_executable_method(self):
        """Acceptance: every executable method key compiles and runs via the registry."""
        from repro.methods import METHOD_KEYS

        case = BENCHMARKS["2d9p"]
        grid = case.make_grid((24, 24))
        ref = reference_run(case.spec, grid, 4)
        for key in ("reference",) + METHOD_KEYS:
            p = plan(case.spec).method(key).unroll(2).compile()
            out = p.run(grid, 4)
            assert_allclose(out, ref, context=f"plan/{key}")

    @pytest.mark.parametrize("boundary", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
    def test_folded_plan_matches_reference(self, boundary):
        case = BENCHMARKS["2d9p"]
        grid = case.make_grid((32, 32))
        grid.boundary = boundary
        p = plan(case.spec).method("folded").unroll(2).compile()
        assert_allclose(p.run(grid, 7), reference_run(case.spec, grid, 7))

    def test_tiled_parallel_plan_matches_reference(self):
        case = BENCHMARKS["2d-heat"]
        grid = case.make_grid((48, 48))
        config = TessellationConfig((16, 16), 4)
        p = plan(case.spec).method("transpose").tile(config).parallel(workers=3).compile()
        out = p.run(grid, 10)
        # parallel(n) sizes only run_batch, and a tiled run() executes
        # untiled: the transpose method's run() is reference_run's bits.
        np.testing.assert_array_equal(out, reference_run(case.spec, grid, 10))
        sequential = plan(case.spec).method("transpose").tile(config).compile()
        np.testing.assert_array_equal(sequential.run(grid, 10), out)

    def test_zero_and_negative_steps(self):
        p = plan(heat_1d()).compile()
        grid = Grid.random((32,))
        np.testing.assert_array_equal(p.run(grid, 0), grid.values)
        with pytest.raises(ValueError):
            p.run(grid, -1)

    def test_run_does_not_mutate_grid(self):
        p = plan(heat_1d()).method("folded").unroll(2).compile()
        grid = Grid.random((64,), seed=9)
        before = grid.values.copy()
        p.run(grid, 4)
        np.testing.assert_array_equal(grid.values, before)


class TestScheduleCaching:
    def test_schedule_built_exactly_once_per_configuration(self, schedule_counter):
        """Acceptance: compile constructs the folding schedule once per
        configuration; run/run_batch/simulate/profile of every plan of it
        reuse it."""
        spec = heat_1d()
        p = plan(spec).method("folded").unroll(2).compile()
        assert schedule_counter["n"] == 1
        grid = Grid.random((64,), seed=1)
        for q in (p, plan(spec).method("folded").unroll(2).compile()):
            assert q.schedule is p.schedule
            q.run(grid, 4)
            q.run(grid, 6)
            q.run_batch([Grid.random((64,), seed=s) for s in range(8)], 4)
            q.simulate(grid, 4)
            q.profile()
            q.estimate((1 << 20,), time_steps=100)
        assert schedule_counter["n"] == 1

    def test_separate_configurations_do_not_share_schedules(self, schedule_counter):
        spec = heat_1d()
        p2 = plan(spec).method("folded").unroll(2).compile()
        p3 = plan(spec).method("folded").unroll(3).compile()
        assert schedule_counter["n"] == 2
        assert p2.schedule is not p3.schedule
        assert p2.schedule.m == 2 and p3.schedule.m == 3

    def test_simulate_reuses_cached_schedule(self, schedule_counter):
        spec = heat_1d()
        grid = Grid.random((64,), seed=20)
        for _ in range(3):
            p = plan(spec).method("folded").unroll(2).compile()
            out, counts = p.simulate(grid, 4)
        assert schedule_counter["n"] == 1
        assert_allclose(out, reference_run(spec, grid, 4))
        assert counts.total > 0

    def test_transpose_schedule_is_lazy_and_built_once_per_configuration(self, schedule_counter):
        # transpose never folds in run(); its schedule exists only for
        # simulate() and must not tax compile().
        spec = heat_1d()
        p = plan(spec).method("transpose").compile()
        assert schedule_counter["n"] == 0
        assert p.schedule is None
        grid = Grid.random((64,), seed=21)
        for q in (p, p, plan(spec).method("transpose").compile()):
            out, _ = q.simulate(grid, 3)
        assert schedule_counter["n"] == 1
        assert_allclose(out, reference_run(spec, grid, 3))

    def test_default_pipeline_runs_once_per_configuration_and_isa(self, monkeypatch):
        """The profile, both engine builds and explain() of every plan of a
        configuration share one run of the default IR pipeline, whose reports
        equal an independent run's."""
        clear_counterpart_cache()
        schedule = vectorized_folding.FoldingSchedule(box_2d9p(), 2)
        _, expected = PassManager(True).run(lower_schedule(schedule, AVX2))
        runs = []
        original = PassManager.run

        def counting(self, ir):
            runs.append(ir.isa.name)
            return original(self, ir)

        monkeypatch.setattr(PassManager, "run", counting)
        grid = Grid.random((8, 8), seed=4)
        for _ in range(2):
            p = plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
            p.profile()
            for backend in ("trace", "kernel"):
                p.simulate(grid, 2, backend=backend, optimize=True)
            assert "ir pipeline" in p.explain()
        assert runs == ["avx2"]
        for engine in ("trace", "kernel"):
            compiled = p._compiled(engine, p.schedule, AVX2, optimize=True)
            assert compiled.pass_reports == expected


class TestImmutabilityAndIntrospection:
    def test_compiled_plan_is_immutable(self):
        p = plan(heat_1d()).compile()
        with pytest.raises(AttributeError):
            p.spec = heat_2d()
        with pytest.raises(AttributeError):
            p.schedule = None

    def test_explain_describes_the_execution(self):
        p = (
            plan(box_2d9p())
            .method("folded")
            .isa("avx2")
            .unroll(2)
            .compile()
        )
        text = p.explain()
        assert "folded" in text
        assert "Our (2 steps)" in text
        assert "avx2" in text
        assert "temporal folding" in text
        assert "P=10.0" in text  # the paper's Section 3.2 number for 2D9P

    def test_explain_for_reference_plan(self):
        text = plan(heat_1d()).method("reference").compile().explain()
        assert "reference arithmetic" in text
        assert "no vectorization model" in text

    def test_explain_mentions_tiling_and_workers(self):
        p = (
            plan(heat_2d())
            .method("transpose")
            .tile(block_sizes=(16, 16), time_range=2)
            .parallel(workers=4)
            .compile()
        )
        text = p.explain()
        assert (
            "tiling         : tessellation blocks=(16, 16) time_range=2 "
            "(model and tuner axis; run() executes untiled)" in text
        )
        assert "execution path : reference arithmetic, one sweep per time step" in text
        assert "workers        : 4 (run_batch)" in text

    def test_repr(self):
        p = plan(heat_1d()).method("dlt").compile()
        assert "dlt" in repr(p)


class TestAnalysis:
    def test_profile_threads_shifts_reuse(self):
        """Satellite fix: the ablation flag must reach the folded profile."""
        spec = box_2d9p()  # dense box: folding (and shifts reuse) applies
        on = plan(spec).method("folded").unroll(2).compile().profile()
        off = plan(spec).method("folded").unroll(2).shifts_reuse(False).compile().profile()
        assert off.counts_per_point.total > on.counts_per_point.total
        direct = profile_folded(spec, "avx2", m=2, shifts_reuse=False)
        assert off.counts_per_point.counts == direct.counts_per_point.counts

    def test_profile_for_reference_rejected(self):
        with pytest.raises(ValueError):
            plan(heat_1d()).method("reference").compile().profile()

    def test_estimate(self):
        p = plan(box_2d9p()).method("folded").unroll(2).compile()
        est = p.estimate((512, 512), time_steps=100, cores=4)
        assert isinstance(est, PerformanceEstimate)
        assert est.gflops > 0

    def test_folding_report(self):
        report = plan(box_2d9p()).method("folded").unroll(2).compile().folding_report()
        assert report.profitability_optimized == pytest.approx(10.0)
        with pytest.raises(ValueError):
            plan(BENCHMARKS["game-of-life"].spec).method("transpose").compile().folding_report()

    def test_simulation_capability_enforced(self):
        grid = Grid.random((64,), seed=5)
        with pytest.raises(ValueError):
            plan(heat_1d()).method("dlt").compile().simulate(grid, 2)
        with pytest.raises(ValueError):
            plan(heat_1d()).method("reference").compile().simulate(grid, 2)


class TestSimulationDimsValidation:
    """The built-in simulating methods cover every library dimensionality."""

    def test_builtin_methods_compile_for_every_library_dimensionality(self):
        for key in ("1d-heat", "2d9p", "3d-heat", "3d27p"):
            compiled = plan(key).method("folded").unroll(2).compile()
            assert compiled.descriptor.supports_simulation

    def test_3d_simulation_runs_for_builtin_methods(self):
        p = plan("3d-heat").method("folded").unroll(2).compile()
        grid = get_benchmark("3d-heat").make_grid((3, 8, 8))
        out, counts = p.simulate(grid, 2)
        ref, _ = p.simulate(grid, 2, backend="interpret")
        np.testing.assert_array_equal(out, ref)
        assert counts.total > 0


class TestEngineRemoval:
    def test_stencil_engine_wrapper_is_gone(self):
        """The deprecated StencilEngine facade was removed with PR 5."""
        import repro
        import repro.core

        assert not hasattr(repro, "StencilEngine")
        assert not hasattr(repro.core, "StencilEngine")
