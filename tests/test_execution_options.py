"""The one backend=/optimize= validator (:class:`ExecutionOptions`).

``CompiledPlan.run``/``simulate``/``measure``, the measurement harness and
the service protocol all normalize the execution keywords through
:meth:`ExecutionOptions.normalize`.  These tests pin the contract:
per-context defaults, the error messages and the cross-surface agreement.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.backend import compile_kernel
from repro.backend.options import ExecutionOptions
from repro.core.plan import plan
from repro.ir import compile_sweep
from repro.stencils.grid import Grid


class TestNormalize:
    def test_context_defaults(self):
        assert ExecutionOptions.normalize(context="run").backend == "auto"
        assert ExecutionOptions.normalize(context="simulate").backend == "trace"

    def test_unknown_context(self):
        with pytest.raises(ValueError, match="unknown execution context"):
            ExecutionOptions.normalize(context="frobnicate")

    def test_backend_spelling_is_normalized(self):
        opts = ExecutionOptions.normalize(backend="  Kernel ", context="run")
        assert opts.backend == "kernel"
        assert opts.explicit

    def test_unknown_backend_messages_keep_the_context_noun(self):
        with pytest.raises(ValueError, match="unknown execution backend 'jit'"):
            ExecutionOptions.normalize(backend="jit", context="run")
        with pytest.raises(ValueError, match="unknown simulation backend 'auto'"):
            ExecutionOptions.normalize(backend="auto", context="simulate")

    def test_optimize_requires_an_explicit_backend(self):
        with pytest.raises(ValueError, match="requires an explicit execution backend"):
            ExecutionOptions.normalize(optimize=True, context="run")
        with pytest.raises(ValueError, match="trace and kernel backends only"):
            ExecutionOptions.normalize(backend="interpret", optimize=True, context="run")

    def test_falsy_optimize_spellings_collapse_to_false(self):
        for spelling in (False, None):
            opts = ExecutionOptions.normalize(
                backend="trace", optimize=spelling, context="simulate"
            )
            assert opts.optimize is False

    def test_allowed_backends_lead_with_the_default(self):
        assert ExecutionOptions.allowed_backends("run")[0] == "auto"
        assert ExecutionOptions.allowed_backends("simulate")[0] == "trace"
        assert "auto" not in ExecutionOptions.allowed_backends("simulate")


class TestPlanEntryPoints:
    """The plan verbs validate backend=/optimize= through the same validator."""

    @pytest.fixture(scope="class")
    def compiled(self):
        case = repro.get_benchmark("1d-heat")
        return plan(case.spec).method("folded").isa("avx2").unroll(2).compile()

    def test_run_rejects_unknown_backend_with_the_historical_message(self, compiled):
        grid = Grid.random((256,), seed=0)
        with pytest.raises(ValueError, match="unknown execution backend"):
            compiled.run(grid, 2, backend="jit")

    def test_simulate_rejects_auto_and_interpret_optimize(self, compiled):
        grid = Grid.random((256,), seed=0)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            compiled.simulate(grid, 2, backend="auto")
        with pytest.raises(ValueError, match="trace and kernel backends only"):
            compiled.simulate(grid, 2, backend="interpret", optimize=True)

    def test_measure_normalizes_through_the_same_validator(self, compiled):
        grid = Grid.random((256,), seed=0)
        with pytest.raises(ValueError, match="trace and kernel backends only"):
            compiled.measure(grid, 2, backend="interpret", optimize=True)

    @pytest.mark.parametrize("spelling", ["cse", 1, 2.5, {"cse": 1}, ("cse",), ()], ids=repr)
    @pytest.mark.parametrize(
        "surface", ["run", "simulate", "measure", "compile_sweep", "compile_kernel"]
    )
    def test_optimize_accepts_only_true_false_or_none(self, compiled, surface, spelling):
        """A pass name, a number, a mapping or a sequence is not an
        ``optimize=`` value: each raises, before anything runs."""
        grid = Grid.random((256,), seed=0)
        calls = {
            "run": lambda: compiled.run(grid, 2, backend="trace", optimize=spelling),
            "simulate": lambda: compiled.simulate(grid, 2, optimize=spelling),
            "measure": lambda: compiled.measure(
                grid, 2, backend="trace", optimize=spelling, warmup=0, repeats=1
            ),
            "compile_sweep": lambda: compile_sweep(
                compiled.schedule, compiled.isa_spec, optimize=spelling
            ),
            "compile_kernel": lambda: compile_kernel(
                compiled.schedule, compiled.isa_spec, optimize=spelling
            ),
        }
        with pytest.raises(ValueError, match="optimize= must be True, False or None"):
            calls[surface]()

    @pytest.mark.parametrize("build", [compile_sweep, compile_kernel])
    def test_engine_builders_take_optimize_by_keyword_only(self, compiled, build):
        """A third positional argument is refused rather than read as
        ``optimize``."""
        with pytest.raises(TypeError):
            build(compiled.schedule, compiled.isa_spec, True)

    @pytest.mark.parametrize("build", [compile_sweep, compile_kernel])
    def test_engine_builders_refuse_an_unknown_isa(self, compiled, build):
        """The engines lower for the two modelled ISAs only; another spec with
        the same lane width must not get the avx2 program."""
        custom = dataclasses.replace(compiled.isa_spec, name="custom", registers=8)
        with pytest.raises(ValueError, match="unknown ISA 'custom'"):
            build(compiled.schedule, custom)

    def test_measure_accepts_the_run_backends(self, compiled):
        """measure() times run(), so it validates in run()'s context."""
        grid = Grid.random((256,), seed=0)
        measured = compiled.measure(grid, 2, backend="auto", warmup=0, repeats=1)
        assert measured.backend == "auto"


class TestMeasureCli:
    def test_optimize_on_interpret_is_rejected_by_the_validator(self, capsys):
        from repro.backend.cli import main

        assert main(["1d-heat", "--backend", "interpret", "--optimize"]) == 2
        assert "trace and kernel backends only" in capsys.readouterr().err


class TestServiceCrossCheck:
    def test_simulate_requests_reject_interpret_optimize(self):
        from repro.service.protocol import ServiceError, normalize

        base = {"kind": "simulate", "stencil": "1d-heat", "shape": [64], "steps": 1}
        assert normalize({**base, "backend": "interpret"}).params["backend"] == "interpret"
        with pytest.raises(ServiceError, match="trace and kernel"):
            normalize({**base, "backend": "interpret", "optimize": True})
