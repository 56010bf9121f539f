"""The library names the wall-clock benchmark (``perfbench/``) hooks into.

``perfbench/run.py --trace 1`` wraps library functions in place — the grid
layers through :data:`perfbench.grids.GRID_HOOKS`, the service through
``perfbench/traced_server.py`` — and attributes time to the spans they
record.  A rename or a dropped keyword in ``src/`` would silently empty a
layer or crash the traced run; these tests fail first.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro.backend.codegen import KernelProgram
from repro.stencils.grid import Grid

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench is a top-level package of the repository
    sys.path.insert(0, str(ROOT))

from perfbench.grids import GRID_HOOKS, install_hooks  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

#: What ``perfbench/traced_server.py`` patches, and the arguments its
#: wrappers pass on: ``(module, attribute path, positional, keywords)``.
SERVICE_PATCHES = (
    ("repro.service.server", "normalize", ("payload",), {}),
    ("repro.service.server", "main", (["--port", "0"],), {}),
    ("repro.service.serial", "encode", ("value", None), {}),
    ("repro.service.scheduling", "AdmissionQueue.offer", ("self", "item", 0), {}),
    ("repro.service.scheduling", "AdmissionQueue.take", ("self",), {}),
    ("repro.service.store", "ResultStore.load", ("self", "kind", "key"), {}),
    ("repro.service.store", "ResultStore.save", ("self", "kind", "key", "value"), {}),
    ("repro.service.workers", "execute_payload", ("payload",), {}),
    (
        "repro.service.workers",
        "WorkerPool.run",
        ("self", "payload"),
        {"retries": None, "key": None},
    ),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class TestGridHooks:
    def test_every_hooked_attribute_exists(self):
        for target, attr, _name in GRID_HOOKS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), f"{target}.{attr}"

    def test_engine_builds_record_their_spans(self):
        tracer = Tracer()
        install_hooks(tracer)
        try:
            plan = repro.plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
            grid = Grid.random((8, 8), seed=0)
            for backend in ("trace", "kernel"):
                plan.simulate(grid, 2, backend=backend, optimize=True)
        finally:
            tracer.restore()
        names = {span.name for span in tracer.spans}
        assert {"ir.lower", "ir.passes", "ir.trace_build", "backend.kernel_build"} <= names
        # restore() put the library's own functions back.
        plan_module = importlib.import_module("repro.core.plan")
        assert plan_module.compile_sweep is repro.ir.executor.compile_sweep

    def test_kernel_sweep_span_is_its_own_and_restored(self):
        """The kernel subclasses the trace executor; patching both replays
        must still time a kernel sweep once, and restore() must put the
        kernel's own replay back rather than the trace's wrapper."""
        plan = repro.plan("2d9p").method("folded").isa("avx2").unroll(2).compile()
        grid = Grid.random((8, 8), seed=0)
        tracer = Tracer()
        install_hooks(tracer)
        try:
            plan.simulate(grid, 2, backend="kernel", optimize=True)
        finally:
            tracer.restore()
        (sweep,) = tracer.named("backend.kernel_sweep")
        assert [s.name for s in tracer.spans if s.parent == sweep.index] == []
        replay = KernelProgram.__dict__["replay"]
        assert replay.__qualname__ == "KernelProgram.replay"
        assert not hasattr(replay, "__wrapped__")
        recorded = len(tracer.spans)
        plan.simulate(grid, 2, backend="kernel", optimize=True)
        assert len(tracer.spans) == recorded


class TestTracedServerPatches:
    @pytest.mark.parametrize(
        "module,path,args,kwargs", SERVICE_PATCHES, ids=[p[1] for p in SERVICE_PATCHES]
    )
    def test_patched_attribute_accepts_the_forwarded_arguments(self, module, path, args, kwargs):
        fn = _resolve(module, path)
        inspect.signature(fn).bind(*args, **kwargs)

    def test_server_module_exposes_serial(self):
        server = importlib.import_module("repro.service.server")
        assert server.serial is importlib.import_module("repro.service.serial")
