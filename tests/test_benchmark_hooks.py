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
from repro.backend.codegen import KernelProgram, clear_kernel_cache
from repro.core.regression import clear_counterpart_cache
from repro.stencils.grid import Grid

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench is a top-level package of the repository
    sys.path.insert(0, str(ROOT))

from perfbench.grids import GRID_HOOKS, install_hooks  # noqa: E402
from perfbench.spans import ModuleProxy, Tracer  # noqa: E402

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

#: What ``perfbench/service.py`` patches on the client side of the traced
#: ``service-mix`` run, and the arguments its wrappers pass on.
CLIENT_PATCHES = (
    (
        "repro.service.client",
        "ServiceClient.request_full",
        ("self", "POST", "/v1/requests", b"{}"),
        {},
    ),
    ("repro.service.serial", "decode", ("payload", None), {}),
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
        # A cold set-up, as perfbench's setup_sample starts one.
        clear_counterpart_cache()
        clear_kernel_cache()
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

    def test_a_store_hit_encodes_nothing(self, tmp_path, monkeypatch):
        """Results are encoded through the ``serial`` global of
        ``repro.service.server``, the name the traced run wraps: once when
        computed, and not at all when a later life serves the stored bytes."""
        import asyncio

        server = importlib.import_module("repro.service.server")
        serial = importlib.import_module("repro.service.serial")
        encoded = []

        def encode(value, arrays=None):
            encoded.append(value)
            return serial.encode(value, arrays)

        monkeypatch.setattr(server, "serial", ModuleProxy(serial, encode=encode))
        config = server.ServiceConfig(port=0, store_path=str(tmp_path / "store"), workers=0)
        payload = {"kind": "run", "stencil": "2d9p", "m": 2, "shape": [32, 32], "steps": 2}

        async def life():
            service = server.StencilService(config)
            await service.start()
            try:
                _, envelope, fragment = await service._answer(dict(payload))
                return envelope["served_from"], fragment, len(encoded)
            finally:
                await service.shutdown(drain=False)

        computed, stored = asyncio.run(life()), asyncio.run(life())
        assert computed[0::2] == ("computed", 1)
        assert stored == ("store", computed[1], 1)


class TestTracedClientPatches:
    @pytest.mark.parametrize(
        "module,path,args,kwargs", CLIENT_PATCHES, ids=[p[1] for p in CLIENT_PATCHES]
    )
    def test_patched_attribute_accepts_the_forwarded_arguments(self, module, path, args, kwargs):
        fn = _resolve(module, path)
        inspect.signature(fn).bind(*args, **kwargs)

    def test_client_module_exposes_serial(self):
        client = importlib.import_module("repro.service.client")
        assert client.serial is importlib.import_module("repro.service.serial")

    def test_submit_goes_through_request_full_and_the_module_serial(self, monkeypatch):
        """``submit`` calls ``request_full(method, path, body)``, reads its
        ``(status, headers, body)`` and decodes through the ``serial`` global
        of ``repro.service.client``: the two names the traced run wraps."""
        client_mod = importlib.import_module("repro.service.client")
        serial = importlib.import_module("repro.service.serial")
        exchanges, decoded = [], []

        def request_full(self, method, path, body=None):
            exchanges.append((method, path, body))
            return 200, {}, b'{"ok": true, "result": {"__repro__": "tuple", "items": [1, 2]}}'

        def decode(payload, arrays=None):
            decoded.append(payload)
            return serial.decode(payload, arrays)

        monkeypatch.setattr(client_mod.ServiceClient, "request_full", request_full)
        monkeypatch.setattr(client_mod, "serial", ModuleProxy(serial, decode=decode))
        envelope = client_mod.ServiceClient("http://127.0.0.1:1").submit({"kind": "plan"})
        assert exchanges == [("POST", "/v1/requests", b'{"kind": "plan"}')]
        assert decoded == [{"__repro__": "tuple", "items": [1, 2]}]
        assert envelope["result"] == (1, 2)
