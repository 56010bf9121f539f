"""One folding schedule per configuration and process.

``compile()``, the transpose method's simulation schedule and the folded
profile take their :class:`~repro.core.vectorized_folding.FoldingSchedule`
from one bounded memo keyed on the stencil's weights and ``m``.  What is
built from a schedule — its lowered IR and pass run, the engines' compiled
sweeps, the folded ``run()``'s background build — lives on it, so:

* a fresh plan of a configuration the process has seen lowers nothing, runs
  no pass and hashes no program, whatever it is asked;
* weights, not names, pick the schedule;
* the memo holds its bound, and a plan whose schedule it evicted keeps its
  own programs;
* either cache clear makes the next set-up cold again;
* concurrent first calls lower and optimize once;
* a forked child inherits no held lock and forgets a build its parent had
  not finished.

Everything here holds without a C compiler too, where every kernel replays
its IR and every build fails for good.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.ir.executor
import repro.ir.lower
from repro.backend import clear_kernel_cache, codegen
from repro.core import vectorized_folding
from repro.core.plan import plan
from repro.core.regression import clear_counterpart_cache
from repro.ir.passes import PassManager
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench is a top-level package of the repository
    sys.path.insert(0, str(ROOT))

from perfbench.grids import install_hooks  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

# ``repro.study`` is also the name of a function on the package.
hashing = importlib.import_module("repro.study.hashing")

#: Seconds any test waits for the background builds.
BUILD_TIMEOUT = 600


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts and ends with no build running and an empty memo."""
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    clear_kernel_cache()
    yield
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    clear_kernel_cache()


@pytest.fixture
def refused(monkeypatch):
    """After this fixture, lowering, a pass run or hashing a program raises."""

    def install():
        def refuse(*args, **kwargs):
            raise AssertionError("lowered, optimized or hashed again")

        monkeypatch.setattr(repro.ir.lower, "lower_schedule", refuse)
        monkeypatch.setattr(repro.ir.executor, "lower_schedule", refuse)
        monkeypatch.setattr(PassManager, "run", refuse)
        monkeypatch.setattr(hashing, "config_hash", refuse)

    return install


def _folded(spec, isa: str = "avx2", m: int = 2):
    return plan(spec).method("folded").isa(isa).unroll(m).compile()


def _every_call(p, grid: Grid, steps: int):
    """Everything a plan is asked for, in one list of results."""
    out = [
        p.simulate(grid, steps, backend=backend, optimize=optimize)[0]
        for backend in ("trace", "kernel")
        for optimize in (False, True)
    ]
    p.profile()
    p.explain()
    out.append(p.run(grid, steps))
    return out


@pytest.mark.parametrize(
    "key,isa,shape",
    [("1d5p", "avx512", (2 * 64,)), ("2d9p", "avx2", (16, 16)), ("3d27p", "avx512", (2, 8, 8))],
)
def test_a_fresh_plan_of_a_seen_configuration_lowers_nothing(refused, key, isa, shape):
    grid = Grid.random(shape, seed=1)
    warm = _folded(key, isa)
    want = _every_call(warm, grid, 4)
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    refused()
    fresh = _folded(key, isa)
    assert fresh.schedule is warm.schedule
    for got, expected in zip(_every_call(fresh, grid, 4), want):
        np.testing.assert_array_equal(bits(got), bits(expected))


def test_weights_not_names_pick_the_schedule():
    kernel = np.array([0.25, 0.5, 0.25])
    first = _folded(StencilSpec(name="twin", kernel=kernel))
    renamed = _folded(StencilSpec(name="other", kernel=kernel.copy()))
    reweighted = _folded(StencilSpec(name="twin", kernel=np.array([0.5, 0.25, 0.25])))
    assert renamed.schedule is first.schedule
    assert reweighted.schedule is not first.schedule
    assert _folded(StencilSpec(name="twin", kernel=kernel), m=3).schedule is not first.schedule
    # What a plan reports is its own stencil's, not the schedule's first name.
    assert renamed.explain().startswith("CompiledPlan for 'other' ")
    assert renamed.profile().stencil == "other"


def test_the_memo_holds_its_bound_and_an_evicted_plan_keeps_its_programs():
    grid = Grid.random((64,), seed=3)
    kept = _folded("1d5p")
    want = bits(kept.run(grid, 5))
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT)
    build = codegen.background_build(kept.schedule, kept.isa_spec, queue=False)
    assert build is not None and build.done.is_set()
    for i in range(vectorized_folding._SCHEDULES_MAX + 5):
        _folded(StencilSpec(name=f"s{i}", kernel=np.array([0.25, 0.5 - i * 1e-3, 0.25])))
    assert len(vectorized_folding._SCHEDULES) == vectorized_folding._SCHEDULES_MAX
    assert all(s is not kept.schedule for s in vectorized_folding._SCHEDULES.values())
    assert codegen.background_build(kept.schedule, kept.isa_spec, queue=False) is build
    np.testing.assert_array_equal(bits(kept.run(grid, 5)), want)
    again = _folded("1d5p")
    assert again.schedule is not kept.schedule
    np.testing.assert_array_equal(bits(again.run(grid, 5)), want)


@pytest.mark.parametrize("clear", [clear_counterpart_cache, clear_kernel_cache])
def test_a_cleared_memo_makes_the_next_set_up_cold(clear):
    grid = Grid.random((8, 8), seed=0)

    def set_up():
        tracer = Tracer()
        install_hooks(tracer)
        try:
            p = _folded("2d9p")
            for backend in ("trace", "kernel"):
                p.simulate(grid, 2, backend=backend, optimize=True)
        finally:
            tracer.restore()
        return p, {span.name for span in tracer.spans}

    engines = {"ir.lower", "ir.passes", "ir.trace_build", "backend.kernel_build"}
    first, names = set_up()
    assert engines <= names
    second, names = set_up()
    assert second.schedule is first.schedule and not engines & names
    clear()
    third, names = set_up()
    assert third.schedule is not first.schedule and engines <= names


def test_concurrent_first_calls_lower_and_optimize_once(monkeypatch):
    calls = []
    lower, run = repro.ir.lower.lower_schedule, PassManager.run

    def counted_lower(schedule, isa):
        calls.append("lower")
        return lower(schedule, isa)

    def counted_run(self, ir):
        calls.append("passes")
        return run(self, ir)

    monkeypatch.setattr(repro.ir.lower, "lower_schedule", counted_lower)
    monkeypatch.setattr(PassManager, "run", counted_run)
    grid = Grid.random((16, 16), seed=5)
    start = threading.Barrier(8)

    def first_call(i):
        p = _folded("2d-heat")
        start.wait(timeout=60)
        backend = ("trace", "kernel")[i % 2]
        return bits(p.simulate(grid, 4, backend=backend, optimize=True)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [None] * 8
        threads = [
            threading.Thread(target=lambda i=i: results.__setitem__(i, first_call(i)))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(calls) == ["lower", "passes"]
    for got in results[1:]:
        np.testing.assert_array_equal(got, results[0])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_mid_build_forgets_it_and_queues_it_again(monkeypatch):
    """Forked while the parent's build is queued and while other threads
    hold the memo's and the schedule's locks: the child deadlocks on
    neither, and its first run() queues the build anew."""
    release = threading.Event()
    compile_kernel = codegen.compile_kernel

    def held(*args, **kwargs):
        if threading.current_thread().name == "repro-kernel-builds":
            assert release.wait(timeout=BUILD_TIMEOUT)
        return compile_kernel(*args, **kwargs)

    monkeypatch.setattr(codegen, "compile_kernel", held)
    grid = Grid.random((16, 16), seed=8)
    p = _folded("2d9p")
    want = bits(p.run(grid, 5))
    queued = codegen.background_build(p.schedule, p.isa_spec, queue=False)
    assert queued is not None and not queued.done.is_set()

    holding, done = threading.Event(), threading.Event()

    def hold_locks():
        with vectorized_folding._SCHEDULES_LOCK, p.schedule._lock:
            holding.set()
            done.wait(timeout=60)

    holder = threading.Thread(target=hold_locks)
    holder.start()
    assert holding.wait(timeout=60)
    pid = os.fork()
    if pid == 0:  # the child: report through the exit status only
        status = 1
        try:
            release.set()
            forgotten = codegen.background_build(p.schedule, p.isa_spec, queue=False) is None
            fresh = _folded("2d9p")
            again = bits(fresh.run(grid, 5))
            build = codegen.background_build(p.schedule, p.isa_spec, queue=False)
            settled = codegen.wait_for_builds(timeout=120) and build.done.is_set()
            same = np.array_equal(again, want) and np.array_equal(bits(p.run(grid, 5)), want)
            status = 0 if forgotten and build is not queued and settled and same else 2
        finally:
            os._exit(status)
    done.set()
    holder.join(timeout=60)
    release.set()
    deadline = time.monotonic() + 180
    while True:
        finished, status = os.waitpid(pid, os.WNOHANG)
        if finished:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert codegen.wait_for_builds(timeout=BUILD_TIMEOUT) and queued.done.is_set()
