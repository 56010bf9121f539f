"""The compiled fold kernel behind ``FoldingSchedule.numpy_step``.

* On any legal linear stencil the compiled fold returns the NumPy fold's
  grid bit for bit (:meth:`FoldingSchedule.numpy_fold` is the reference).
* Both fold paths stay exact on Dirichlet grids narrower than the folded
  radius.
* The process decides once between the compiled kernel and the NumPy body;
  ``explain()`` names the choice and its reason, only a failed build or load
  selects NumPy, and a failed kernel call raises.

Tests of the compiled path skip, with the reason, on hosts without a C
compiler.
"""

from __future__ import annotations

import ctypes
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend import native
from repro.core import fold_kernel
from repro.core.fold_kernel import FoldKernel, fold_kernel_status, load_fold_kernel
from repro.core.plan import plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.reference import reference_run
from repro.stencils.spec import StencilSpec
from tests.conftest import EPS, stencil_weights

PERIODIC, DIRICHLET = BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET


@pytest.fixture
def compiled() -> FoldKernel:
    """The process's compiled fold kernel (skips when the host has none)."""
    kernel = load_fold_kernel()
    if kernel is None:
        pytest.skip(f"no compiled fold kernel: {fold_kernel_status()}")
    return kernel


@pytest.fixture
def numpy_folds(monkeypatch):
    """Run every fold of the test on the NumPy body."""
    monkeypatch.setattr(fold_kernel, "_decision", (None, "numpy (selected by the test)"))


@pytest.fixture
def undecided(monkeypatch, tmp_path):
    """Forget the process's decision; builds go to an empty cache directory."""
    monkeypatch.setattr(fold_kernel, "_decision", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


# --------------------------------------------------------------------------- #
# compiled fold == NumPy fold, bit for bit
# --------------------------------------------------------------------------- #
@st.composite
def fold_cases(draw):
    """(kernel, m, grid shape, boundary, seed): radius <= 2 per axis, m <= 3.

    Extents run from 1 (far below the folded kernel) to rows that span
    several of the kernel's chunks.
    """
    dims = draw(st.integers(1, 3))
    kernel = draw(stencil_weights(dims))
    m = draw(st.integers(1, 3))
    leading = {1: 1, 2: 12, 3: 6}[dims]
    grid = tuple(draw(st.integers(1, leading)) for _ in range(dims - 1))
    grid += (draw(st.one_of(st.integers(1, 24), st.integers(900, 2600))),)
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET]))
    return kernel, m, grid, boundary, draw(st.integers(0, 2**32 - 1))


#: Small-integer kernels whose schedules materialise combination
#: counterparts: reuse only, and reuse plus a bias.
COMBINATION_REUSE = np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 2.0, 2.0]])
COMBINATION_BIAS = np.array([[2.0, -1.0, 2.0], [0.0, 1.0, 1.0], [2.0, -1.0, 1.0]])
COMBINATION_3D = np.array([[[1.0, 2.0, 1.0], [2.0, 1.0, -1.0], [2.0, 1.0, -1.0]]])


@settings(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=fold_cases())
@example(case=(COMBINATION_REUSE, 1, (7, 20), PERIODIC, 1))
@example(case=(COMBINATION_REUSE, 2, (5, 1000), DIRICHLET, 2))
@example(case=(COMBINATION_BIAS, 2, (6, 3), DIRICHLET, 3))
@example(case=(COMBINATION_BIAS * EPS, 2, (4, 1200), PERIODIC, 4))
@example(case=(COMBINATION_3D, 1, (3, 4, 1100), PERIODIC, 5))
@example(case=(COMBINATION_3D, 2, (2, 3, 5), DIRICHLET, 6))
def test_compiled_fold_matches_numpy_fold_bit_for_bit(compiled, case):
    kernel, m, shape, boundary, seed = case
    schedule = FoldingSchedule(StencilSpec(name="fuzz", kernel=kernel), m)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.1] = -0.0
    values[rng.random(shape) < 0.05] = 1e-310
    expected = bits(schedule.numpy_fold(values, boundary))
    direct = compiled(schedule.fold_tables(), values, boundary)
    np.testing.assert_array_equal(bits(direct), expected)
    np.testing.assert_array_equal(bits(schedule.numpy_step(values, boundary)), expected)


def test_pinned_examples_reach_both_combination_modes():
    modes = set()
    for kernel in (COMBINATION_REUSE, COMBINATION_BIAS, COMBINATION_3D):
        for m in (1, 2):
            tables = FoldingSchedule(StencilSpec(name="k", kernel=kernel), m).fold_tables()
            modes.update(int(mode) for mode in tables.cp[:, 0])
    assert modes == {0, 1, 2}  # direct, reuse only, reuse plus bias


def test_compiled_fold_reads_non_contiguous_grids(compiled):
    schedule = FoldingSchedule(plan("3d-heat").compile().spec, 2)
    values = np.asfortranarray(Grid.random((5, 6, 7), seed=4).values)
    for grid, boundary in ((values, DIRICHLET), (values[:, ::2], PERIODIC)):
        expected = bits(schedule.numpy_fold(grid, boundary))
        np.testing.assert_array_equal(bits(schedule.numpy_step(grid, boundary)), expected)


# --------------------------------------------------------------------------- #
# Dirichlet grids narrower than the folded radius
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize(
    "key,shape,m", [("2d9p", (16, 3), 4), ("2d9p", (16, 2), 4), ("3d27p", (8, 8, 2), 3)]
)
def test_narrow_dirichlet_grid_matches_reference(request, path, key, shape, m):
    request.getfixturevalue("compiled" if path == "compiled" else "numpy_folds")
    p = plan(key).unroll(m).compile()
    grid = Grid.random(shape, boundary=DIRICHLET, seed=7)
    for steps in (m, 2 * m + 1):
        np.testing.assert_allclose(
            p.run(grid, steps), reference_run(p.spec, grid, steps), rtol=1e-10, atol=1e-12
        )


# --------------------------------------------------------------------------- #
# the per-process decision and its observability
# --------------------------------------------------------------------------- #
def fold_kernel_line(key: str = "2d9p") -> str:
    lines = [
        line
        for line in plan(key).compile().explain().splitlines()
        if line.lstrip().startswith("fold kernel")
    ]
    assert len(lines) == 1
    return lines[0].split(":", 1)[1].strip()


def test_explain_names_the_cached_library(compiled):
    line = fold_kernel_line()
    assert line == f"compiled ({compiled.path})"
    assert compiled.path.suffix == ".so" and compiled.path.is_file()
    assert compiled.path.parent == native.cache_dir()


def test_explain_names_the_decision_whatever_the_host():
    """The line names the library, or why there is none: the only check
    that holds both with and without a compiler on ``PATH``."""
    if native.find_c_compiler() is None:
        assert fold_kernel_line() == "numpy (no C compiler on PATH)"
    else:
        assert fold_kernel_line().startswith("compiled (")


def test_explain_has_no_fold_kernel_line_without_a_schedule():
    assert "fold kernel" not in plan("2d9p").method("dlt").compile().explain()


def test_no_compiler_selects_numpy_and_says_so(undecided, monkeypatch):
    monkeypatch.setattr(native, "find_c_compiler", lambda: None)
    assert load_fold_kernel() is None
    assert fold_kernel_line() == "numpy (no C compiler on PATH)"
    p = plan("2d-heat").unroll(2).compile()
    grid = Grid.random((12, 10), seed=3)
    expected = reference_run(p.spec, grid, 4)
    np.testing.assert_allclose(p.run(grid, 4), expected, rtol=1e-10, atol=1e-12)


@pytest.mark.skipif(sys.platform == "win32", reason="the stand-in compiler is a shell script")
def test_failed_build_selects_numpy_with_the_first_error_line(undecided, monkeypatch, tmp_path):
    compiler = tmp_path / "cc"
    compiler.write_text(
        "#!/bin/sh\n"
        "echo 'fold_kernel.c: In function f:' >&2\n"
        "echo 'fold_kernel.c:1:1: error: stand-in failure' >&2\n"
        "echo 'fold_kernel.c:2:1: error: second failure' >&2\n"
        "exit 1\n"
    )
    compiler.chmod(0o755)
    monkeypatch.setattr(native, "find_c_compiler", lambda: str(compiler))
    assert load_fold_kernel() is None
    assert fold_kernel_status() == "numpy (fold_kernel.c:1:1: error: stand-in failure)"
    assert fold_kernel_line() == "numpy (fold_kernel.c:1:1: error: stand-in failure)"


def test_the_decision_is_made_once_per_process_under_contention(undecided, monkeypatch):
    calls = []
    monkeypatch.setattr(native, "find_c_compiler", lambda: calls.append(1))
    schedule = FoldingSchedule(plan("2d9p").compile().spec, 2)
    values = Grid.random((9, 11), seed=2).values
    expected = schedule.numpy_fold(values, PERIODIC)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(schedule.numpy_step, values, PERIODIC) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert all(np.array_equal(bits(r), bits(expected)) for r in results)


def _stub_kernel(status: int) -> FoldKernel:
    def repro_fold_update(*args):
        return status

    return FoldKernel(types.SimpleNamespace(repro_fold_update=repro_fold_update), Path("stub.so"))


@pytest.mark.parametrize("status,error", [(1, MemoryError), (2, RuntimeError)])
def test_a_failed_kernel_call_raises_instead_of_falling_back(monkeypatch, status, error):
    monkeypatch.setattr(fold_kernel, "_decision", (_stub_kernel(status), "compiled (stub.so)"))
    schedule = FoldingSchedule(plan("2d9p").compile().spec, 2)
    for _ in range(2):
        with pytest.raises(error):
            schedule.numpy_step(np.ones((8, 8)), PERIODIC)
    assert fold_kernel_status() == "compiled (stub.so)"


def test_builds_are_cached_by_a_hash_of_source_and_flags(monkeypatch, tmp_path):
    compiler = native.find_c_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = "int answer(void) { return 42; }\n"
    path = native.build_library("probe", source, compiler)
    other = native.build_library("probe", source.replace("42", "43"), compiler)
    flagged = native.build_library("probe", source, compiler, flags=("-DFLAGGED",))
    assert path.parent == tmp_path / "repro" and path.name.startswith("probe-")
    assert len({path, other, flagged}) == 3
    # no temporary files left
    assert sorted(path.parent.iterdir()) == sorted([path, other, flagged])
    assert ctypes.CDLL(str(path)).answer() == 42
    runs = []
    monkeypatch.setattr(native.subprocess, "run", lambda *args, **kwargs: runs.append(args))
    assert native.build_library("probe", source, compiler) == path
    assert native.build_library("probe", source, compiler, flags=("-DFLAGGED",)) == flagged
    assert runs == []
