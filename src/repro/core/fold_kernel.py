"""The compiled fold kernel behind the default folded ``run()``.

``fold_kernel.c`` holds three generic C functions, each the bit-for-bit
image of a NumPy/``scipy.ndimage`` computation:

* ``repro_fold_update`` performs a whole folded ``m``-step update
  (:meth:`FoldingSchedule.numpy_step
  <repro.core.vectorized_folding.FoldingSchedule.numpy_step>`) from the
  tables :meth:`~repro.core.vectorized_folding.FoldingSchedule.fold_tables`
  packs, in the exact IEEE operation order of the NumPy body
  (:meth:`~repro.core.vectorized_folding.FoldingSchedule.numpy_fold`);
* ``repro_reference_step`` performs one
  :func:`~repro.stencils.reference.reference_step` of a linear stencil from
  the tap table
  :meth:`~repro.core.vectorized_folding.FoldingSchedule.step_tables` packs:
  the ``steps % m`` remainder steps of ``run()``;
* ``repro_dirichlet_band`` recomputes, with those reference steps, the band
  a folded update of a Dirichlet grid gets wrong — every face, all ``m``
  steps, in one call that writes into the fold's output.

The kernel is built on the first fold of a process by
:mod:`repro.backend.native` (or found in its on-disk cache) and loaded once,
behind a lock.  When there is no C compiler on ``PATH``, or the build or the
load fails, every fold of the process runs the NumPy body instead, and the
band and the remainder steps run on ``ndimage``; :func:`fold_kernel_status`
says why and ``CompiledPlan.explain()`` prints it.  A kernel that loaded
never falls back: a failed call raises.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.stencils.boundary import DIRICHLET_VALUE, BoundaryCondition

_SOURCE = Path(__file__).with_name("fold_kernel.c")

#: ``repro_fold_update``'s parameters, in order.
_FOLD_ARGTYPES = [
    ctypes.c_void_p,  # x
    ctypes.c_void_p,  # out
    ctypes.c_int64,  # planes
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # cols
    ctypes.c_int32,  # periodic
    ctypes.c_double,  # cval
    ctypes.c_int64,  # ncp
    ctypes.c_void_p,  # cp
    ctypes.c_void_p,  # tap_off
    ctypes.c_void_p,  # tap_w
    ctypes.c_void_p,  # omega_src
    ctypes.c_void_p,  # omega_w
    ctypes.c_int64,  # npos
    ctypes.c_void_p,  # pos
    ctypes.c_void_p,  # pos_w
]

#: ``repro_reference_step``'s parameters, in order.
_STEP_ARGTYPES = [
    ctypes.c_void_p,  # x
    ctypes.c_void_p,  # out
    ctypes.c_int64,  # planes
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # cols
    ctypes.c_int32,  # periodic
    ctypes.c_double,  # cval
    ctypes.c_int64,  # ntaps
    ctypes.c_void_p,  # off
    ctypes.c_void_p,  # w
]

#: ``repro_dirichlet_band``'s parameters, in order.
_BAND_ARGTYPES = [
    ctypes.c_void_p,  # x
    ctypes.c_void_p,  # out
    ctypes.c_int64,  # planes
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # cols
    ctypes.c_int64,  # ndim
    ctypes.c_double,  # cval
    ctypes.c_int64,  # ntaps
    ctypes.c_void_p,  # off
    ctypes.c_void_p,  # w
    ctypes.c_int64,  # m
    ctypes.c_int64,  # radius
]


def _bind(library: ctypes.CDLL, name: str, argtypes):
    fn = getattr(library, name)
    fn.argtypes = argtypes
    fn.restype = ctypes.c_int
    return fn


def _check(status: int) -> None:
    if status == 1:
        raise MemoryError("fold kernel could not allocate its work buffers")
    if status != 0:
        raise RuntimeError(f"fold kernel failed with status {status}")


def _extents(array: np.ndarray) -> Tuple[int, int, int]:
    """``(planes, rows, cols)`` of a 1-3 dimensional grid."""
    return (1,) * (3 - array.ndim) + array.shape


class FoldKernel:
    """The loaded kernel functions and the library they came from."""

    def __init__(self, library: ctypes.CDLL, path: Path):
        self._fn = _bind(library, "repro_fold_update", _FOLD_ARGTYPES)
        self._step = _bind(library, "repro_reference_step", _STEP_ARGTYPES)
        self._band = _bind(library, "repro_dirichlet_band", _BAND_ARGTYPES)
        self._library = library
        self.path = path

    def __call__(self, tables, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """Fold ``values`` (``float64``, 1-3 dimensions) with packed ``tables``."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty_like(x)
        planes, rows, cols = _extents(x)
        status = self._fn(
            x.ctypes.data,
            out.ctypes.data,
            planes,
            rows,
            cols,
            boundary is BoundaryCondition.PERIODIC,
            DIRICHLET_VALUE,
            len(tables.cp),
            tables.cp.ctypes.data,
            tables.tap_off.ctypes.data,
            tables.tap_w.ctypes.data,
            tables.omega_src.ctypes.data,
            tables.omega_w.ctypes.data,
            len(tables.pos),
            tables.pos.ctypes.data,
            tables.pos_w.ctypes.data,
        )
        _check(status)
        return out

    def step(self, taps, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """One reference step of ``values`` (``float64``, 1-3 dimensions)
        with the packed tap table ``taps``."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty_like(x)
        planes, rows, cols = _extents(x)
        status = self._step(
            x.ctypes.data,
            out.ctypes.data,
            planes,
            rows,
            cols,
            boundary is BoundaryCondition.PERIODIC,
            DIRICHLET_VALUE,
            len(taps.w),
            taps.off.ctypes.data,
            taps.w.ctypes.data,
        )
        _check(status)
        return out

    def band(self, taps, before: np.ndarray, folded: np.ndarray, m: int, radius: int) -> np.ndarray:
        """``folded``, the ``m``-step fold of the Dirichlet grid ``before``,
        with the band closer than ``(m - 1) * radius`` to a face recomputed
        by ``m`` reference steps; written in place when ``folded`` is a
        C-contiguous ``float64`` array."""
        x = np.ascontiguousarray(before, dtype=np.float64)
        out = np.require(folded, dtype=np.float64, requirements=("C", "W"))
        planes, rows, cols = _extents(x)
        status = self._band(
            x.ctypes.data,
            out.ctypes.data,
            planes,
            rows,
            cols,
            x.ndim,
            DIRICHLET_VALUE,
            len(taps.w),
            taps.off.ctypes.data,
            taps.w.ctypes.data,
            m,
            radius,
        )
        _check(status)
        return out


_lock = threading.Lock()
#: The process's decision, made once: (kernel or None, explain() description).
_decision: Optional[Tuple[Optional[FoldKernel], str]] = None


def _decide() -> Tuple[Optional[FoldKernel], str]:
    from repro.backend import native

    compiler = native.find_c_compiler()
    if compiler is None:
        return None, "numpy (no C compiler on PATH)"
    try:
        path = native.build_library("fold_kernel", _SOURCE.read_text(), compiler)
        kernel = FoldKernel(ctypes.CDLL(str(path)), path)
    except (native.NativeBuildError, OSError, AttributeError) as exc:
        return None, f"numpy ({exc})"
    return kernel, f"compiled ({path})"


def _decided() -> Tuple[Optional[FoldKernel], str]:
    global _decision
    decision = _decision
    if decision is None:
        with _lock:
            if _decision is None:
                _decision = _decide()
            decision = _decision
    return decision


def load_fold_kernel() -> Optional[FoldKernel]:
    """The process's compiled fold kernel, or ``None`` when folds run on NumPy."""
    return _decided()[0]


def fold_kernel_status() -> str:
    """``compiled (<cached .so path>)`` or ``numpy (<reason>)``, and ``not
    loaded yet`` until the process's first fold decided; decides nothing."""
    decision = _decision
    if decision is None:
        return "not loaded yet (the process's first fold decides)"
    return decision[1]


def band_status() -> str:
    """Where the Dirichlet band and the remainder steps of ``run()`` run:
    ``the fold kernel's compiled reference step``, or ``ndimage (<the
    reason the process has no fold kernel>)``.  Read from the same decision
    as :func:`fold_kernel_status`, and decides nothing either."""
    decision = _decision
    if decision is None:
        return "what the process's first fold decides (the fold kernel is not loaded yet)"
    kernel, status = decision
    if kernel is not None:
        return "the fold kernel's compiled reference step"
    return f"ndimage ({status.removeprefix('numpy (').removesuffix(')')})"
