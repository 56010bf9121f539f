"""The compiled fold kernel behind :meth:`FoldingSchedule.numpy_step`.

``fold_kernel.c`` holds one generic C function that performs a whole folded
``m``-step update from the tables
:meth:`~repro.core.vectorized_folding.FoldingSchedule.fold_tables` packs, in
the exact IEEE operation order of the NumPy body
(:meth:`~repro.core.vectorized_folding.FoldingSchedule.numpy_fold`), so both
paths return bit-identical grids.

The kernel is built on the first fold of a process by
:mod:`repro.backend.native` (or found in its on-disk cache) and loaded once,
behind a lock.  When there is no C compiler on ``PATH``, or the build or the
load fails, every fold of the process runs the NumPy body instead and
:func:`fold_kernel_status` says why; ``CompiledPlan.explain()`` prints it.  A
kernel that loaded never falls back: a failed call raises.
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
_ARGTYPES = [
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


class FoldKernel:
    """The loaded ``repro_fold_update`` function and the library it came from."""

    def __init__(self, library: ctypes.CDLL, path: Path):
        fn = library.repro_fold_update
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
        self._fn = fn
        self._library = library
        self.path = path

    def __call__(self, tables, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """Fold ``values`` (``float64``, 1-3 dimensions) with packed ``tables``."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty_like(x)
        planes, rows, cols = (1,) * (3 - x.ndim) + x.shape
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
        if status == 1:
            raise MemoryError("fold kernel could not allocate its work buffers")
        if status != 0:
            raise RuntimeError(f"fold kernel failed with status {status}")
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
    """``compiled (<cached .so path>)`` or ``numpy (<reason>)``."""
    return _decided()[1]
