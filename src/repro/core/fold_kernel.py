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
  steps, in one call that writes into the fold's output — with the columns
  near each row end packed across rows.

The reference step and the band work in a scratch the caller allocates
(``repro_reference_step_scratch`` and ``repro_dirichlet_band_scratch`` say
how large; the band's is sized by the band).  The default folded ``run()``
gives its sweeps, band fixes and remainder steps two arrays and those
scratches, allocated once per run, with their addresses read once
(:class:`RunArrays`).

The kernel is built on the first fold of a process by
:mod:`repro.backend.native` (or found in its on-disk cache) and loaded once,
behind a lock.  It is built with the widest of
:data:`~repro.backend.native.ISA_FLAGS`' flags the host's CPU probe reports
(``-mavx512f``, else ``-mavx2``, else none), and sums in vectors of that
width; every width returns the same bits.  When there is no C compiler on
``PATH``, or the build or the load fails, every fold of the process runs
the NumPy body instead, and the band and the remainder steps run on
``ndimage``; :func:`fold_kernel_status` says why and
``CompiledPlan.explain()`` prints it.  A kernel that loaded never falls
back: a failed call raises.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import List, Optional, Tuple

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
    ctypes.c_void_p,  # scratch
]

#: ``repro_reference_step_scratch``'s parameters, in order.
_STEP_SCRATCH_ARGTYPES = [
    ctypes.c_int64,  # planes
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # cols
    ctypes.c_int32,  # periodic
    ctypes.c_int64,  # ntaps
    ctypes.c_void_p,  # off
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
    ctypes.c_void_p,  # scratch
]

#: ``repro_dirichlet_band_scratch``'s parameters, in order.
_BAND_SCRATCH_ARGTYPES = [
    ctypes.c_int64,  # planes
    ctypes.c_int64,  # rows
    ctypes.c_int64,  # cols
    ctypes.c_int64,  # ndim
    ctypes.c_int64,  # ntaps
    ctypes.c_void_p,  # off
    ctypes.c_int64,  # m
    ctypes.c_int64,  # radius
]


def _bind(library: ctypes.CDLL, name: str, argtypes, restype=ctypes.c_int):
    fn = getattr(library, name)
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


def _scratch(nbytes: int) -> np.ndarray:
    """Scratch of at least ``nbytes`` bytes, aligned for doubles and pointers."""
    return np.empty(max(1, -(-nbytes // 8)), dtype=np.float64)


def _check(status: int) -> None:
    if status == 1:
        raise MemoryError("fold kernel could not allocate its work buffers")
    if status != 0:
        raise RuntimeError(f"fold kernel failed with status {status}")


def _extents(array: np.ndarray) -> Tuple[int, int, int]:
    """``(planes, rows, cols)`` of a 1-3 dimensional grid."""
    return (1,) * (3 - array.ndim) + array.shape


def _output(out: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``out``, or a new array shaped like ``x``, once it is a C-contiguous
    writeable ``float64`` array of ``x``'s shape."""
    if out is None:
        return np.empty_like(x)
    if not (
        out.dtype == np.float64
        and out.shape == x.shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError("the fold kernel writes a C-contiguous float64 array of the grid's shape")
    return out


class FoldKernel:
    """The loaded kernel functions and the library they came from."""

    def __init__(self, library: ctypes.CDLL, path: Path):
        self._fn = _bind(library, "repro_fold_update", _FOLD_ARGTYPES)
        self._step = _bind(library, "repro_reference_step", _STEP_ARGTYPES)
        self._step_nbytes = _bind(
            library, "repro_reference_step_scratch", _STEP_SCRATCH_ARGTYPES, ctypes.c_int64
        )
        self._band = _bind(library, "repro_dirichlet_band", _BAND_ARGTYPES)
        self._band_nbytes = _bind(
            library, "repro_dirichlet_band_scratch", _BAND_SCRATCH_ARGTYPES, ctypes.c_int64
        )
        self._library = library
        self.path = path

    def __call__(
        self,
        tables,
        values: np.ndarray,
        boundary: BoundaryCondition,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fold ``values`` (``float64``, 1-3 dimensions) with packed
        ``tables``, into ``out`` when given."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        out = _output(out, x)
        status = self._fn(
            x.ctypes.data,
            out.ctypes.data,
            *_extents(x),
            boundary is BoundaryCondition.PERIODIC,
            DIRICHLET_VALUE,
            *tables.args,
        )
        _check(status)
        return out

    def step(self, taps, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """One reference step of ``values`` (``float64``, 1-3 dimensions)
        with the packed tap table ``taps``, into a new array.  Its scratch
        is allocated per call: a run's :class:`RunArrays` allocate it once."""
        arrays = RunArrays(values)
        return arrays.step(self, taps, arrays.grid, boundary)

    def band(self, taps, before: np.ndarray, folded: np.ndarray, m: int, radius: int) -> np.ndarray:
        """``folded``, the ``m``-step fold of the Dirichlet grid ``before``,
        with the band closer than ``(m - 1) * radius`` to a face recomputed
        by ``m`` reference steps; written in place when ``folded`` is a
        writeable C-contiguous ``float64`` array.  ``radius`` must be at
        least every tap's reach (``ValueError`` otherwise).  Its scratch is
        allocated per call: a run's :class:`RunArrays` allocate it once."""
        arrays = RunArrays(before)
        return arrays.band(self, taps, arrays.grid, folded, m, radius)


class RunArrays:
    """What one folded ``run()`` writes, allocated once per run.

    Two arrays shaped like the grid take the run's sweeps, band fixes and
    remainder steps in turn: each call writes the one its input is not, so
    the grid is never written and the last result is one of the two.  Each
    is allocated when a call first writes it, so a run of one call
    allocates one.  The addresses of the grid and the two arrays are read
    once; :meth:`addresses` hands them to the native sweeps, and to the
    fold kernel's reference step and band (:meth:`step`, :meth:`band`).
    Those take the kernel per call, so a run that needs neither never loads
    it.  Their scratch is allocated by the run's first band and first step
    and reused by the others, which share their taps, boundary, ``m`` and
    radius.
    """

    def __init__(self, grid: np.ndarray):
        #: The grid as a C-contiguous ``float64`` array (a copy if it was not).
        self.grid = np.ascontiguousarray(grid, dtype=np.float64)
        self.arrays: List[Optional[np.ndarray]] = [None, None]
        self._address = {id(self.grid): self.grid.ctypes.data}
        self._extents = _extents(self.grid)
        #: The band's and the step's arguments after the two arrays', their
        #: scratch last, once the run's first call allocated it.
        self._band_args: Optional[Tuple] = None
        self._step_args: Optional[Tuple] = None
        self._scratch_arrays: List[np.ndarray] = []

    def output(self, values: np.ndarray) -> np.ndarray:
        """The array a call reading ``values`` (the grid or one of the two)
        writes: the one of the two that ``values`` is not."""
        i = int(values is self.arrays[0])
        out = self.arrays[i]
        if out is None:
            out = self.arrays[i] = np.empty_like(self.grid)
            self._address[id(out)] = out.ctypes.data
        return out

    def addresses(self, values: np.ndarray, out: np.ndarray) -> Tuple[int, int]:
        """The data addresses of ``values`` and ``out``: read once for the
        grid and the two arrays, on every call for any other array, which
        must be C-contiguous ``float64`` of the grid's shape."""
        address = self._address
        return (
            address.get(id(values)) or values.ctypes.data,
            address.get(id(out)) or out.ctypes.data,
        )

    def _scratch_address(self, nbytes: int) -> int:
        """The address of new scratch of ``nbytes`` bytes, held by the run."""
        scratch = _scratch(nbytes)
        self._scratch_arrays.append(scratch)
        return scratch.ctypes.data

    def step(
        self, kernel: FoldKernel, taps, values: np.ndarray, boundary: BoundaryCondition
    ) -> np.ndarray:
        """One reference step of ``values`` on ``kernel`` with the packed
        tap table ``taps``, into :meth:`output`."""
        out = self.output(values)
        if self._step_args is None:
            periodic = boundary is BoundaryCondition.PERIODIC
            ntaps, off, _ = taps.args
            nbytes = kernel._step_nbytes(*self._extents, periodic, ntaps, off)
            self._step_args = (
                *self._extents,
                periodic,
                DIRICHLET_VALUE,
                *taps.args,
                self._scratch_address(nbytes),
            )
        _check(kernel._step(*self.addresses(values, out), *self._step_args))
        return out

    def band(
        self,
        kernel: FoldKernel,
        taps,
        before: np.ndarray,
        folded: np.ndarray,
        m: int,
        radius: int,
    ) -> np.ndarray:
        """:meth:`FoldKernel.band` of ``folded`` on ``kernel``: in place
        when ``folded`` is one of the two arrays or another writeable
        C-contiguous ``float64`` array, else in a copy."""
        if id(folded) not in self._address and not (
            folded.dtype == np.float64 and folded.flags.c_contiguous and folded.flags.writeable
        ):
            folded = np.array(folded, dtype=np.float64, order="C")
        if self._band_args is None:
            if radius < taps.reach:
                raise ValueError(
                    f"the band's radius {radius} is below its taps' reach {taps.reach}"
                )
            ndim, (ntaps, off, _) = self.grid.ndim, taps.args
            nbytes = kernel._band_nbytes(*self._extents, ndim, ntaps, off, m, radius)
            self._band_args = (
                *self._extents,
                ndim,
                DIRICHLET_VALUE,
                *taps.args,
                m,
                radius,
                self._scratch_address(nbytes),
            )
        _check(kernel._band(*self.addresses(before, folded), *self._band_args))
        return folded


_lock = threading.Lock()
#: The process's decision, made once: (kernel or None, explain() description).
_decision: Optional[Tuple[Optional[FoldKernel], str]] = None


def _decide() -> Tuple[Optional[FoldKernel], str]:
    from repro.backend import native

    compiler = native.find_c_compiler()
    if compiler is None:
        return None, "numpy (no C compiler on PATH)"
    # The avx512 ladder holds every ISA flag, widest first.
    flags, note = native.isa_flags("avx512", compiler)
    try:
        path = native.build_library("fold_kernel", _SOURCE.read_text(), compiler, flags)
        kernel = FoldKernel(ctypes.CDLL(str(path)), path)
    except (native.NativeBuildError, OSError, AttributeError) as exc:
        return None, f"numpy ({exc})"
    return kernel, f"compiled ({native.describe_build(path, flags, note)})"


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
    """``compiled (<cached .so path>, <ISA flags>)`` (``; host lacks ...``
    when a wider flag was left out) or ``numpy (<reason>)``, and ``not
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
