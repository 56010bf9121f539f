"""Cache-layer instruction profile derived from the schedule IR.

The cache simulator historically consumed the access order of the *naive*
reference formulation (:func:`repro.cache.simulator.stencil_access_stream`).
This module derives the memory behaviour of the *register-level schedule*
itself from the same typed IR the trace backend replays and the cost model
counts: the IR's load/store tags are expanded over every block position in
the interpreted sweep's execution order, producing the exact byte-address
stream one folded sweep issues.  Because the stream, the replay and the
instruction tally all come from one :class:`~repro.ir.ops.ScheduleIR`, the
cache picture cannot drift from the simulated execution.

Address conventions match the interpreted sweeps:

* 1-D schedules address the grid in the transpose layout (vector set ``s``
  starts at element ``s·vl²``; register ``j`` at element offset ``j·vl``).
* 2-D/3-D schedules address the row-major grid; a ``("row", dz, s)`` load of
  the square at ``(plane, block row, block col)`` touches the ``vl``
  elements starting at ``((plane+dz) mod P, (row+s) mod R, col₀)``.
* Stores go to a disjoint destination array (Jacobi-style), defaulting to
  the end of the source array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.ops import ScheduleIR
from repro.simd.isa import InstructionClass

__all__ = ["ir_access_stream", "ir_memory_profile"]


def ir_memory_profile(ir: ScheduleIR, shape) -> Dict[str, float]:
    """Per-sweep memory-instruction profile of one lowered schedule.

    Returns architectural loads/stores (the IR's memory ops times their
    segment trip counts), the spill store/reload traffic charged by the
    register-pressure model, and the total bytes the architectural accesses
    move — all derived from the same IR the replay executes.
    """
    counts, _peak, spills = ir.sweep_counts(shape)
    loads = counts.get(InstructionClass.LOAD) - spills
    stores = counts.get(InstructionClass.STORE) - spills
    vector_bytes = ir.vl * 8
    return {
        "loads": loads,
        "stores": stores,
        "spill_loads": spills,
        "spill_stores": spills,
        "bytes": (loads + stores) * vector_bytes,
    }


def ir_access_stream(
    ir: ScheduleIR,
    shape,
    read_base: int = 0,
    write_base: Optional[int] = None,
    itemsize: int = 8,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Byte-address stream of one folded sweep, in schedule execution order.

    Parameters
    ----------
    ir:
        A lowered (optionally optimized) schedule program.
    shape:
        Grid shape (1-D length, or 2-D/3-D extents).
    read_base / write_base:
        Byte addresses of the source and destination arrays;  the
        destination defaults to the end of the source (two disjoint
        Jacobi-style arrays).
    itemsize:
        Bytes per grid element.

    Returns
    -------
    (addrs, writes, access_bytes)
        Byte addresses, matching write flags, and the uniform access width
        (``vl · itemsize``) — ready for
        :meth:`repro.cache.simulator.CacheHierarchySimulator.access_stream`.
    """
    vl = ir.vl
    access_bytes = vl * itemsize
    if ir.dims == 1:
        n = int(shape if np.isscalar(shape) else tuple(shape)[0])
        npoints = n
    else:
        npoints = int(np.prod(tuple(shape)))
    if write_base is None:
        write_base = read_base + npoints * itemsize

    if ir.dims == 1:
        return _stream_1d(ir, n, read_base, write_base, itemsize, access_bytes)
    return _stream_squares(ir, tuple(shape), read_base, write_base, itemsize, access_bytes)


def _stream_1d(
    ir: ScheduleIR, n: int, read_base: int, write_base: int, itemsize: int, access_bytes: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    vl = ir.vl
    (nsets,) = ir.block_axes(n)
    mem_ops = [op for op in ir.segment("block").ops if op.is_memory]
    sets = np.arange(nsets)
    cols: List[np.ndarray] = []
    writes: List[bool] = []
    for op in mem_ops:
        if op.opcode == "load":
            _, delta, j = op.tag
            start = ((sets + delta) % nsets) * (vl * vl) + j * vl
            cols.append(read_base + itemsize * start)
            writes.append(False)
        else:
            _, j = op.tag
            start = sets * (vl * vl) + j * vl
            cols.append(write_base + itemsize * start)
            writes.append(True)
    addrs = np.stack(cols, axis=1).reshape(-1)
    flags = np.broadcast_to(np.asarray(writes, dtype=bool), (nsets, len(writes))).reshape(-1)
    return addrs, flags.copy(), access_bytes


def _stream_squares(
    ir: ScheduleIR,
    shape: Tuple[int, ...],
    read_base: int,
    write_base: int,
    itemsize: int,
    access_bytes: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    vl = ir.vl
    planes, nrb, ncb = ir.block_axes(shape)
    rows, cols = shape[-2], shape[-1]
    vertical = [op for op in ir.segment("vertical").ops if op.is_memory]
    horizontal = [op for op in ir.segment("horizontal").ops if op.is_memory]

    def vertical_addrs(z: int, br: int, bc: int) -> np.ndarray:
        base_row = br * vl
        col0 = bc * vl
        out = np.empty(len(vertical), dtype=np.int64)
        for i, op in enumerate(vertical):
            _, dz, s = op.tag
            plane = (z + dz) % planes
            row = (base_row + s) % rows
            out[i] = read_base + itemsize * ((plane * rows + row) * cols + col0)
        return out

    def horizontal_addrs(z: int, br: int, bc: int) -> np.ndarray:
        base_row = br * vl
        col0 = bc * vl
        out = np.empty(len(horizontal), dtype=np.int64)
        for i, op in enumerate(horizontal):
            _, oi = op.tag
            out[i] = write_base + itemsize * ((z * rows + base_row + oi) * cols + col0)
        return out

    chunks: List[np.ndarray] = []
    flags: List[np.ndarray] = []
    v_flags = np.zeros(len(vertical), dtype=bool)
    h_flags = np.ones(len(horizontal), dtype=bool)
    for z in range(planes):
        for br in range(nrb):
            # Shifts reuse primes each block row with the previous and
            # current squares before the steady bc loop — the interpreted
            # sweeps' exact order.
            chunks.append(vertical_addrs(z, br, ncb - 1))
            flags.append(v_flags)
            chunks.append(vertical_addrs(z, br, 0))
            flags.append(v_flags)
            for bc in range(ncb):
                chunks.append(vertical_addrs(z, br, (bc + 1) % ncb))
                flags.append(v_flags)
                chunks.append(horizontal_addrs(z, br, bc))
                flags.append(h_flags)
    return np.concatenate(chunks), np.concatenate(flags), access_bytes
