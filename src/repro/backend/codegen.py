"""The ``kernel`` backend: IR replay shared process-wide by content key.

A :class:`KernelProgram` is the IR executor
(:class:`repro.ir.executor.CompiledSweep`) plus the *content key* of the
program it replays: the canonical hash of the lowered program (ops,
immediates, tags, wiring), via :func:`repro.study.hashing.config_hash`.
Two plans whose schedules lower to the same program — or whose pass
pipelines converge on the same optimized program — share one compiled
kernel, so values and instruction counts are bit-identical to trace replay
and to the interpreted simulated machine.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.executor import CompiledSweep, _lower_and_optimize
from repro.ir.ops import IrOp, ScheduleIR
from repro.ir.passes import PassReport
from repro.simd.isa import IsaSpec
from repro.study.hashing import config_hash

__all__ = [
    "KernelProgram",
    "compile_kernel",
    "kernel_content_key",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


# --------------------------------------------------------------------------- #
# content keys
# --------------------------------------------------------------------------- #
def _op_fingerprint(op: IrOp) -> Tuple:
    imm = op.imm
    if isinstance(imm, np.ndarray):
        imm = ("ndarray", imm.dtype.str, tuple(imm.shape), tuple(imm.ravel().tolist()))
    return (
        op.opcode,
        op.dst,
        op.srcs,
        imm,
        op.tag,
        op.cls.name if op.cls is not None else None,
        op.lanes,
    )


def kernel_content_key(ir: ScheduleIR) -> str:
    """Canonical content hash of one lowered program.

    Everything the replay derives from is folded in: the full op stream with
    immediates and tags, the register space, the cross-segment wiring and
    the store layout.  Pass pipelines that converge on the same program
    share the key — the cache is content addressed, not configuration
    addressed.
    """
    parts = (
        ir.isa.name,
        ir.dims,
        ir.m,
        ir.nregs,
        ir.transpose_back,
        ir.vt_out,
        tuple(
            (seg.name, seg.trip, seg.peak_live, seg.spills,
             tuple(_op_fingerprint(op) for op in seg.ops))
            for seg in ir.segments
        ),
    )
    return config_hash("megakernel", parts)


# --------------------------------------------------------------------------- #
# the compiled kernel
# --------------------------------------------------------------------------- #
class KernelProgram(CompiledSweep):
    """A :class:`~repro.ir.executor.CompiledSweep` with its content :attr:`key`."""

    def __init__(self, ir: ScheduleIR, key: str, pass_reports: Tuple[PassReport, ...] = ()):
        super().__init__(ir, pass_reports=pass_reports)
        self.key = key

    def replay(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One sweep over every block position — see
        :meth:`CompiledSweep.replay <repro.ir.executor.CompiledSweep.replay>`."""
        # Defined here rather than inherited, so patching one engine's
        # replay (perfbench's timing hooks) leaves the other's alone.
        return self._replay(values, out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelProgram(key={self.key!r}, isa={self.isa.name!r}, dims={self.dims})"


# --------------------------------------------------------------------------- #
# content-keyed compilation cache
# --------------------------------------------------------------------------- #
_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE: Dict[str, KernelProgram] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0


def kernel_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry accounting of the process-wide kernel cache."""
    with _CACHE_LOCK:
        return {"hits": _CACHE_HITS, "misses": _CACHE_MISSES, "entries": len(_KERNEL_CACHE)}


def clear_kernel_cache() -> None:
    """Drop every cached kernel and reset the accounting (test isolation)."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def compile_kernel(
    schedule,
    isa: IsaSpec,
    transpose_back: bool = True,
    optimize: Union[bool, Sequence, None] = False,
) -> KernelProgram:
    """Lower ``schedule``, optionally optimize, and fetch/build its kernel.

    The signature mirrors :func:`repro.ir.executor.compile_sweep`; the result
    is shared process-wide through the content-key cache: any (schedule,
    isa, pass pipeline) combination that lowers to the same program reuses
    the same :class:`KernelProgram`.
    """
    global _CACHE_HITS, _CACHE_MISSES
    ir, reports = _lower_and_optimize(schedule, isa, transpose_back, optimize)
    key = kernel_content_key(ir)
    with _CACHE_LOCK:
        program = _KERNEL_CACHE.get(key)
        if program is not None:
            _CACHE_HITS += 1
            return program
    program = KernelProgram(ir, key, pass_reports=reports)
    with _CACHE_LOCK:
        existing = _KERNEL_CACHE.get(key)
        if existing is not None:
            _CACHE_HITS += 1
            return existing
        _CACHE_MISSES += 1
        _KERNEL_CACHE[key] = program
    return program
