"""Megakernel code generation: one fused NumPy kernel per ScheduleIR.

The IR executor (:class:`repro.ir.executor.CompiledSweep`) replays a program
one :class:`~repro.ir.ops.IrOp` at a time through a Python dispatch loop.
That loop is pure overhead: every op's opcode, operand registers, shuffle
immediates and memory tags are known at compile time, so the whole sweep can
be emitted *once* as straight-line Python source — one NumPy expression per
IR op, constants hoisted, operands freed at their last use — and compiled
with :func:`exec` into a "megakernel" function that runs the sweep with no
per-op interpretation at all.

The generated kernel performs **exactly** the same NumPy operations, in the
same order, on the same values as the executor's dispatch loop, so its
output is bit-identical to both the trace replay and the interpreted
simulated machine (asserted stencil-by-stencil in the test suite).

Kernels are cached by *content key*: the canonical hash of the lowered
program (ops, immediates, tags, wiring), via
:func:`repro.study.hashing.config_hash`.  Two plans whose schedules lower to
the same program — or whose pass pipelines converge on the same optimized
program — share one compiled kernel.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ir.executor import _check_contiguous_out, _SegmentProgram
from repro.ir.lower import lower_schedule
from repro.ir.ops import IrOp, ScheduleIR
from repro.ir.passes import PassManager, PassReport
from repro.simd.isa import AVX2, AVX512, IsaSpec
from repro.simd.machine import InstructionCounts
from repro.study.hashing import config_hash

__all__ = [
    "KernelProgram",
    "compile_kernel",
    "generate_kernel_source",
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

    Everything the generated source (and its hoisted constants) derives from
    is folded in: the full op stream with immediates and tags, the register
    space, the cross-segment wiring and the store layout.  Pass pipelines
    that converge on the same program share the key — the cache is content
    addressed, not configuration addressed.
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
# source generation
# --------------------------------------------------------------------------- #
class _Emitter:
    """Walks one ScheduleIR and accumulates source lines + hoisted globals."""

    def __init__(self, ir: ScheduleIR):
        self.ir = ir
        self.vl = ir.vl
        self.lines: List[str] = []
        # Globals of the generated module: NumPy plus every hoisted constant.
        self.namespace: Dict[str, object] = {"_np": np}
        self._counter = 0
        # Prologue registers, precomputed exactly the way CompiledSweep does
        # (same _SegmentProgram, same op order), so the hoisted constants are
        # bit-identical to the executor's base environment.
        base_env: List[Optional[np.ndarray]] = [None] * ir.nregs
        prologue = ir.segments[0]
        if prologue.trip != "once":
            raise ValueError("the first IR segment must be the prologue (trip 'once')")
        _SegmentProgram(prologue.ops, self.vl, keep=set(range(ir.nregs))).run(base_env)
        self._base_env = base_env
        self._prologue_regs: Set[int] = {op.dst for op in prologue.ops if op.dst >= 0}

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def _hoist(self, prefix: str, value: object) -> str:
        name = self._fresh(prefix)
        self.namespace[name] = value
        return name

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def ref(self, vid: int) -> str:
        """Operand expression for virtual register ``vid``."""
        if vid in self._prologue_regs:
            name = f"_B{vid}"
            if name not in self.namespace:
                value = self._base_env[vid]
                if value is None:
                    raise ValueError(f"prologue register v{vid} read but never defined")
                self.namespace[name] = value
            return name
        return f"r{vid}"

    # ------------------------------------------------------------------ #
    # per-op emission (everything except loads/stores/inputs, which are
    # layout-specific and supplied by the caller as tag -> expression maps)
    # ------------------------------------------------------------------ #
    def emit_ops(
        self,
        ops: Sequence[IrOp],
        load_expr,
        store_stmt,
        input_expr,
        live_after: Dict[int, int],
        base_index: int,
    ) -> None:
        """Emit one segment's ops; ``live_after[vid]`` is the flattened index
        of the last op reading ``vid`` (block-defined registers are deleted
        right after it, mirroring the executor's operand freeing)."""
        for offset, op in enumerate(ops):
            i = base_index + offset
            oc = op.opcode
            if oc == "store":
                self.emit(store_stmt(op.tag, self.ref(op.srcs[0])))
            elif oc == "input":
                if live_after.get(op.dst) is None:
                    # Dead stage input: the executor skips it so replay never
                    # materializes a rolled copy nobody reads; so do we.
                    continue
                self.emit(f"r{op.dst} = {input_expr(op.tag)}")
            elif oc == "load":
                self.emit(f"r{op.dst} = {load_expr(op.tag)}")
            elif oc == "const":
                const = self._hoist(
                    "C", np.full(self.vl, op.imm, dtype=np.float64)
                )
                self.emit(f"r{op.dst} = {const}")
            elif oc == "fma":
                a, b, c = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = {a} * {b} + {c}")
            elif oc == "mul":
                a, b = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = {a} * {b}")
            elif oc == "add":
                a, b = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = {a} + {b}")
            elif oc == "sub":
                a, b = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = {a} - {b}")
            elif oc == "max":
                a, b = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = _np.maximum({a}, {b})")
            elif oc == "shuf1":
                lane_map = self._hoist("S", np.asarray(op.imm, dtype=np.intp))
                self.emit(f"r{op.dst} = {self.ref(op.srcs[0])}[..., {lane_map}]")
            elif oc == "shuf2":
                raw = np.asarray(op.imm, dtype=np.intp)
                sel_b = self._hoist("W", raw >= self.vl)
                idx = self._hoist("X", np.where(raw >= self.vl, raw - self.vl, raw))
                a, b = (self.ref(s) for s in op.srcs)
                self.emit(f"r{op.dst} = _np.where({sel_b}, {b}[..., {idx}], {a}[..., {idx}])")
            else:  # pragma: no cover - the lowering emits no other opcodes
                raise ValueError(f"unknown IR opcode {oc!r}")
            # Free block-defined operands after their last consumer, exactly
            # like the executor's liveness table does.
            for src in dict.fromkeys(self._reads_of(op)):
                if src not in self._prologue_regs and live_after.get(src) == i:
                    self.emit(f"del r{src}")

    def _reads_of(self, op: IrOp) -> Tuple[int, ...]:
        """Registers an op actually reads (vt inputs read their source reg)."""
        if op.opcode == "input":
            tag = op.tag
            if isinstance(tag, tuple) and tag and tag[0] == "vt":
                _, _delta, ci, k = tag
                return (self.ir.vt_out[ci][k],)
            return ()
        return op.srcs


def _flatten_reads(ir: ScheduleIR, segments: Sequence) -> Dict[int, int]:
    """Flattened-index of the last read of every register across ``segments``.

    ``input`` ops with ``("vt", ...)`` tags count as reads of the vertical
    phase's output registers, which keeps those arrays alive across the
    segment boundary exactly as the executor's ``keep`` set does.
    """
    live_after: Dict[int, int] = {}
    i = 0
    for seg in segments:
        for op in seg.ops:
            if op.opcode == "input":
                tag = op.tag
                if isinstance(tag, tuple) and tag and tag[0] == "vt":
                    _, _delta, ci, k = tag
                    live_after[ir.vt_out[ci][k]] = i
            else:
                for src in op.srcs:
                    live_after[src] = i
            i += 1
    return live_after


def generate_kernel_source(ir: ScheduleIR) -> Tuple[str, Dict[str, object]]:
    """Emit the megakernel source + hoisted-constant namespace for ``ir``.

    The generated module defines ``megakernel(values, out)``: one full sweep
    over every block position, writing into ``out`` (both arrays contiguous,
    1-D programs in the transpose layout).  Shape validation, output
    allocation and the optional store-layout untranspose stay in the
    :class:`KernelProgram` wrapper — the generated code is pure arithmetic.
    """
    emitter = _Emitter(ir)
    vl = ir.vl
    emitter.lines.append("def megakernel(values, out):")
    emitter.emit(
        f'"""Generated megakernel: {ir.source or "schedule"} '
        f'[{ir.isa.name}, {ir.dims}-D, m={ir.m}]."""'
    )
    if ir.dims == 1:
        seg = ir.segment("block")
        live_after = _flatten_reads(ir, [seg])
        emitter.emit(f"v3 = values.reshape(-1, {vl}, {vl})")
        emitter.emit(f"out3 = out.reshape(-1, {vl}, {vl})")

        def load_expr(tag):
            _, delta, j = tag
            if delta == 0:
                return f"v3[:, {j}, :]"
            return f"_np.roll(v3[:, {j}, :], {-delta}, axis=0)"

        def store_stmt(tag, src):
            _, j = tag
            return f"out3[:, {j}, :] = {src}"

        def input_expr(tag):  # pragma: no cover - 1-D programs have no inputs
            raise ValueError(f"unexpected stage input {tag!r} in a 1-D program")

        emitter.emit_ops(seg.ops, load_expr, store_stmt, input_expr, live_after, 0)
        emitter.emit("return out")
        return "\n".join(emitter.lines) + "\n", emitter.namespace

    if any(seg.trip == "pipelined" for seg in ir.segments):
        # Software-pipelined form: one merged segment (the "prime" accounting
        # copy is never executed — the kernel covers every square at once,
        # exactly like the batched replay).
        stages = [ir.segment("pipelined")]
    else:
        stages = [ir.segment("vertical"), ir.segment("horizontal")]
    live_after = _flatten_reads(ir, stages)
    if ir.dims == 3:
        emitter.emit("planes = values.shape[0]")
    else:
        emitter.emit("planes = 1")
    emitter.emit("rows = values.shape[-2]")
    emitter.emit("cols = values.shape[-1]")
    emitter.emit(f"nrb = rows // {vl}")
    emitter.emit(f"ncb = cols // {vl}")
    emitter.emit(f"v5 = values.reshape(planes, nrb, {vl}, ncb, {vl})")
    emitter.emit(f"out5 = out.reshape(planes, nrb, {vl}, ncb, {vl})")
    emitter.emit("grid3 = values.reshape(planes, rows, cols)")
    needs_gather = any(
        op.opcode == "load" and not (op.tag[1] == 0 and 0 <= op.tag[2] < vl)
        for seg in stages
        for op in seg.ops
    )
    if needs_gather:
        emitter.emit("_ap = _np.arange(planes)")
        emitter.emit("_ar = _np.arange(nrb)")

    def load_expr(tag):
        _, dz, s = tag
        if dz == 0 and 0 <= s < vl:
            return f"v5[:, :, {s}]"
        return (
            f"grid3[_np.ix_((_ap + {dz}) % planes, (_ar * {vl} + {s}) % rows)]"
            f".reshape(planes, nrb, ncb, {vl})"
        )

    def store_stmt(tag, src):
        _, oi = tag
        return f"out5[:, :, {oi}] = {src}"

    def input_expr(tag):
        _, delta, ci, k = tag
        src = emitter.ref(ir.vt_out[ci][k])
        if delta == 0:
            return src
        return f"_np.roll({src}, {-delta}, axis=2)"

    base = 0
    for seg in stages:
        emitter.emit_ops(seg.ops, load_expr, store_stmt, input_expr, live_after, base)
        base += len(seg.ops)
    emitter.emit("return out")
    return "\n".join(emitter.lines) + "\n", emitter.namespace


# --------------------------------------------------------------------------- #
# the compiled kernel
# --------------------------------------------------------------------------- #
class KernelProgram:
    """One compiled megakernel: generated source + the executable function.

    Mirrors the :class:`~repro.ir.executor.CompiledSweep` replay surface
    (:meth:`replay`, :meth:`sweep_counts`) so the plan layer can treat the
    two interchangeably; adds :meth:`run_sweeps` (ping-pong buffered
    multi-sweep execution, the measurement harness's hot loop) and exposes
    :attr:`source` / :attr:`key` for inspection and content addressing.
    """

    def __init__(
        self,
        ir: ScheduleIR,
        source: str,
        namespace: Dict[str, object],
        key: str,
        pass_reports: Tuple[PassReport, ...] = (),
    ):
        self.ir = ir
        self.source = source
        self.key = key
        self.pass_reports = tuple(pass_reports)
        self.isa = ir.isa
        self.vl = ir.vl
        self.dims = ir.dims
        self.transpose_back = ir.transpose_back
        code = compile(source, f"<megakernel {key}>", "exec")
        exec(code, namespace)
        self._fn = namespace["megakernel"]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def replay(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One fused sweep over every block position — bit-identical to the
        IR executor's replay (1-D grids in the transpose layout)."""
        values = np.asarray(values, dtype=np.float64)
        if self.dims == 1:
            self.ir.block_axes(values.size)
        else:
            if values.ndim != self.dims:
                raise ValueError(f"megakernel expects a {self.dims}-D grid")
            self.ir.block_axes(values.shape)
        values = np.ascontiguousarray(values)
        out = _check_contiguous_out(out, values)
        self._fn(values, out)
        if self.dims > 1 and not self.transpose_back:
            from repro.core.vectorized_folding import (
                _untranspose_plane_tiles,
                _untranspose_tiles,
            )

            out = _untranspose_tiles(out, self.vl) if self.dims == 2 else (
                _untranspose_plane_tiles(out, self.vl)
            )
        return out

    def run_sweeps(self, values: np.ndarray, sweeps: int) -> np.ndarray:
        """``sweeps`` consecutive folded updates with two ping-pong buffers.

        Allocation-free after the first sweep; falls back to sweep-by-sweep
        :meth:`replay` for store layouts that untranspose (the untranspose
        produces a fresh array anyway).  The result is bit-identical to
        calling :meth:`replay` ``sweeps`` times.
        """
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if sweeps <= 0:
            return values.copy()
        if self.dims > 1 and not self.transpose_back:
            out = values
            for _ in range(sweeps):
                out = self.replay(out)
            return out
        cur = self.replay(values)
        if sweeps == 1:
            return cur
        buf = np.empty_like(cur)
        for _ in range(sweeps - 1):
            self._fn(cur, buf)
            cur, buf = buf, cur
        return cur

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def sweep_counts(
        self, shape: Union[int, Sequence[int]]
    ) -> Tuple[InstructionCounts, int, int]:
        """Exact per-sweep ``(counts, peak_live, spills)`` of the program the
        kernel was generated from — see :meth:`ScheduleIR.sweep_counts`."""
        return self.ir.sweep_counts(shape)

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
    """Lower ``schedule``, optionally optimize, and fetch/build its megakernel.

    The signature mirrors :func:`repro.ir.executor.compile_sweep`; the result
    is a :class:`KernelProgram` instead of a dispatch-loop executor.  Kernels
    are shared process-wide through the content-key cache: any (schedule,
    isa, pass pipeline) combination that lowers to the same program reuses
    the same compiled function.
    """
    global _CACHE_HITS, _CACHE_MISSES
    ir = None
    if transpose_back and isa in (AVX2, AVX512):
        cached = getattr(schedule, "schedule_ir", None)
        if cached is not None:
            ir = cached(isa.vector_lanes)
    if ir is None:
        ir = lower_schedule(schedule, isa, transpose_back=transpose_back)
    reports: Tuple[PassReport, ...] = ()
    if optimize is not False and optimize is not None:
        ir, reports = PassManager(optimize).run(ir)
    key = kernel_content_key(ir)
    with _CACHE_LOCK:
        program = _KERNEL_CACHE.get(key)
        if program is not None:
            _CACHE_HITS += 1
            return program
    source, namespace = generate_kernel_source(ir)
    program = KernelProgram(ir, source, namespace, key, pass_reports=reports)
    with _CACHE_LOCK:
        existing = _KERNEL_CACHE.get(key)
        if existing is not None:
            _CACHE_HITS += 1
            return existing
        _CACHE_MISSES += 1
        _KERNEL_CACHE[key] = program
    return program
