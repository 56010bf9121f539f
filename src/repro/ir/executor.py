"""Batched replay of :class:`~repro.ir.ops.ScheduleIR` programs.

One dimension-generic executor replaces the per-dimensionality compiled
sweeps: every virtual register becomes a NumPy array with leading *block*
axes — all vector sets of the 1-D transpose layout, or all
``(plane, row block, column block)`` squares of a 2-D/3-D grid (a 2-D grid
is a single plane) — loads become gathers whose index arithmetic mirrors the
interpreted sweep's periodic addressing, and cross-block ``("vt", ...)``
stage inputs become rolls of the column-block axis.  Because each replayed
instruction applies the identical ``float64`` elementwise operation the
machine would have applied per block, the result is bit-identical to the
interpreted sweep.

Instruction accounting is never re-executed; it is derived from the IR
(:meth:`~repro.ir.ops.ScheduleIR.sweep_counts`) — the per-segment op tallies
(plus spill charges) times the trip counts, which reproduces the interpreted
:class:`~repro.simd.machine.InstructionCounts` exactly for an unoptimized
program and yields the optimized program's own tally after a pass pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ir.lower import lower_schedule
from repro.ir.ops import IrOp, ScheduleIR
from repro.ir.passes import PassReport, optimize_flag
from repro.simd.isa import AVX2, AVX512, IsaSpec
from repro.simd.machine import InstructionCounts

__all__ = ["CompiledSweep", "compile_sweep"]


class _SegmentProgram:
    """An executable form of one IR segment.

    Shuffle immediates are pre-decoded into NumPy index/selector arrays and a
    register-liveness table is computed so replay can drop large intermediate
    arrays as soon as their last consumer has run.
    """

    def __init__(self, ops: Sequence[IrOp], vl: int, keep: Optional[Set[int]] = None):
        self.vl = vl
        keep = keep or set()
        defined = {op.dst for op in ops if op.dst >= 0}
        last_use: Dict[int, int] = {}
        for i, op in enumerate(ops):
            for src in op.srcs:
                last_use[src] = i
        self.steps: List[Tuple[IrOp, object, Tuple[int, ...]]] = []
        for i, op in enumerate(ops):
            if op.opcode == "input" and op.dst not in last_use and op.dst not in keep:
                # Dead stage input (possible on an un-DCE'd program): skip it
                # so replay never materializes a rolled full-grid copy nobody
                # reads.
                continue
            imm = op.imm
            if op.opcode == "shuf1":
                imm = np.asarray(imm, dtype=np.intp)
            elif op.opcode == "shuf2":
                lane_map = np.asarray(imm, dtype=np.intp)
                sel_b = lane_map >= vl
                imm = (sel_b, np.where(sel_b, lane_map - vl, lane_map))
            frees = tuple(
                src
                for src in dict.fromkeys(op.srcs)
                if src in defined and src not in keep and last_use[src] == i
            )
            self.steps.append((op, imm, frees))

    def run(
        self,
        env: List[Optional[np.ndarray]],
        load_fn: Optional[Callable[[object], np.ndarray]] = None,
        store_fn: Optional[Callable[[object, np.ndarray], None]] = None,
        input_fn: Optional[Callable[[object], np.ndarray]] = None,
    ) -> None:
        """Execute the segment over ``env`` (virtual register id → array)."""
        for op, imm, frees in self.steps:
            oc = op.opcode
            if oc == "fma":
                a, b, c = op.srcs
                env[op.dst] = env[a] * env[b] + env[c]
            elif oc == "mul":
                a, b = op.srcs
                env[op.dst] = env[a] * env[b]
            elif oc == "add":
                a, b = op.srcs
                env[op.dst] = env[a] + env[b]
            elif oc == "sub":
                a, b = op.srcs
                env[op.dst] = env[a] - env[b]
            elif oc == "max":
                a, b = op.srcs
                env[op.dst] = np.maximum(env[a], env[b])
            elif oc == "shuf1":
                env[op.dst] = env[op.srcs[0]][..., imm]
            elif oc == "shuf2":
                sel_b, idx = imm
                a, b = op.srcs
                env[op.dst] = np.where(sel_b, env[b][..., idx], env[a][..., idx])
            elif oc == "load":
                env[op.dst] = load_fn(op.tag)
            elif oc == "store":
                store_fn(op.tag, env[op.srcs[0]])
            elif oc == "input":
                env[op.dst] = input_fn(op.tag)
            elif oc == "const":
                env[op.dst] = np.full(self.vl, imm, dtype=np.float64)
            else:  # pragma: no cover - the lowering emits no other opcodes
                raise RuntimeError(f"unknown IR opcode {oc!r}")
            for src in frees:
                env[src] = None


def _check_contiguous_out(out: Optional[np.ndarray], values: np.ndarray) -> np.ndarray:
    """``out``, or a new array, once it is safe to write ``values``' sweep into:
    a writeable C-contiguous ``float64`` array of their shape that shares no
    memory with them."""
    if out is None:
        return np.empty_like(values)
    if out.dtype != np.float64:
        raise ValueError(f"IR replay writes float64, not into a {out.dtype} output array")
    if not out.flags.c_contiguous:
        raise ValueError("IR replay requires a C-contiguous output array")
    if not out.flags.writeable:
        raise ValueError("IR replay requires a writeable output array")
    if out.shape != values.shape:
        raise ValueError(f"output shape {out.shape} does not match grid shape {values.shape}")
    if np.may_share_memory(out, values):
        raise ValueError("IR replay cannot write its output over its input")
    return out


class CompiledSweep:
    """Executable batched replay of one :class:`ScheduleIR`.

    The executor is dimension-generic, parameterized by the program's block
    axes (:meth:`ScheduleIR.block_axes`): 1-D programs replay the ``block``
    segment over all vector sets of the transpose layout at once; 2-D/3-D
    programs replay the ``vertical`` segment over all ``vl × vl`` squares of
    all planes, resolve the shifts-reuse stage inputs of the ``horizontal``
    segment by rolling the column-block axis, and store every square's
    result in one pass.
    """

    def __init__(self, ir: ScheduleIR, pass_reports: Tuple[PassReport, ...] = ()):
        if not isinstance(ir, ScheduleIR):
            raise TypeError(
                "CompiledSweep executes a lowered ScheduleIR; use "
                "compile_sweep(schedule, isa) to lower and compile a FoldingSchedule"
            )
        self.ir = ir
        self.pass_reports = tuple(pass_reports)
        self.isa = ir.isa
        self.vl = ir.vl
        self.dims = ir.dims
        vl = self.vl
        base_env: List[Optional[np.ndarray]] = [None] * ir.nregs
        prologue = ir.segments[0]
        if prologue.trip != "once":
            raise ValueError("the first IR segment must be the prologue (trip 'once')")
        _SegmentProgram(prologue.ops, vl, keep=set(range(ir.nregs))).run(base_env)
        self._base_env = base_env
        if self.dims == 1:
            self._block_prog = _SegmentProgram(ir.segment("block").ops, vl)
        else:
            vt_vids = {vid for cols in ir.vt_out for vid in cols}
            self._vertical_prog = _SegmentProgram(ir.segment("vertical").ops, vl, keep=vt_vids)
            self._horizontal_prog = _SegmentProgram(ir.segment("horizontal").ops, vl)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One folded update of every block position at once.

        1-D grids are expected (and returned) in the transpose layout; 2-D
        and 3-D grids stay in the original row-major layout.
        """
        return self._replay(values, out)

    def _replay(self, values: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # The body of replay(), which KernelProgram.replay calls as well.
        values, out, axes = self._operands(values, out)
        if self.dims == 1:
            self._replay_sets(values, out, axes)
        else:
            self._replay_squares(values, out, axes)
        return out

    def _operands(
        self, values: np.ndarray, out: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
        """``(values, out, block axes)`` of one sweep: a C-contiguous ``float64``
        grid of the program's dimensionality in its block multiples, and an
        output array :func:`_check_contiguous_out` accepts."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != self.dims:
            raise ValueError(f"CompiledSweep.replay expects a {self.dims}-D grid")
        axes = self.ir.block_axes(values.shape)
        return values, _check_contiguous_out(out, values), axes

    def _replay_sets(self, values_t: np.ndarray, out_t: np.ndarray, axes: Tuple[int, ...]) -> None:
        vl = self.vl
        (nsets,) = axes
        v3 = values_t.reshape(nsets, vl, vl)
        out3 = out_t.reshape(nsets, vl, vl)

        def load_fn(tag):
            _, delta, j = tag
            column = v3[:, j, :]
            if delta == 0:
                return column
            return np.roll(column, -delta, axis=0)

        def store_fn(tag, val):
            _, j = tag
            out3[:, j, :] = val

        env = list(self._base_env)
        self._block_prog.run(env, load_fn=load_fn, store_fn=store_fn)

    def _replay_squares(self, values: np.ndarray, out: np.ndarray, axes: Tuple[int, ...]) -> None:
        vl = self.vl
        planes, nrb, ncb = axes
        rows, cols = values.shape[-2], values.shape[-1]
        v5 = values.reshape(planes, nrb, vl, ncb, vl)
        out5 = out.reshape(planes, nrb, vl, ncb, vl)
        grid3 = values.reshape(planes, rows, cols)

        def load_fn(tag):
            _, dz, s = tag
            if dz == 0 and 0 <= s < vl:
                return v5[:, :, s]
            zsel = (np.arange(planes) + dz) % planes
            rowsel = (np.arange(nrb) * vl + s) % rows
            return grid3[np.ix_(zsel, rowsel)].reshape(planes, nrb, ncb, vl)

        env = list(self._base_env)

        def store_fn(tag, val):
            _, oi = tag
            out5[:, :, oi] = val

        def input_fn(tag):
            _, delta, ci, k = tag
            column = env[self.ir.vt_out[ci][k]]
            # A block-invariant column (a constant, with no block axes) is
            # its own neighbour.
            if delta == 0 or column.ndim == 1:
                return column
            return np.roll(column, -delta, axis=2)

        self._vertical_prog.run(env, load_fn=load_fn)
        self._horizontal_prog.run(env, store_fn=store_fn, input_fn=input_fn)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def sweep_counts(
        self, shape: Union[int, Sequence[int]]
    ) -> Tuple[InstructionCounts, int, int]:
        """Exact per-sweep ``(counts, peak_live, spills)`` — see
        :meth:`ScheduleIR.sweep_counts`."""
        return self.ir.sweep_counts(shape)


def _lower_and_optimize(
    schedule, isa: IsaSpec, optimize: Optional[bool] = False
) -> Tuple[ScheduleIR, Tuple[PassReport, ...]]:
    """``(ir, pass reports)`` of ``schedule``, after the default pipeline when
    ``optimize`` (see :func:`~repro.ir.passes.optimize_flag`): the front end
    of :func:`compile_sweep` and :func:`repro.backend.codegen.compile_kernel`.

    It reads the schedule's per-ISA cache, which the cost model's
    instruction profile shares, so the recording and the default pipeline
    run once per (schedule, ISA) however many engines are built from it.
    """
    optimize = optimize_flag(optimize)
    if isa not in (AVX2, AVX512):
        raise ValueError(f"unknown ISA {isa.name!r}; expected avx2 or avx512")
    lowered = schedule._lowered_ir(isa.vector_lanes, optimize=optimize)
    if lowered is None:
        lower_schedule(schedule, isa)  # raises check_lowerable's error
    return lowered


def compile_sweep(schedule, isa: IsaSpec, *, optimize: Optional[bool] = False) -> CompiledSweep:
    """Lower, optionally optimize, and compile the SIMD sweep of ``schedule``.

    Parameters
    ----------
    schedule:
        A 1-D/2-D/3-D :class:`~repro.core.vectorized_folding.FoldingSchedule`.
    isa:
        Target instruction set.
    optimize:
        ``False`` or ``None`` (default ``False``) compiles the recorded
        program as-is — replay values *and* instruction counts are identical
        to the interpreted sweep.  ``True`` runs the default pass pipeline
        (:data:`repro.ir.passes.DEFAULT_PASSES`): replay stays bit-identical
        but yields the optimized program's own (smaller) counts, and the
        applied :class:`~repro.ir.passes.PassReport` deltas are exposed as
        ``CompiledSweep.pass_reports``.  Any other value raises
        ``ValueError``; wrap ``PassManager(names).run(ir)`` in
        :class:`CompiledSweep` to replay chosen passes.
    """
    ir, reports = _lower_and_optimize(schedule, isa, optimize)
    return CompiledSweep(ir, pass_reports=reports)
