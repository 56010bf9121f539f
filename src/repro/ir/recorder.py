"""Symbolic trace recording: lowering schedules to the typed IR.

:class:`TraceRecorder` is a :class:`~repro.simd.machine.SimdMachine` proxy
that *records* the instruction stream of a schedule instead of executing it.
The folding sweeps never branch on register *values* — their control flow is
fully determined by the schedule structure and the grid geometry — so one
symbolic execution of a per-block pipeline piece captures the complete
instruction trace of every block position at once.

The recorder emits the typed IR of :mod:`repro.ir.ops` directly: every
instruction becomes an :class:`~repro.ir.ops.IrOp` (explicit opcode,
instruction class, operand/result virtual registers, lane width, memory tag)
appended to the current :class:`~repro.ir.ops.IrSegment`.

Design notes
------------
* Lane semantics of the data-organisation instructions (blend, rotate,
  unpack, ``permute2f128``, block exchanges) are derived by *probing*: the
  recorder runs the instruction once on a scratch
  :class:`~repro.simd.machine.SimdMachine` with distinguishing lane values
  and reads off the source lane of every destination lane.  The probe reuses
  the real machine's implementation, so recorded semantics (and argument
  validation) cannot drift from interpreted execution.
* Register pressure mirrors the machine's accounting exactly, *per segment*:
  :meth:`note_live_registers` records the segment's peak live count and
  charges any excess over the architectural register count as spill
  stores/reloads, which :meth:`repro.ir.ops.IrSegment.counts` folds back
  into the derived tallies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.ops import IrOp, IrSegment
from repro.simd.isa import InstructionClass, IsaSpec
from repro.simd.machine import SimdMachine
from repro.simd.vector import Vector

__all__ = ["TraceRecorder", "TraceReg"]


class TraceReg:
    """A virtual register produced during trace recording."""

    __slots__ = ("vid", "lanes")

    def __init__(self, vid: int, lanes: int):
        self.vid = vid
        self.lanes = lanes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceReg(v{self.vid})"


class TraceRecorder(SimdMachine):
    """Records the instruction stream of a schedule as typed IR segments.

    The recorder presents the full :class:`~repro.simd.machine.SimdMachine`
    instruction surface, so the per-block pipeline pieces of
    :class:`~repro.core.vectorized_folding.FoldingSchedule` run against it
    unchanged.  Memory traffic goes through :meth:`emit_load` /
    :meth:`emit_store` (bound by the lowering through the pieces'
    ``load``/``store`` callables) so every access carries an abstract
    block-relative tag instead of a concrete address.
    """

    def __init__(self, isa: IsaSpec):
        super().__init__(isa)
        self._probe = SimdMachine(isa)
        self._probe_a = Vector(np.arange(self.vl, dtype=np.float64))
        self._probe_b = Vector(self.vl + np.arange(self.vl, dtype=np.float64))
        self.segments: List[IrSegment] = []
        self._nregs = 0

    # ------------------------------------------------------------------ #
    # segment and register management
    # ------------------------------------------------------------------ #
    @property
    def nregs(self) -> int:
        """Number of virtual registers allocated so far."""
        return self._nregs

    def begin_segment(self, name: str, trip: str = "once") -> None:
        """Start a new trace segment with trip role ``trip``."""
        self.segments.append(IrSegment(name=name, trip=trip))

    def _segment(self) -> IrSegment:
        if not self.segments:
            raise RuntimeError("begin_segment() must be called before recording")
        return self.segments[-1]

    def _new_reg(self) -> TraceReg:
        reg = TraceReg(self._nregs, self.vl)
        self._nregs += 1
        return reg

    def _emit(
        self,
        opcode: str,
        cls: Optional[InstructionClass],
        srcs: Tuple[TraceReg, ...] = (),
        imm: object = None,
        tag: object = None,
    ) -> TraceReg:
        for src in srcs:
            if not isinstance(src, TraceReg):
                raise TypeError(f"trace operand is not a TraceReg: {src!r}")
            if src.lanes != self.vl:
                raise ValueError("operand width does not match machine vector length")
        dst = self._new_reg()
        self._segment().ops.append(
            IrOp(
                opcode,
                dst.vid,
                tuple(s.vid for s in srcs),
                imm=imm,
                tag=tag,
                cls=cls,
                lanes=self.vl,
            )
        )
        return dst

    # ------------------------------------------------------------------ #
    # tagged memory traffic (bound through the pipeline-piece callables)
    # ------------------------------------------------------------------ #
    def emit_load(self, tag: object) -> TraceReg:
        """Record a vector load from the abstract address ``tag``."""
        return self._emit("load", InstructionClass.LOAD, tag=tag)

    def emit_store(self, tag: object, vec: TraceReg) -> None:
        """Record a vector store of ``vec`` to the abstract address ``tag``."""
        if not isinstance(vec, TraceReg):
            raise TypeError("emit_store expects a TraceReg")
        self._segment().ops.append(
            IrOp(
                "store",
                -1,
                (vec.vid,),
                tag=tag,
                cls=InstructionClass.STORE,
                lanes=self.vl,
            )
        )

    def emit_input(self, tag: object) -> TraceReg:
        """Declare a register produced by an earlier stage (no instruction)."""
        return self._emit("input", None, tag=tag)

    # ------------------------------------------------------------------ #
    # SimdMachine instruction surface
    # ------------------------------------------------------------------ #
    def load(self, array, start, aligned=True):  # pragma: no cover - guard
        raise RuntimeError("trace recording addresses memory via emit_load(tag)")

    def store(self, vec, array, start, aligned=True):  # pragma: no cover - guard
        raise RuntimeError("trace recording addresses memory via emit_store(tag)")

    def broadcast(self, value: float) -> TraceReg:
        return self._emit("const", InstructionClass.BROADCAST, imm=float(value))

    def add(self, a: TraceReg, b: TraceReg) -> TraceReg:
        return self._emit("add", InstructionClass.ARITH, (a, b))

    def sub(self, a: TraceReg, b: TraceReg) -> TraceReg:
        return self._emit("sub", InstructionClass.ARITH, (a, b))

    def mul(self, a: TraceReg, b: TraceReg) -> TraceReg:
        return self._emit("mul", InstructionClass.ARITH, (a, b))

    def maximum(self, a: TraceReg, b: TraceReg) -> TraceReg:
        return self._emit("max", InstructionClass.MAX, (a, b))

    def fma(self, a: TraceReg, b: TraceReg, c: TraceReg) -> TraceReg:
        return self._emit("fma", InstructionClass.FMA, (a, b, c))

    def _probe2(self, method: str, *args) -> Tuple[int, ...]:
        """Derive a two-source lane map by probing the real machine."""
        result = getattr(self._probe, method)(self._probe_a, self._probe_b, *args)
        return tuple(int(v) for v in result)

    def blend(self, a: TraceReg, b: TraceReg, mask: Sequence[bool]) -> TraceReg:
        lane_map = self._probe2("blend", mask)
        return self._emit("shuf2", InstructionClass.BLEND, (a, b), imm=lane_map)

    def permute_lanes(self, a: TraceReg, order: Sequence[int]) -> TraceReg:
        probe = self._probe.permute_lanes(self._probe_a, order)
        lane_map = tuple(int(v) for v in probe)
        return self._emit("shuf1", InstructionClass.PERMUTE, (a,), imm=lane_map)

    def unpacklo(self, a: TraceReg, b: TraceReg) -> TraceReg:
        lane_map = self._probe2("unpacklo")
        return self._emit("shuf2", InstructionClass.SHUFFLE, (a, b), imm=lane_map)

    def unpackhi(self, a: TraceReg, b: TraceReg) -> TraceReg:
        lane_map = self._probe2("unpackhi")
        return self._emit("shuf2", InstructionClass.SHUFFLE, (a, b), imm=lane_map)

    def permute2f128(self, a: TraceReg, b: TraceReg, sel_lo: int, sel_hi: int) -> TraceReg:
        lane_map = self._probe2("permute2f128", sel_lo, sel_hi)
        return self._emit("shuf2", InstructionClass.PERMUTE, (a, b), imm=lane_map)

    def exchange_blocks(self, a: TraceReg, b: TraceReg, block: int, high: bool) -> TraceReg:
        lane_map = self._probe2("exchange_blocks", block, high)
        cls = InstructionClass.SHUFFLE if block == 1 else InstructionClass.PERMUTE
        return self._emit("shuf2", cls, (a, b), imm=lane_map)

    def note_live_registers(self, live: int) -> None:
        """Mirror the machine's register-pressure accounting per segment."""
        if live < 0:
            raise ValueError("live register count cannot be negative")
        seg = self._segment()
        seg.peak_live = max(seg.peak_live, live)
        excess = live - self.isa.registers
        if excess > 0:
            seg.spills += excess
