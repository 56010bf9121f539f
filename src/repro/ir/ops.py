"""The typed vector IR: ops, segments and whole-schedule programs.

The IR is the single representation every execution-stack layer consumes:
trace replay executes it, instruction accounting is derived from it, the
port-pressure cost model and the cache layer's memory profile read the same
ops.  It is produced once per ``(schedule, isa, dims)`` by
:func:`repro.ir.lower.lower_schedule` and optionally rewritten by the pass
pipeline in :mod:`repro.ir.passes`.

Shape of the IR
---------------
* An :class:`IrOp` is one instruction over *virtual registers* (plain integer
  ids in one SSA namespace per program): an explicit opcode, the
  :class:`~repro.simd.isa.InstructionClass` it is billed as (``None`` for the
  free ``input`` pseudo-op), operand/result registers, an immediate payload
  (broadcast scalars, decoded lane maps) and — for memory traffic — an
  abstract block-relative address ``tag``.
* An :class:`IrSegment` is a straight-line run of ops plus its register
  pressure metadata (``peak_live``, ``spills`` — the
  :meth:`~repro.simd.machine.SimdMachine.note_live_registers` accounting) and
  a ``trip`` role naming how often the interpreted sweep executes it.
* A :class:`ScheduleIR` is the whole program: the segments, the register
  count, the ISA, the grid dimensionality and the cross-segment wiring
  (``vt_out`` — the transposed counterpart columns the square pipelines hand
  from the vertical to the horizontal phase).

Instruction accounting is *derived*, never stored: a segment's
:meth:`~IrSegment.counts` walks its ops (plus the spill store/reload charges)
and :meth:`ScheduleIR.sweep_counts` scales each segment by its trip count for
a concrete grid shape — reproducing the interpreted machine's tally exactly
for an unoptimized program, and yielding the optimized program's own
(smaller) tally after the pass pipeline ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simd.isa import InstructionClass, IsaSpec
from repro.simd.machine import InstructionCounts

__all__ = ["IrOp", "IrSegment", "ScheduleIR", "TRIP_ROLES"]

#: Trip roles a segment may carry.  ``once`` runs once per sweep (weight
#: broadcasts); ``block`` once per 1-D vector set; ``vertical`` once per
#: square *including* the two shifts-reuse priming squares of each block row;
#: ``horizontal`` once per square.
TRIP_ROLES = ("once", "block", "vertical", "horizontal")


def block_axes(shape: Union[int, Sequence[int]], vl: int, dims: int) -> Tuple[int, ...]:
    """Block axes of a ``dims``-D batched replay at ``vl`` lanes for a grid ``shape``.

    ``(vector sets,)`` for 1-D programs, ``(planes, row blocks, column
    blocks)`` for 2-D/3-D programs (a 2-D grid is a single plane).  Raises
    ``ValueError`` for a shape outside the schedules' block multiples.
    """
    if dims == 1:
        n = int(shape if np.isscalar(shape) else tuple(shape)[0])
        if n % (vl * vl) != 0:
            raise ValueError(f"array length {n} must be a multiple of vl²={vl * vl}")
        return (n // (vl * vl),)
    shape = tuple(int(s) for s in shape)
    if len(shape) != dims:
        raise ValueError(f"shape {shape} does not match a {dims}-D program")
    planes = shape[0] if dims == 3 else 1
    rows, cols = shape[-2], shape[-1]
    if rows % vl != 0 or cols % vl != 0:
        raise ValueError(
            f"grid shape {shape} must be a multiple of vl={vl} "
            "along its two innermost extents"
        )
    return (planes, rows // vl, cols // vl)


@dataclass(frozen=True)
class IrOp:
    """One typed IR instruction.

    Attributes
    ----------
    opcode:
        ``"const"``, ``"load"``, ``"input"``, ``"store"``, ``"mul"``,
        ``"add"``, ``"sub"``, ``"max"``, ``"fma"``, ``"shuf1"`` or
        ``"shuf2"``.
    dst:
        Virtual register written (``-1`` for stores).
    srcs:
        Virtual registers read.
    imm:
        Immediate payload: the broadcast scalar for ``const``; the lane map
        for shuffles (``shuf1``: destination lane ``l`` reads source lane
        ``imm[l]``; ``shuf2``: entries ``>= lanes`` select from the second
        operand).
    tag:
        Abstract block-relative address of a ``load``/``store``/``input``
        (e.g. ``("set", delta, j)``, ``("row", dz, s)``, ``("out_row", oi)``,
        ``("vt", delta, ci, k)``).
    cls:
        Instruction class the op is billed as; ``None`` for ``input``, which
        names a value produced by an earlier pipeline stage and costs
        nothing.
    lanes:
        Lane width of the produced value (the machine vector length).
    """

    opcode: str
    dst: int
    srcs: Tuple[int, ...] = ()
    imm: object = None
    tag: object = None
    cls: Optional[InstructionClass] = None
    lanes: int = 0

    @property
    def is_memory(self) -> bool:
        """True for architectural loads and stores (not ``input`` pseudo-ops)."""
        return self.opcode in ("load", "store")


@dataclass
class IrSegment:
    """A named straight-line run of IR ops plus its pressure metadata.

    ``peak_live`` / ``spills`` mirror the
    :meth:`~repro.simd.machine.SimdMachine.note_live_registers` accounting of
    the interpreted sweep: each execution of the segment charges ``spills``
    spill stores plus ``spills`` spill reloads on top of the per-op tallies.
    """

    name: str
    trip: str = "once"
    ops: List[IrOp] = field(default_factory=list)
    peak_live: int = 0
    spills: int = 0

    def op_counts(self) -> InstructionCounts:
        """Per-execution instruction tally of the ops alone (no spill charges)."""
        counts = InstructionCounts()
        for op in self.ops:
            if op.cls is not None:
                counts.add(op.cls)
        return counts

    def counts(self) -> InstructionCounts:
        """Per-execution tally including the spill store/reload charges."""
        counts = self.op_counts()
        if self.spills > 0:
            counts.add(InstructionClass.STORE, self.spills)
            counts.add(InstructionClass.LOAD, self.spills)
        return counts

    def defined(self) -> set:
        """Virtual registers defined by this segment."""
        return {op.dst for op in self.ops if op.dst >= 0}

    def with_ops(self, ops: Sequence[IrOp]) -> "IrSegment":
        """Copy of the segment with ``ops`` replaced (metadata kept)."""
        return IrSegment(
            name=self.name,
            trip=self.trip,
            ops=list(ops),
            peak_live=self.peak_live,
            spills=self.spills,
        )


@dataclass
class ScheduleIR:
    """A lowered register-level schedule: typed segments over one SSA space.

    Attributes
    ----------
    isa:
        Target instruction set (defines the lane width and register count).
    dims:
        Grid dimensionality of the schedule (1, 2 or 3).
    m:
        Temporal folding factor of the source schedule (logical time steps
        advanced per sweep).
    nregs:
        Size of the virtual register space (ids are ``0 .. nregs-1``; passes
        may leave ids undefined, they are never renumbered).
    segments:
        The program's segments in execution order; the first has trip role
        ``"once"`` (the prologue).
    vt_out:
        For 2-D/3-D programs: ``vt_out[ci][k]`` is the virtual register
        holding transposed column ``k`` of materialised counterpart ``ci``
        after the vertical phase — the values the horizontal phase reads
        through its ``("vt", delta, ci, k)`` input tags.
    source:
        Free-form provenance label (stencil name, m, isa).
    """

    isa: IsaSpec
    dims: int
    m: int
    nregs: int
    segments: List[IrSegment]
    vt_out: Tuple[Tuple[int, ...], ...] = ()
    source: str = ""

    @property
    def vl(self) -> int:
        """Lane width of the target ISA."""
        return self.isa.vector_lanes

    def segment(self, name: str) -> IrSegment:
        """The segment called ``name`` (KeyError when absent)."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    def with_segments(
        self, segments: Sequence[IrSegment], vt_out: Optional[Sequence[Sequence[int]]] = None
    ) -> "ScheduleIR":
        """Copy with ``segments`` (and optionally ``vt_out``) replaced."""
        return replace(
            self,
            segments=list(segments),
            vt_out=(
                tuple(tuple(col) for col in vt_out) if vt_out is not None else self.vt_out
            ),
        )

    # ------------------------------------------------------------------ #
    # trip counts and accounting
    # ------------------------------------------------------------------ #
    def block_axes(self, shape: Union[int, Sequence[int]]) -> Tuple[int, ...]:
        """Block axes of the batched replay for a concrete grid ``shape`` —
        see :func:`block_axes`."""
        return block_axes(shape, self.vl, self.dims)

    def trip_counts(self, shape: Union[int, Sequence[int]]) -> Dict[str, int]:
        """Executions of each trip role for one interpreted sweep of ``shape``.

        The ``vertical`` role runs ``planes · n_row_blocks · (n_col_blocks +
        2)`` times because shifts reuse primes every block row with two extra
        squares — exactly the interpreted sweep's behaviour.
        """
        axes = self.block_axes(shape)
        if self.dims == 1:
            return {"once": 1, "block": axes[0]}
        planes, nrb, ncb = axes
        return {
            "once": 1,
            "vertical": planes * nrb * (ncb + 2),
            "horizontal": planes * nrb * ncb,
        }

    def sweep_counts(
        self, shape: Union[int, Sequence[int]]
    ) -> Tuple[InstructionCounts, int, int]:
        """Exact per-sweep ``(counts, peak_live, spills)`` for ``shape``.

        Derived entirely from the IR: per-segment op tallies (plus spill
        charges) scaled by the segment trip counts.  For an unoptimized
        program this reproduces the interpreted machine's accounting
        identically; for an optimized program it is the optimized trace's own
        tally.
        """
        trips = self.trip_counts(shape)
        counts = InstructionCounts()
        peak = 0
        spills = 0
        for seg in self.segments:
            mult = trips[seg.trip]
            counts = counts.merge(seg.counts().scaled(mult))
            if mult > 0:
                peak = max(peak, seg.peak_live)
            spills += seg.spills * mult
        return counts, peak, spills

    def steady_counts_per_point(self) -> InstructionCounts:
        """Steady-state instructions per grid point per *logical* time step.

        The prologue amortises to zero on a large grid and every per-block
        segment runs once per ``vl × vl`` points per sweep (the two
        shifts-reuse priming squares per block row vanish as the row length
        grows), so the steady state is the per-block tallies divided by
        ``vl² · m``.  This is what feeds the port-pressure cost model — the
        same ops the replay executes, so estimated and simulated counts
        cannot drift.
        """
        counts = InstructionCounts()
        for seg in self.segments:
            if seg.trip != "once":
                counts = counts.merge(seg.counts())
        return counts.scaled(1.0 / (self.vl * self.vl * self.m))

    def static_counts(self) -> InstructionCounts:
        """Unweighted op tally over all segments (for pass-delta reporting)."""
        counts = InstructionCounts()
        for seg in self.segments:
            counts = counts.merge(seg.op_counts())
        return counts

    @property
    def peak_live(self) -> int:
        """Largest per-segment peak register pressure."""
        return max((seg.peak_live for seg in self.segments), default=0)

    # ------------------------------------------------------------------ #
    # structural validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check SSA form, operand availability and segment scoping.

        Raises ``ValueError`` on: a register defined twice, an operand read
        before any definition, an op in a per-block segment reading a value
        defined in a *different* per-block segment (cross-block values must
        flow through ``input`` tags), or an unknown trip role.
        """
        defined_in: Dict[int, int] = {}
        for si, seg in enumerate(self.segments):
            if seg.trip not in TRIP_ROLES:
                raise ValueError(f"segment {seg.name!r} has unknown trip role {seg.trip!r}")
            for op in seg.ops:
                for src in op.srcs:
                    owner = defined_in.get(src)
                    if owner is None:
                        raise ValueError(
                            f"segment {seg.name!r}: operand v{src} read before definition"
                        )
                    if owner != si and self.segments[owner].trip != "once":
                        raise ValueError(
                            f"segment {seg.name!r}: operand v{src} crosses from "
                            f"per-block segment {self.segments[owner].name!r} "
                            "(cross-block values must use input tags)"
                        )
                if op.dst >= 0:
                    if op.dst in defined_in:
                        raise ValueError(f"register v{op.dst} defined twice (not SSA)")
                    if op.dst >= self.nregs:
                        raise ValueError(f"register v{op.dst} outside the declared space")
                    defined_in[op.dst] = si
