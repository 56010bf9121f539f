"""The optimizing pass pipeline over :class:`~repro.ir.ops.ScheduleIR`.

Every pass is a pure function ``ScheduleIR -> ScheduleIR`` registered under a
short name; :class:`PassManager` runs a pipeline and reports the per-pass
instruction-count deltas.  The contract every pass must honour:

* **bit-identical replay** — the optimized program must produce exactly the
  values of the unoptimized one (all rewrites here are algebraic identities
  of the simulated ``float64`` semantics: merged pure ops, composed lane
  maps, and ``a*b + c`` which the simulated FMA evaluates with the same two
  roundings as the mul/add pair);
* **never more work** — group-wise instruction counts (arithmetic,
  data-organisation, memory) and register pressure may only stay or shrink.

Scoping rule: values defined in a ``once`` (prologue) segment are available
everywhere; values defined in a per-block segment exist only within that
segment's instance (cross-block dataflow goes through ``input`` tags), so
merges and compositions never cross per-block segment boundaries.

The built-in passes:

``cse``
    Common-subexpression elimination on pure data-organisation ops
    (broadcast constants and decoded shuffles/blends/permutes).
``coalesce``
    Roll/shift coalescing: composes chained lane maps.  A lane permute of a
    lane permute always folds into one; a lane permute of a two-source
    select (the blend+rotate pair that assembles the cross-block neighbour
    operands of the 1-D vector-set sweep) folds into a single two-source
    permute where the ISA has one (``vpermt2pd`` — AVX-512).  Degenerate
    two-source selects collapse to single-source permutes.
``fuse-fma``
    Multiply–add fusion: ``add(mul(a, b), c) → fma(a, b, c)`` for
    single-use multiplies, where the ISA has FMA.
``dce``
    Dead-code elimination: drops ops (transitively) unread by any store,
    cross-segment output or live stage input — including the prologue
    broadcasts of zero kernel entries and stage inputs nobody consumes.
``hoist``
    Loop-invariant code motion: pure per-block ops whose operands are all
    block-invariant (prologue values, or themselves hoisted) move into the
    hoisted prologue, which the replay executor (trace and kernel backends)
    evaluates once at build time.
``reschedule``
    Graph-driven list scheduling over each per-block segment's
    :class:`~repro.ir.dependency.DependencyGraph`: the ready set is the
    nodes with zero unresolved dependencies, and the priority combines the
    spill-aware freed-operands heuristic (primary), the latency-weighted
    critical-path height, and the port-pressure balance of the cost model's
    timing table.  ``peak_live``/``spills`` are re-derived with the
    :meth:`~repro.simd.machine.SimdMachine.note_live_registers` semantics
    (one spill store + reload per value exceeding the architectural register
    count), never exceeding the recorded pressure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.dependency import DependencyGraph
from repro.ir.ops import IrOp, IrSegment, ScheduleIR
from repro.simd.isa import InstructionClass
from repro.simd.machine import InstructionCounts

__all__ = [
    "PassManager",
    "PassReport",
    "DEFAULT_PASSES",
    "optimize_flag",
    "common_subexpression_elimination",
    "coalesce_shuffles",
    "fuse_multiply_add",
    "dead_code_elimination",
    "hoist_loop_invariants",
    "reschedule_register_pressure",
]


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _apply_alias(ir: ScheduleIR, alias: Dict[int, int]) -> ScheduleIR:
    """Rewrite every operand (and ``vt_out``) through ``alias``."""
    if not alias:
        return ir

    def resolve(vid: int) -> int:
        while vid in alias:
            vid = alias[vid]
        return vid

    segments = []
    for seg in ir.segments:
        ops = []
        for op in seg.ops:
            srcs = tuple(resolve(s) for s in op.srcs)
            ops.append(replace(op, srcs=srcs) if srcs != op.srcs else op)
        segments.append(seg.with_ops(ops))
    vt_out = tuple(tuple(resolve(v) for v in cols) for cols in ir.vt_out)
    return ir.with_segments(segments, vt_out=vt_out)


def _shuffle_class(lane_map: Sequence[int], vl: int) -> InstructionClass:
    """Bill a single-source lane map as in-lane SHUFFLE or lane-crossing PERMUTE."""
    if all(m // 2 == l // 2 for l, m in enumerate(lane_map)):
        return InstructionClass.SHUFFLE
    return InstructionClass.PERMUTE


# --------------------------------------------------------------------------- #
# cse
# --------------------------------------------------------------------------- #
def _cse_key(op: IrOp) -> Optional[Tuple]:
    if op.opcode == "const":
        # copysign distinguishes -0.0 from 0.0 (bit-identity matters).
        return ("const", float(op.imm), math.copysign(1.0, float(op.imm)))
    if op.opcode in ("shuf1", "shuf2"):
        return (op.opcode, op.srcs, tuple(op.imm))
    return None


def common_subexpression_elimination(ir: ScheduleIR) -> ScheduleIR:
    """Merge identical pure data-organisation ops (and broadcast constants).

    Prologue values are block-invariant, so their expressions stay available
    in every later segment; per-block expressions are only merged within
    their own segment.
    """
    alias: Dict[int, int] = {}
    prologue_table: Dict[Tuple, int] = {}
    segments: List[IrSegment] = []
    for seg in ir.segments:
        table = dict(prologue_table)
        ops: List[IrOp] = []
        for op in seg.ops:
            srcs = tuple(alias.get(s, s) for s in op.srcs)
            if srcs != op.srcs:
                op = replace(op, srcs=srcs)
            key = _cse_key(op)
            if key is not None:
                prev = table.get(key)
                if prev is not None:
                    alias[op.dst] = prev
                    continue
                table[key] = op.dst
                if seg.trip == "once":
                    prologue_table[key] = op.dst
            ops.append(op)
        segments.append(seg.with_ops(ops))
    return _apply_alias(ir.with_segments(segments), alias)


# --------------------------------------------------------------------------- #
# coalesce
# --------------------------------------------------------------------------- #
def coalesce_shuffles(ir: ScheduleIR) -> ScheduleIR:
    """Compose chained lane maps into fewer data-organisation ops.

    Iterates to a fixpoint: every round resolves aliases, composes
    ``shuf1∘shuf1`` (both ISAs) and ``shuf1∘shuf2`` (only where the ISA has
    a two-source lane-crossing permute), collapses degenerate two-source
    selects to single-source permutes, and drops identity permutes.
    """
    vl = ir.vl
    identity = tuple(range(vl))
    two_src_ok = getattr(ir.isa, "has_two_source_permute", False)

    changed = True
    rounds = 0
    while changed and rounds < 8:
        changed = False
        rounds += 1
        defs: Dict[int, Tuple[int, str, IrOp]] = {}
        for si, seg in enumerate(ir.segments):
            for op in seg.ops:
                if op.dst >= 0:
                    defs[op.dst] = (si, seg.trip, op)
        alias: Dict[int, int] = {}
        segments: List[IrSegment] = []
        for si, seg in enumerate(ir.segments):
            ops: List[IrOp] = []
            for op in seg.ops:
                srcs = tuple(alias.get(s, s) for s in op.srcs)
                if srcs != op.srcs:
                    op = replace(op, srcs=srcs)

                if op.opcode == "shuf2":
                    lane_map = tuple(op.imm)
                    if all(m < vl for m in lane_map):
                        op = replace(
                            op,
                            opcode="shuf1",
                            srcs=(op.srcs[0],),
                            imm=lane_map,
                            cls=_shuffle_class(lane_map, vl),
                        )
                        changed = True
                    elif all(m >= vl for m in lane_map):
                        folded = tuple(m - vl for m in lane_map)
                        op = replace(
                            op,
                            opcode="shuf1",
                            srcs=(op.srcs[1],),
                            imm=folded,
                            cls=_shuffle_class(folded, vl),
                        )
                        changed = True

                if op.opcode == "shuf1":
                    inner = defs.get(op.srcs[0])
                    in_scope = inner is not None and (
                        inner[1] == "once" or inner[0] == si
                    )
                    if in_scope:
                        _si, _trip, inner_op = inner
                        outer_map = tuple(op.imm)
                        if inner_op.opcode == "shuf1":
                            inner_map = tuple(inner_op.imm)
                            composed = tuple(inner_map[j] for j in outer_map)
                            op = replace(
                                op,
                                srcs=inner_op.srcs,
                                imm=composed,
                                cls=_shuffle_class(composed, vl),
                            )
                            changed = True
                        elif inner_op.opcode == "shuf2" and two_src_ok:
                            inner_map = tuple(inner_op.imm)
                            composed = tuple(inner_map[j] for j in outer_map)
                            op = replace(
                                op,
                                opcode="shuf2",
                                srcs=inner_op.srcs,
                                imm=composed,
                                cls=InstructionClass.PERMUTE,
                            )
                            changed = True
                    if op.opcode == "shuf1" and tuple(op.imm) == identity:
                        alias[op.dst] = op.srcs[0]
                        changed = True
                        continue
                ops.append(op)
            segments.append(seg.with_ops(ops))
        ir = _apply_alias(ir.with_segments(segments), alias)
    return ir


# --------------------------------------------------------------------------- #
# fuse-fma
# --------------------------------------------------------------------------- #
def fuse_multiply_add(ir: ScheduleIR) -> ScheduleIR:
    """Fuse ``add(mul(a, b), c)`` into ``fma(a, b, c)`` for single-use muls.

    The simulated FMA evaluates ``a*b + c`` with the same elementwise
    roundings as the mul/add pair, so the rewrite is bit-identical.  Gated
    on the ISA having FMA.
    """
    if not getattr(ir.isa, "has_fma", True):
        return ir
    uses: Counter = Counter()
    for seg in ir.segments:
        for op in seg.ops:
            uses.update(op.srcs)
    for cols in ir.vt_out:
        uses.update(cols)

    segments: List[IrSegment] = []
    for seg in ir.segments:
        def_at: Dict[int, int] = {}
        for i, op in enumerate(seg.ops):
            if op.dst >= 0:
                def_at[op.dst] = i
        fused_muls: set = set()
        rewritten: Dict[int, IrOp] = {}
        for i, op in enumerate(seg.ops):
            if op.opcode != "add":
                continue
            for pick, other in ((0, 1), (1, 0)):
                vid = op.srcs[pick]
                j = def_at.get(vid)
                if j is None or j in fused_muls:
                    continue
                mul = seg.ops[j]
                if mul.opcode != "mul" or uses[vid] != 1:
                    continue
                rewritten[i] = IrOp(
                    "fma",
                    op.dst,
                    (mul.srcs[0], mul.srcs[1], op.srcs[other]),
                    cls=InstructionClass.FMA,
                    lanes=op.lanes,
                )
                fused_muls.add(j)
                break
        if not fused_muls:
            segments.append(seg)
            continue
        ops = [
            rewritten.get(i, op)
            for i, op in enumerate(seg.ops)
            if i not in fused_muls
        ]
        segments.append(seg.with_ops(ops))
    return ir.with_segments(segments)


# --------------------------------------------------------------------------- #
# dce
# --------------------------------------------------------------------------- #
def dead_code_elimination(ir: ScheduleIR) -> ScheduleIR:
    """Drop ops whose results no store, stage input or cross-segment use reads.

    Walks the segments in reverse execution order, so the liveness of a
    horizontal stage input propagates to the vertical-phase register backing
    its ``("vt", delta, ci, k)`` tag, and prologue broadcasts survive only if
    some per-block op still reads them.
    """
    live: set = set()
    kept: Dict[int, List[IrOp]] = {}
    for si in range(len(ir.segments) - 1, -1, -1):
        seg = ir.segments[si]
        ops: List[IrOp] = []
        for op in reversed(seg.ops):
            if op.opcode == "store":
                live.update(op.srcs)
                ops.append(op)
                continue
            if op.dst not in live:
                continue
            live.update(op.srcs)
            if op.opcode == "input" and isinstance(op.tag, tuple) and op.tag[0] == "vt":
                _, _delta, ci, k = op.tag
                live.add(ir.vt_out[ci][k])
            ops.append(op)
        ops.reverse()
        kept[si] = ops
    segments = [seg.with_ops(kept[si]) for si, seg in enumerate(ir.segments)]
    return ir.with_segments(segments)


# --------------------------------------------------------------------------- #
# reschedule
# --------------------------------------------------------------------------- #
def reschedule_register_pressure(ir: ScheduleIR) -> ScheduleIR:
    """Graph-driven list scheduling of each per-block segment.

    Schedules from the segment's :class:`~repro.ir.dependency.DependencyGraph`
    (def-use and memory-alias edges), so any order it emits is a correct
    execution order.  Among the ready nodes the priority is, in order:

    1. **freed − defined** — the spill-aware pressure heuristic: issue the op
       freeing the most last-use operands per value it defines;
    2. **critical-path height** — the latency-weighted remaining chain below
       the node (longest chain first keeps the latency bound tight);
    3. **port balance** — prefer the op whose issue ports are currently the
       least subscribed under the cost model's water-fill accounting;
    4. recorded order (determinism).

    The segment's ``peak_live``/``spills`` are then re-derived from the
    scheduled IR with the
    :meth:`~repro.simd.machine.SimdMachine.note_live_registers` semantics —
    counting the values the segment holds from earlier segments (the
    broadcast weights) as live throughout — and clamped to the recorded
    pressure so the optimizer can only improve on the interpreted sweep.
    """
    keep_all = {vid for cols in ir.vt_out for vid in cols}
    segments: List[IrSegment] = []
    for seg in ir.segments:
        if seg.trip == "once" or not seg.ops:
            segments.append(seg)
            continue
        ops = seg.ops
        n = len(ops)
        graph = DependencyGraph(ir, seg)
        heights = graph.heights()
        local = seg.defined()
        # vt exports stay live past the vertical segment's end (the
        # horizontal stage reads them later).
        keep = keep_all & local
        reads = [[s for s in op.srcs if s in local] for op in ops]
        external = {s for op in ops for s in op.srcs} - local
        remaining: Counter = Counter()
        for r in reads:
            remaining.update(r)
        for vid in keep:
            remaining[vid] += 1  # held live to the end of the segment
        ndeps = [len(p) for p in graph.preds]
        ready = [i for i in range(n) if ndeps[i] == 0]
        port_load: Dict[str, float] = {}
        order: List[int] = []
        live = 0
        peak = 0
        while ready:
            best = None
            best_score = None
            for i in ready:
                op = ops[i]
                refs = Counter(reads[i])
                freed = sum(1 for s, c in refs.items() if remaining[s] == c)
                adds = 1 if op.dst >= 0 else 0
                balance = 0.0
                if op.cls is not None:
                    timing = ir.isa.timing(op.cls)
                    if timing.ports:
                        balance = -min(port_load.get(p, 0.0) for p in timing.ports)
                score = (freed - adds, heights[i], balance, -i)
                if best_score is None or score > best_score:
                    best, best_score = i, score
            i = best
            ready.remove(i)
            op = ops[i]
            if op.cls is not None:
                timing = ir.isa.timing(op.cls)
                if timing.ports:
                    slot = min(timing.ports, key=lambda p: port_load.get(p, 0.0))
                    port_load[slot] = port_load.get(slot, 0.0) + timing.rthroughput
            adds = 1 if op.dst >= 0 else 0
            peak = max(peak, live + adds)
            live += adds
            for s in reads[i]:
                remaining[s] -= 1
                if remaining[s] == 0:
                    live -= 1
            order.append(i)
            for j in graph.succs[i]:
                ndeps[j] -= 1
                if ndeps[j] == 0:
                    ready.append(j)
        if len(order) != n:  # pragma: no cover - defensive (cyclic IR)
            raise RuntimeError(f"segment {seg.name!r} could not be scheduled")
        ir_peak = len(external) + peak
        new_peak = min(seg.peak_live, ir_peak) if seg.peak_live else 0
        ir_spills = max(0, ir_peak - ir.isa.registers)
        new_spills = min(seg.spills, ir_spills)
        scheduled = IrSegment(
            name=seg.name,
            trip=seg.trip,
            ops=[ops[i] for i in order],
            peak_live=new_peak,
            spills=new_spills,
        )
        segments.append(scheduled)
    return ir.with_segments(segments)


# --------------------------------------------------------------------------- #
# hoist
# --------------------------------------------------------------------------- #
#: Opcodes safe to evaluate at build time: pure functions of their operands
#: (no memory traffic, no stage inputs).
_HOISTABLE_OPCODES = ("const", "shuf1", "shuf2", "mul", "add", "sub", "max", "fma")


def hoist_loop_invariants(ir: ScheduleIR) -> ScheduleIR:
    """Move block-invariant pure ops into the hoisted prologue.

    An op is invariant when it is pure (:data:`_HOISTABLE_OPCODES`) and every
    operand is defined in a ``once`` segment — or is itself hoisted.  Hoisted
    ops run once per sweep instead of once per block (the replay executor
    evaluates the prologue at compile time), so group-wise counts only
    shrink.

    The lowering already computes the stencil weights in the prologue, so on
    freshly lowered programs this is a safety net.
    """
    if not ir.segments or ir.segments[0].trip != "once":
        return ir
    once_defs: set = set()
    for seg in ir.segments:
        if seg.trip == "once":
            once_defs |= seg.defined()
    hoisted_ops: List[IrOp] = []
    hoisted: set = set()
    segments: List[IrSegment] = []
    for seg in ir.segments:
        if seg.trip == "once" or not seg.ops:
            segments.append(seg)
            continue
        kept: List[IrOp] = []
        for op in seg.ops:
            if (
                op.opcode in _HOISTABLE_OPCODES
                and op.dst >= 0
                and all(s in once_defs or s in hoisted for s in op.srcs)
            ):
                hoisted.add(op.dst)
                hoisted_ops.append(op)
            else:
                kept.append(op)
        segments.append(seg.with_ops(kept) if len(kept) != len(seg.ops) else seg)
    if not hoisted_ops:
        return ir
    prologue = segments[0].with_ops(list(segments[0].ops) + hoisted_ops)
    return ir.with_segments([prologue] + segments[1:])


# --------------------------------------------------------------------------- #
# pass manager
# --------------------------------------------------------------------------- #
_PASS_REGISTRY: Dict[str, Callable[[ScheduleIR], ScheduleIR]] = {
    "cse": common_subexpression_elimination,
    "coalesce": coalesce_shuffles,
    "fuse-fma": fuse_multiply_add,
    "dce": dead_code_elimination,
    "hoist": hoist_loop_invariants,
    "reschedule": reschedule_register_pressure,
}

#: Default pipeline order: merge and compose first (their orphans feed DCE),
#: clean up, hoist what became block-invariant, then re-schedule what is left
#: from the dependency graph.
DEFAULT_PASSES: Tuple[str, ...] = ("cse", "coalesce", "fuse-fma", "dce", "hoist", "reschedule")


def optimize_flag(optimize: Optional[bool]) -> bool:
    """Whether ``optimize=`` selects the :data:`DEFAULT_PASSES` pipeline.

    ``True`` does; ``False`` and ``None`` do not.  Any other value raises
    ``ValueError``: a chosen pass list runs through :class:`PassManager`.
    """
    if optimize is True or optimize is False or optimize is None:
        return optimize is True
    raise ValueError(
        f"optimize= must be True, False or None, not {optimize!r}; "
        "run chosen passes with PassManager(names).run(ir)"
    )


@dataclass(frozen=True)
class PassReport:
    """Static before/after accounting of one pass application."""

    name: str
    counts_before: InstructionCounts
    counts_after: InstructionCounts
    peak_before: int
    peak_after: int
    spills_before: int
    spills_after: int

    @property
    def removed(self) -> float:
        """Static instructions removed by the pass."""
        return self.counts_before.total - self.counts_after.total

    def describe(self) -> str:
        """One-line summary for ``explain()`` output."""
        delta = self.removed
        bits = [f"{self.name} {-delta:+g} ops" if delta else f"{self.name} ±0 ops"]
        if self.peak_after != self.peak_before:
            bits.append(f"peak {self.peak_before}→{self.peak_after}")
        if self.spills_after != self.spills_before:
            bits.append(f"spills {self.spills_before}→{self.spills_after}")
        return " ".join(bits)


class PassManager:
    """Runs a pass pipeline over a :class:`ScheduleIR` and reports deltas.

    ``passes`` is ``True`` (:data:`DEFAULT_PASSES`) or a sequence of
    registered pass names, applied in order.
    """

    def __init__(self, passes: Union[bool, Sequence[str]] = True):
        if passes is True:
            passes = DEFAULT_PASSES
        elif not isinstance(passes, (list, tuple)):
            raise TypeError(f"passes must be True or a sequence of pass names, not {passes!r}")
        resolved = []
        for p in passes:
            key = str(p).strip().lower()
            if key not in _PASS_REGISTRY:
                raise KeyError(
                    f"unknown IR pass {p!r}; known: {', '.join(sorted(_PASS_REGISTRY))}"
                )
            resolved.append((key, _PASS_REGISTRY[key]))
        self.passes = tuple(resolved)

    @staticmethod
    def _snapshot(ir: ScheduleIR) -> Tuple[InstructionCounts, int, int]:
        return ir.static_counts(), ir.peak_live, sum(seg.spills for seg in ir.segments)

    def run(self, ir: ScheduleIR) -> Tuple[ScheduleIR, Tuple[PassReport, ...]]:
        """Apply the pipeline; returns the optimized IR and per-pass reports."""
        reports: List[PassReport] = []
        for name, fn in self.passes:
            counts_before, peak_before, spills_before = self._snapshot(ir)
            ir = fn(ir)
            counts_after, peak_after, spills_after = self._snapshot(ir)
            reports.append(
                PassReport(
                    name=name,
                    counts_before=counts_before,
                    counts_after=counts_after,
                    peak_before=peak_before,
                    peak_after=peak_after,
                    spills_before=spills_before,
                    spills_after=spills_after,
                )
            )
        ir.validate()
        return ir, tuple(reports)
