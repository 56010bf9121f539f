"""Tests for the dependency-graph layer and the ``hoist`` pass.

Covers the contract of :mod:`repro.ir.dependency`:

* the :class:`MemoryRef` alias model — distinct spaces never alias
  (double-buffered replay), known tag families alias only on an exact
  family+offset match, unknown tags alias conservatively,
* :class:`DependencyGraph` construction — def-use edges, memory edges only
  where the alias analysis cannot prove independence, and latency heights,

and that ``hoist`` moves loop-invariant work into the prologue without
changing the replayed values.
"""

from __future__ import annotations

import pytest

from repro.core.vectorized_folding import FoldingSchedule
from repro.ir import PassManager, lower_schedule
from repro.ir.dependency import DependencyGraph, MemoryRef
from repro.ir.ops import IrOp, IrSegment, ScheduleIR
from repro.simd.isa import AVX2, InstructionClass
from repro.stencils.library import heat_1d, heat_3d


def _op(opcode, dst, srcs=(), imm=None, tag=None, cls=None, lanes=4):
    return IrOp(opcode=opcode, dst=dst, srcs=tuple(srcs), imm=imm, tag=tag, cls=cls, lanes=lanes)


def _mini_ir(ops, nregs=16):
    seg = IrSegment(name="block", trip="block", ops=list(ops), peak_live=4, spills=0)
    return ScheduleIR(isa=AVX2, dims=1, m=1, nregs=nregs, segments=[seg]), seg


class TestMemoryRef:
    def test_non_memory_ops_have_no_ref(self):
        assert MemoryRef.from_op(_op("add", 2, (0, 1), cls=InstructionClass.ARITH)) is None
        assert MemoryRef.from_op(_op("input", 3, tag=("vt", 0, 0, 1))) is None

    def test_spaces_follow_opcode(self):
        load = MemoryRef.from_op(_op("load", 0, tag=("set", 0, 1), cls=InstructionClass.LOAD))
        store = MemoryRef.from_op(_op("store", -1, (0,), tag=("set", 1), cls=InstructionClass.STORE))
        assert load.space == "in" and load.family == "set" and load.offset == (0, 1)
        assert store.space == "out" and store.offset == (1,)

    def test_distinct_spaces_never_alias(self):
        # Same family, same offset — but double buffering separates them.
        load = MemoryRef("in", "set", (0,))
        store = MemoryRef("out", "set", (0,))
        assert not load.may_alias(store)
        assert not store.may_alias(load)

    def test_same_family_same_offset_aliases(self):
        a = MemoryRef("out", "out_row", (2,))
        b = MemoryRef("out", "out_row", (2,))
        assert a.may_alias(b)

    def test_provably_distinct_offsets_do_not_alias(self):
        a = MemoryRef("out", "out_row", (0,))
        b = MemoryRef("out", "out_row", (1,))
        assert not a.may_alias(b)
        # Different families in one space are distinct index spaces too.
        assert not MemoryRef("in", "set", (0, 1)).may_alias(MemoryRef("in", "row", (0, 1)))

    def test_unknown_tag_aliases_conservatively(self):
        unknown = MemoryRef.from_op(_op("store", -1, (0,), tag="opaque", cls=InstructionClass.STORE))
        assert unknown.family is None and unknown.offset is None
        assert unknown.may_alias(MemoryRef("out", "out_row", (5,)))
        assert MemoryRef("out", "out_row", (5,)).may_alias(unknown)
        assert not unknown.may_alias(MemoryRef("in", "set", (0,)))


class TestDependencyGraphSynthetic:
    def test_def_use_edges_and_ready_set(self):
        ir, seg = _mini_ir(
            [
                _op("load", 0, tag=("set", 0, 0), cls=InstructionClass.LOAD),
                _op("load", 1, tag=("set", 0, 1), cls=InstructionClass.LOAD),
                _op("add", 2, (0, 1), cls=InstructionClass.ARITH),
                _op("store", -1, (2,), tag=("set", 0), cls=InstructionClass.STORE),
            ]
        )
        g = DependencyGraph(ir, seg)
        # load/store touch distinct spaces and load/load pairs are skipped,
        # so the def-use edges are all there is.
        assert g.preds == [[], [], [0, 1], [2]]
        assert g.succs == [[2], [2], [3], []]
        assert [i for i, preds in enumerate(g.preds) if not preds] == [0, 1]

    def test_aliasing_stores_get_an_edge_distinct_do_not(self):
        ir, seg = _mini_ir(
            [
                _op("const", 0, imm=1.0, cls=InstructionClass.BROADCAST),
                _op("store", -1, (0,), tag=("out_row", 0), cls=InstructionClass.STORE),
                _op("store", -1, (0,), tag=("out_row", 1), cls=InstructionClass.STORE),
                _op("store", -1, (0,), tag=("out_row", 0), cls=InstructionClass.STORE),
            ]
        )
        g = DependencyGraph(ir, seg)
        # Only the two ("out_row", 0) stores alias; the other two store
        # pairs are proven independent and get no edge.
        assert g.preds[1] == [0]
        assert g.preds[2] == [0]
        assert g.preds[3] == [0, 1]

    def test_unknown_tag_forces_conservative_edges(self):
        ir, seg = _mini_ir(
            [
                _op("const", 0, imm=1.0, cls=InstructionClass.BROADCAST),
                _op("store", -1, (0,), tag=("out_row", 0), cls=InstructionClass.STORE),
                _op("store", -1, (0,), tag="mystery", cls=InstructionClass.STORE),
                _op("store", -1, (0,), tag=("out_row", 1), cls=InstructionClass.STORE),
            ]
        )
        g = DependencyGraph(ir, seg)
        assert g.preds[2] == [0, 1]
        assert g.preds[3] == [0, 2]

    def test_heights_and_critical_path(self):
        ir, seg = _mini_ir(
            [
                _op("load", 0, tag=("set", 0, 0), cls=InstructionClass.LOAD),  # lat 5
                _op("add", 1, (0, 0), cls=InstructionClass.ARITH),  # lat 4
                _op("add", 2, (1, 1), cls=InstructionClass.ARITH),  # lat 4
                _op("const", 9, imm=0.0, cls=InstructionClass.BROADCAST),  # independent
            ]
        )
        g = DependencyGraph(ir, seg)
        h = g.heights()
        assert h[0] == pytest.approx(13.0)  # 5 + 4 + 4
        assert h[2] == pytest.approx(4.0)
        assert max(h) == pytest.approx(13.0)  # the longest chain
        # Recorded order must already be topological: edges point forward.
        for i, preds in enumerate(g.preds):
            assert all(j < i for j in preds)


class TestHoist:
    def test_hoist_moves_invariants_into_prologue(self):
        """A loop-invariant op (all operands defined in the prologue) moves
        out of the steady segment; replay values are unchanged."""
        from repro.ir.passes import hoist_loop_invariants

        ir = lower_schedule(FoldingSchedule(heat_3d(), 3), AVX2)
        # Seed a synthetic invariant: an arithmetic op over two prologue regs.
        prologue = ir.segments[0]
        steady = ir.segments[1]
        a, b = prologue.ops[0].dst, prologue.ops[1].dst
        extra = _op("add", ir.nregs, (a, b), cls=InstructionClass.ARITH, lanes=ir.vl)
        seeded = ir.with_segments(
            [prologue, steady.with_ops([extra] + list(steady.ops))] + list(ir.segments[2:])
        )
        seeded = type(ir)(
            isa=seeded.isa,
            dims=seeded.dims,
            m=seeded.m,
            nregs=ir.nregs + 1,
            segments=seeded.segments,
            vt_out=seeded.vt_out,
            source=seeded.source,
        )
        hoisted = hoist_loop_invariants(seeded)
        assert extra in hoisted.segments[0].ops
        assert extra not in hoisted.segments[1].ops

    def test_hoist_is_noop_on_already_clean_ir(self):
        ir = lower_schedule(FoldingSchedule(heat_1d(), 2), AVX2)
        opt = PassManager(("hoist",)).run(ir)[0]
        # Nothing to hoist in the raw lowering: the pass returns the program
        # unchanged (same object, not a rebuilt copy).
        assert opt is ir
