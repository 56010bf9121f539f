"""Tests for the trace-compiled simulation backend (repro.ir replay).

The contract under test is strict: trace replay must be *bit-identical* to
the interpreted SIMD sweeps (not merely allclose) and must reproduce the
interpreted machine's instruction tally, peak register pressure and spill
count exactly, for every linear library stencil, both ISAs, and the grid
shapes the sweeps accept (including the degenerate single-block wraparound
cases).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import plan
from repro.core.vectorized_folding import FoldingSchedule
from repro.ir import CompiledSweep, TraceRecorder, compile_sweep
from repro.layout.transpose_layout import from_transpose_layout, to_transpose_layout
from repro.simd.isa import AVX2, AVX512
from repro.simd.machine import InstructionCounts, SimdMachine
from repro.stencils.grid import Grid
from repro.stencils.library import (
    box_1d5p,
    box_2d9p,
    box_3d27p,
    general_box_2d9p,
    heat_1d,
    heat_2d,
    heat_3d,
    symmetric_box_2d9p,
)

SPECS_1D = [heat_1d, box_1d5p]
SPECS_2D = [heat_2d, box_2d9p, symmetric_box_2d9p, general_box_2d9p]
SPECS_3D = [heat_3d, box_3d27p]
ISAS = [AVX2, AVX512]


def _assert_machine_equal(interp: SimdMachine, trace: SimdMachine) -> None:
    assert trace.counts.counts == interp.counts.counts
    assert trace.peak_live_registers == interp.peak_live_registers
    assert trace.spill_count == interp.spill_count


class TestBitIdentity1D:
    @pytest.mark.parametrize("spec_factory", SPECS_1D)
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    @pytest.mark.parametrize("nsets", [1, 3, 5])
    def test_replay_matches_interpreted_sweep(self, spec_factory, m, isa, nsets):
        sched = FoldingSchedule(spec_factory(), m)
        vl = isa.vector_lanes
        if sched.radius > vl:
            pytest.skip("folded radius exceeds vl")
        grid = Grid.random((nsets * vl * vl,), seed=7)
        data = to_transpose_layout(grid.values, vl)
        machine = SimdMachine(isa)
        ref = sched.simd_sweep_1d(machine, data.copy())
        compiled = compile_sweep(sched, isa)
        got = compiled.replay(data.copy())
        np.testing.assert_array_equal(got, ref)

    def test_multi_sweep_chain_is_bit_identical(self):
        sched = FoldingSchedule(heat_1d(), 2)
        grid = Grid.random((5 * 16,), seed=8)
        data_i = to_transpose_layout(grid.values, 4)
        data_t = data_i.copy()
        machine = SimdMachine(AVX2)
        compiled = compile_sweep(sched, AVX2)
        for _ in range(4):
            data_i = sched.simd_sweep_1d(machine, data_i)
            data_t = compiled.replay(data_t)
        np.testing.assert_array_equal(
            from_transpose_layout(data_t, 4), from_transpose_layout(data_i, 4)
        )


class TestBitIdentity2D:
    @pytest.mark.parametrize("spec_factory", SPECS_2D)
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_replay_matches_interpreted_sweep(self, spec_factory, m, isa):
        sched = FoldingSchedule(spec_factory(), m)
        vl = isa.vector_lanes
        grid = Grid.random((4 * vl, 3 * vl), seed=9)
        machine = SimdMachine(isa)
        ref = sched.simd_sweep_squares(machine, grid.values.copy())
        compiled = compile_sweep(sched, isa)
        got = compiled.replay(grid.values.copy())
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 4), (4, 8)])
    def test_degenerate_block_counts_wrap_identically(self, shape):
        """Single-block rows/columns make prev/cur/next alias — still exact."""
        sched = FoldingSchedule(heat_2d(), 2)
        grid = Grid.random(shape, seed=10)
        ref = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        got = compile_sweep(sched, AVX2).replay(grid.values.copy())
        np.testing.assert_array_equal(got, ref)

    def test_dead_stage_inputs_are_pruned(self):
        """Unconsumed cross-stage inputs (interior prev/next columns) are
        dropped at compile time so replay never materializes rolled copies
        nobody reads — without affecting results."""
        compiled = compile_sweep(FoldingSchedule(box_2d9p(), 2), AVX512)
        live_inputs = [
            step[0] for step in compiled._horizontal_prog.steps if step[0].opcode == "input"
        ]
        recorded_inputs = [
            op for op in compiled.ir.segment("horizontal").ops if op.opcode == "input"
        ]
        assert len(live_inputs) < len(recorded_inputs)
        grid = Grid.random((16, 16), seed=22)
        ref = FoldingSchedule(box_2d9p(), 2).simd_sweep_squares(
            SimdMachine(AVX512), grid.values.copy()
        )
        np.testing.assert_array_equal(compiled.replay(grid.values.copy()), ref)


class TestBitIdentity3D:
    @pytest.mark.parametrize("spec_factory", SPECS_3D)
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_replay_matches_interpreted_sweep(self, spec_factory, m, isa):
        sched = FoldingSchedule(spec_factory(), m)
        vl = isa.vector_lanes
        grid = Grid.random((5, 2 * vl, 3 * vl), seed=23)
        machine = SimdMachine(isa)
        ref = sched.simd_sweep_squares(machine, grid.values.copy())
        compiled = compile_sweep(sched, isa)
        got = compiled.replay(grid.values.copy())
        np.testing.assert_array_equal(got, ref)

    def test_combination_counterparts_bit_identical(self, combination_3d):
        """A combination counterpart with both reuse coefficients and a
        bias — the full vertical-fold surface."""
        sched = FoldingSchedule(combination_3d, 1)
        assert any(cp.mode == "combination" and cp.omega for cp in sched.materialized)
        grid = Grid.random((4, 8, 8), seed=24)
        ref = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        got = compile_sweep(sched, AVX2).replay(grid.values.copy())
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 8), (3, 8, 4)])
    def test_degenerate_block_counts_wrap_identically(self, shape):
        """Single-plane / single-block grids make prev/cur/next alias — still exact."""
        sched = FoldingSchedule(heat_3d(), 2)
        grid = Grid.random(shape, seed=25)
        ref = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        got = compile_sweep(sched, AVX2).replay(grid.values.copy())
        np.testing.assert_array_equal(got, ref)


class TestCountIdentity:
    @pytest.mark.parametrize("spec_factory,m", [(heat_1d, 2), (box_1d5p, 1)])
    def test_1d_counts_match_interpreted(self, spec_factory, m):
        sched = FoldingSchedule(spec_factory(), m)
        data = to_transpose_layout(Grid.random((3 * 16,), seed=12).values, 4)
        machine = SimdMachine(AVX2)
        sched.simd_sweep_1d(machine, data.copy())
        compiled = compile_sweep(sched, AVX2)
        counts, peak, spills = compiled.sweep_counts(data.size)
        assert counts.counts == machine.counts.counts
        assert peak == machine.peak_live_registers
        assert spills == machine.spill_count

    @pytest.mark.parametrize("spec_factory", SPECS_2D)
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_2d_counts_match_interpreted(self, spec_factory, isa):
        sched = FoldingSchedule(spec_factory(), 2)
        vl = isa.vector_lanes
        grid = Grid.random((3 * vl, 4 * vl), seed=13)
        machine = SimdMachine(isa)
        sched.simd_sweep_squares(machine, grid.values.copy())
        compiled = compile_sweep(sched, isa)
        counts, peak, spills = compiled.sweep_counts(grid.values.shape)
        assert counts.counts == machine.counts.counts
        assert peak == machine.peak_live_registers
        assert spills == machine.spill_count

    @pytest.mark.parametrize("spec_factory", SPECS_3D)
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    @pytest.mark.parametrize("m", [1, 2])
    def test_3d_counts_match_interpreted(self, spec_factory, isa, m):
        sched = FoldingSchedule(spec_factory(), m)
        vl = isa.vector_lanes
        grid = Grid.random((3, 2 * vl, 3 * vl), seed=27)
        machine = SimdMachine(isa)
        sched.simd_sweep_squares(machine, grid.values.copy())
        compiled = compile_sweep(sched, isa)
        counts, peak, spills = compiled.sweep_counts(grid.values.shape)
        assert counts.counts == machine.counts.counts
        assert peak == machine.peak_live_registers
        assert spills == machine.spill_count

    def test_spills_are_charged(self):
        """GB at m=2 exceeds the 16 AVX-2 registers, so spills must appear."""
        sched = FoldingSchedule(general_box_2d9p(), 2)
        compiled = compile_sweep(sched, AVX2)
        counts, peak, spills = compiled.sweep_counts((16, 16))
        assert peak > AVX2.registers
        assert spills > 0


class TestPlanBackend:
    @pytest.mark.parametrize("case", ["1d", "2d", "3d"])
    def test_simulate_backends_agree_exactly(self, case):
        if case == "1d":
            p = plan(heat_1d()).method("folded").unroll(2).compile()
            grid = Grid.random((5 * 16,), seed=14)
        elif case == "2d":
            p = plan(box_2d9p()).method("folded").unroll(2).compile()
            grid = Grid.random((16, 16), seed=14)
        else:
            p = plan(heat_3d()).method("folded").unroll(2).compile()
            grid = Grid.random((4, 8, 8), seed=14)
        m_interp, m_trace = SimdMachine(AVX2), SimdMachine(AVX2)
        ref, _ = p.simulate(grid, 4, machine=m_interp, backend="interpret")
        got, _ = p.simulate(grid, 4, machine=m_trace, backend="trace")
        np.testing.assert_array_equal(got, ref)
        _assert_machine_equal(m_interp, m_trace)

    def test_default_backend_is_trace(self):
        """simulate() without arguments must match both backends exactly."""
        p = plan(heat_2d()).method("folded").unroll(2).compile()
        grid = Grid.random((16, 16), seed=15)
        default_out, default_counts = p.simulate(grid, 2)
        trace_out, trace_counts = p.simulate(grid, 2, backend="trace")
        np.testing.assert_array_equal(default_out, trace_out)
        assert default_counts.counts == trace_counts.counts

    def test_counts_accumulate_across_calls_like_interpreted(self):
        p = plan(heat_1d()).method("folded").unroll(2).compile()
        grid = Grid.random((3 * 16,), seed=16)
        m_interp, m_trace = SimdMachine(AVX2), SimdMachine(AVX2)
        for _ in range(3):
            p.simulate(grid, 4, machine=m_interp, backend="interpret")
            p.simulate(grid, 4, machine=m_trace, backend="trace")
        _assert_machine_equal(m_interp, m_trace)

    def test_transpose_method_simulates_via_trace(self):
        p = plan(heat_1d()).method("transpose").compile()
        grid = Grid.random((64,), seed=17)
        ref, _ = p.simulate(grid, 3, backend="interpret")
        got, counts = p.simulate(grid, 3)
        np.testing.assert_array_equal(got, ref)
        assert counts.total > 0

    def test_avx512_machine_override(self):
        p = plan(heat_2d()).method("folded").unroll(2).isa("avx2").compile()
        grid = Grid.random((16, 16), seed=18)
        m_interp, m_trace = SimdMachine(AVX512), SimdMachine(AVX512)
        ref, _ = p.simulate(grid, 2, machine=m_interp, backend="interpret")
        got, _ = p.simulate(grid, 2, machine=m_trace, backend="trace")
        np.testing.assert_array_equal(got, ref)
        _assert_machine_equal(m_interp, m_trace)

    def test_compiled_trace_is_cached_on_the_schedule(self):
        p = plan(heat_1d()).method("folded").unroll(2).compile()
        grid = Grid.random((3 * 16,), seed=19)
        p.simulate(grid, 2)
        first = p.schedule.built(("trace", "avx2", False))
        p.simulate(grid, 4)
        fresh = plan(heat_1d()).method("folded").unroll(2).compile()
        fresh.simulate(grid, 2)
        assert fresh.schedule.built(("trace", "avx2", False)) is first

    def test_zero_sweeps_leave_machine_untouched(self):
        p = plan(heat_1d()).method("folded").unroll(2).compile()
        grid = Grid.random((3 * 16,), seed=20)
        machine = SimdMachine(AVX2)
        out, counts = p.simulate(grid, 0, machine=machine)
        np.testing.assert_array_equal(out, grid.values)
        assert counts.total == 0

    def test_unknown_backend_rejected(self):
        p = plan(heat_1d()).method("folded").unroll(2).compile()
        with pytest.raises(ValueError, match="backend"):
            p.simulate(Grid.random((48,), seed=21), 2, backend="jit")


class TestValidation:
    def test_3d_schedules_compile(self):
        compiled = compile_sweep(FoldingSchedule(box_3d27p(), 1), AVX2)
        assert isinstance(compiled, CompiledSweep)
        assert compiled.dims == 3

    def test_grid_dimensionality_mismatch_rejected(self):
        """A compiled sweep only replays grids of its schedule's dimensionality."""
        compiled2 = compile_sweep(FoldingSchedule(heat_2d(), 1), AVX2)
        with pytest.raises(ValueError, match="2-D"):
            compiled2.replay(np.zeros((4, 16, 16)))
        compiled3 = compile_sweep(FoldingSchedule(heat_3d(), 1), AVX2)
        with pytest.raises(ValueError, match="3-D"):
            compiled3.replay(np.zeros((16, 16)))

    def test_radius_exceeding_vl_rejected(self):
        # 1d5p has radius 2; m=3 folds to radius 6 > vl=4.
        with pytest.raises(ValueError, match="radius"):
            compile_sweep(FoldingSchedule(box_1d5p(), 3), AVX2)

    def test_bad_grid_shapes_rejected(self):
        compiled1 = compile_sweep(FoldingSchedule(heat_1d(), 1), AVX2)
        with pytest.raises(ValueError, match="multiple"):
            compiled1.replay(np.zeros(30))
        compiled2 = compile_sweep(FoldingSchedule(heat_2d(), 1), AVX2)
        with pytest.raises(ValueError, match="multiple"):
            compiled2.replay(np.zeros((15, 16)))
        with pytest.raises(ValueError, match="2-D"):
            compiled2.replay(np.zeros(64))
        compiled3 = compile_sweep(FoldingSchedule(heat_3d(), 1), AVX2)
        with pytest.raises(ValueError, match="multiple"):
            compiled3.replay(np.zeros((4, 15, 16)))
        with pytest.raises(ValueError, match="3-D"):
            compiled3.replay(np.zeros((16, 16)))

    def test_recorder_rejects_untagged_memory_traffic(self):
        rec = TraceRecorder(AVX2)
        rec.begin_segment("s")
        with pytest.raises(RuntimeError, match="emit_load"):
            rec.load(np.zeros(16), 0)
        with pytest.raises(RuntimeError, match="emit_store"):
            rec.store(rec.broadcast(1.0), np.zeros(16), 0)

    def test_recorder_requires_a_segment(self):
        with pytest.raises(RuntimeError, match="begin_segment"):
            TraceRecorder(AVX2).broadcast(1.0)


class TestAbsorb:
    def test_absorb_merges_counts_and_pressure(self):
        from repro.simd.isa import InstructionClass

        machine = SimdMachine(AVX2)
        machine.absorb(InstructionCounts(), peak_live=0, spills=0.0)
        assert machine.counts.total == 0
        tally = InstructionCounts()
        tally.add(InstructionClass.FMA, 10)
        machine.absorb(tally, peak_live=20, spills=2.0)
        assert machine.counts.get(InstructionClass.FMA) == 10
        assert machine.peak_live_registers == 20
        assert machine.spill_count == 2.0
