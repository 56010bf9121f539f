"""Tests for the typed schedule IR and its optimizing pass pipeline (repro.ir).

The contract under test:

* lowering produces a structurally valid, fully typed program whose derived
  accounting reproduces the interpreted machine exactly,
* every pass — and the whole default pipeline — preserves *bit-identical*
  replay across every linear library stencil and both ISAs, while never
  increasing any instruction-class group, the register pressure or the
  spill charges,
* the one store layout returns every 2-D and 3-D square to row
  orientation, so replay agrees with the NumPy reference,
* the optimized program yields its own (strictly smaller) counts for the
  folded schedules,
* the plan API exposes both variants (``simulate(optimize=...)``) with
  side-by-side caching, and the cost-model profile equals the optimized
  IR's steady state (estimated == simulated, no drift),
* integral instruction counts stay integral end to end,
* every library configuration lowers to the raw program recorded in
  ``golden_raw_programs.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.plan import plan
from repro.core.regression import clear_counterpart_cache
from repro.core.vectorized_folding import FoldingSchedule
from repro.ir import (
    DEFAULT_PASSES,
    IrSegment,
    PassManager,
    compile_sweep,
    lower_schedule,
)
from repro.layout.transpose_layout import to_transpose_layout
from repro.methods import build_profile
from repro.simd.isa import AVX2, AVX512, InstructionClass
from repro.simd.machine import InstructionCounts, SimdMachine
from repro.stencils.grid import Grid
from repro.stencils.library import BENCHMARKS, box_1d5p, box_2d9p, heat_1d, heat_3d
from repro.stencils.reference import reference_run
from repro.study.hashing import config_hash

#: Every registered linear library stencil (the non-linear ones cannot fold).
LINEAR_KEYS = tuple(key for key, case in BENCHMARKS.items() if case.spec.linear)
ISAS = [AVX2, AVX512]


def _schedule_inputs(spec, isa, m=2, seed=5):
    """(schedule, grid values, interpreted-input, shape-key) or None if unlowerable."""
    sched = FoldingSchedule(spec, m)
    vl = isa.vector_lanes
    if sched.radius > vl:
        return None
    if sched.dims == 1:
        grid = Grid.random((3 * vl * vl,), seed=seed)
        data = to_transpose_layout(grid.values, vl)
        return sched, data, data.size
    if sched.dims == 2:
        grid = Grid.random((2 * vl, 3 * vl), seed=seed)
    else:
        grid = Grid.random((3, 2 * vl, 2 * vl), seed=seed)
    return sched, grid.values, grid.values.shape


def _interpret(sched, machine, values):
    if sched.dims == 1:
        return sched.simd_sweep_1d(machine, values.copy())
    return sched.simd_sweep_squares(machine, values.copy())


class TestLoweringStructure:
    def test_segments_are_typed_and_valid(self):
        ir = lower_schedule(FoldingSchedule(box_2d9p(), 2), AVX2)
        ir.validate()
        assert [seg.trip for seg in ir.segments] == ["once", "vertical", "horizontal"]
        for seg in ir.segments:
            for op in seg.ops:
                assert op.lanes == ir.vl
                if op.opcode == "input":
                    assert op.cls is None
                else:
                    assert isinstance(op.cls, InstructionClass)
                if op.is_memory:
                    assert op.tag is not None

    def test_1d_block_axes_and_trips(self):
        ir = lower_schedule(FoldingSchedule(heat_1d(), 2), AVX2)
        assert [seg.trip for seg in ir.segments] == ["once", "block"]
        assert ir.block_axes(3 * 16) == (3,)
        assert ir.trip_counts(3 * 16) == {"once": 1, "block": 3}

    def test_2d_is_a_single_plane(self):
        ir = lower_schedule(FoldingSchedule(box_2d9p(), 2), AVX2)
        assert ir.block_axes((8, 12)) == (1, 2, 3)
        assert ir.trip_counts((8, 12))["vertical"] == 1 * 2 * (3 + 2)

    def test_sweep_counts_reproduce_interpreted_machine(self):
        for isa in ISAS:
            bundle = _schedule_inputs(heat_3d(), isa)
            sched, values, shape = bundle
            machine = SimdMachine(isa)
            _interpret(sched, machine, values)
            counts, peak, spills = lower_schedule(sched, isa).sweep_counts(shape)
            assert counts.counts == machine.counts.counts
            assert peak == machine.peak_live_registers
            assert spills == machine.spill_count

    def test_validate_rejects_double_definition(self):
        ir = lower_schedule(FoldingSchedule(heat_1d(), 2), AVX2)
        seg = ir.segments[1]
        broken = ir.with_segments([ir.segments[0], seg.with_ops(seg.ops + [seg.ops[0]])])
        with pytest.raises(ValueError, match="defined twice"):
            broken.validate()

    @pytest.mark.parametrize("trip", ["prime", "pipelined"])
    def test_validate_rejects_unknown_trip_roles(self, trip):
        ir = lower_schedule(FoldingSchedule(box_2d9p(), 2), AVX2)
        vertical = ir.segments[1]
        renamed = IrSegment(vertical.name, trip, vertical.ops, vertical.peak_live, vertical.spills)
        broken = ir.with_segments([ir.segments[0], renamed, ir.segments[2]])
        with pytest.raises(ValueError, match=f"unknown trip role '{trip}'"):
            broken.validate()

    def test_radius_beyond_vl_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            lower_schedule(FoldingSchedule(box_1d5p(), 3), AVX2)


class TestEquivalenceAcrossLibrary:
    """Optimized replay is bit-identical to interpreted execution for every
    linear library stencil × ISA, it stores rows that agree with the NumPy
    reference, and the optimized counts never exceed the unoptimized ones
    group-wise."""

    @pytest.mark.parametrize("key", LINEAR_KEYS)
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_optimized_replay_bit_identical_and_cheaper(self, key, isa):
        spec = BENCHMARKS[key].spec
        bundle = _schedule_inputs(spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, shape = bundle
        machine = SimdMachine(isa)
        ref = _interpret(sched, machine, values)

        base = compile_sweep(sched, isa)
        opt = compile_sweep(sched, isa, optimize=True)
        np.testing.assert_array_equal(base.replay(values.copy()), ref)
        np.testing.assert_array_equal(opt.replay(values.copy()), ref)

        base_counts, base_peak, base_spills = base.sweep_counts(shape)
        opt_counts, opt_peak, opt_spills = opt.sweep_counts(shape)
        assert base_counts.counts == machine.counts.counts
        # Group-wise monotonicity (FMA fusion may shift ARITH into FMA, so
        # classes are compared as the model's resource groups).
        assert opt_counts.arithmetic <= base_counts.arithmetic
        assert opt_counts.data_organization <= base_counts.data_organization
        assert opt_counts.memory <= base_counts.memory
        assert opt_peak <= base_peak
        assert opt_spills <= base_spills
        # The folded schedules always leave the pipeline something to remove.
        assert opt_counts.total < base_counts.total

    @pytest.mark.parametrize("key", [k for k in LINEAR_KEYS if BENCHMARKS[k].spec.dims > 1])
    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_row_store_matches_reference(self, key, isa):
        """The weighted transpose stores every square in row orientation, so
        raw and optimized replay agree with ``reference_run`` on the grid as
        given; a square stored transposed would not."""
        spec = BENCHMARKS[key].spec
        bundle = _schedule_inputs(spec, isa)
        if bundle is None:
            pytest.skip("folded radius exceeds the vector length")
        sched, values, _shape = bundle
        ref = reference_run(spec, Grid(values=values), sched.m)
        for optimize in (False, True):
            got = compile_sweep(sched, isa, optimize=optimize).replay(values.copy())
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_combination_counterparts_survive_fusion(self, combination_3d):
        """Combination counterparts (mul+add chains) — the multiply–add
        fusion's main target."""
        sched = FoldingSchedule(combination_3d, 1)
        assert any(cp.mode == "combination" and cp.omega for cp in sched.materialized)
        grid = Grid.random((4, 8, 8), seed=24)
        ref = sched.simd_sweep_squares(SimdMachine(AVX2), grid.values.copy())
        base = compile_sweep(sched, AVX2)
        opt = compile_sweep(sched, AVX2, optimize=True)
        np.testing.assert_array_equal(opt.replay(grid.values.copy()), ref)
        base_counts, _, _ = base.sweep_counts(grid.values.shape)
        opt_counts, _, _ = opt.sweep_counts(grid.values.shape)
        assert opt_counts.get(InstructionClass.ARITH) < base_counts.get(InstructionClass.ARITH)
        assert opt_counts.arithmetic < base_counts.arithmetic

    def test_multi_sweep_chain_stays_bit_identical(self):
        sched = FoldingSchedule(heat_1d(), 2)
        grid = Grid.random((5 * 16,), seed=8)
        data_i = to_transpose_layout(grid.values, 4)
        data_o = data_i.copy()
        machine = SimdMachine(AVX2)
        opt = compile_sweep(sched, AVX2, optimize=True)
        for _ in range(4):
            data_i = sched.simd_sweep_1d(machine, data_i)
            data_o = opt.replay(data_o)
        np.testing.assert_array_equal(data_o, data_i)


class TestIndividualPasses:
    def test_cse_merges_duplicate_broadcasts(self):
        ir = lower_schedule(FoldingSchedule(box_2d9p(), 2), AVX2)
        opt, reports = PassManager(("cse",)).run(ir)
        before = ir.segments[0].op_counts().get(InstructionClass.BROADCAST)
        after = opt.segments[0].op_counts().get(InstructionClass.BROADCAST)
        assert after < before
        assert reports[0].removed == before - after

    def test_coalesce_fuses_blend_rotate_on_avx512(self):
        """The 1-D assembled cross-block operands (blend + rotate) coalesce
        into single two-source permutes where the ISA has vpermt2pd."""
        sched = FoldingSchedule(heat_1d(), 2)
        for isa, expect_gain in ((AVX512, True), (AVX2, False)):
            ir = lower_schedule(sched, isa)
            opt, _ = PassManager(("coalesce", "dce")).run(ir)
            base = ir.segment("block").op_counts()
            best = opt.segment("block").op_counts()
            if expect_gain:
                assert best.data_organization < base.data_organization
                assert best.get(InstructionClass.BLEND) < base.get(InstructionClass.BLEND)
            else:
                assert best.data_organization == base.data_organization

    def test_dce_drops_dead_stage_inputs(self):
        ir = lower_schedule(FoldingSchedule(box_2d9p(), 2), AVX512)
        opt, _ = PassManager(("dce",)).run(ir)

        def n_inputs(program):
            ops = program.segment("horizontal").ops
            return sum(1 for op in ops if op.opcode == "input")

        assert n_inputs(opt) < n_inputs(ir)

    def test_reschedule_removes_phantom_spills(self):
        """1D5P folded twice exceeds the AVX-2 registers under the recorded
        conservative liveness; after CSE shrinks the held weight set, the
        re-scheduler proves the schedule actually fits."""
        ir = lower_schedule(FoldingSchedule(box_1d5p(), 2), AVX2)
        assert ir.segment("block").spills > 0
        opt, reports = PassManager(True).run(ir)
        assert opt.segment("block").spills == 0
        assert opt.segment("block").peak_live <= AVX2.registers
        assert reports[-1].spills_after < reports[-1].spills_before

    def test_reschedule_never_worsens_recorded_pressure(self):
        for key in LINEAR_KEYS:
            bundle = _schedule_inputs(BENCHMARKS[key].spec, AVX2)
            if bundle is None:
                continue
            sched, _values, _shape = bundle
            ir = lower_schedule(sched, AVX2)
            opt, _ = PassManager(("reschedule",)).run(ir)
            for seg_b, seg_o in zip(ir.segments, opt.segments):
                assert seg_o.peak_live <= seg_b.peak_live
                assert seg_o.spills <= seg_b.spills

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError, match="unknown IR pass"):
            PassManager(("loop-unroll",))

    def test_pass_reports_cover_pipeline(self):
        compiled = compile_sweep(FoldingSchedule(heat_1d(), 2), AVX512, optimize=True)
        assert tuple(r.name for r in compiled.pass_reports) == DEFAULT_PASSES


class TestPlanIntegration:
    def test_simulate_optimize_bit_identical_with_smaller_counts(self):
        p = plan("2d9p").method("folded").unroll(2).compile()
        grid = Grid.random((16, 16), seed=14)
        ref, _ = p.simulate(grid, 4, backend="interpret")
        m_base, m_opt = SimdMachine(AVX2), SimdMachine(AVX2)
        base, _ = p.simulate(grid, 4, machine=m_base)
        opt, _ = p.simulate(grid, 4, machine=m_opt, optimize=True)
        np.testing.assert_array_equal(base, ref)
        np.testing.assert_array_equal(opt, ref)
        assert m_opt.counts.total < m_base.counts.total

    def test_both_variants_cached_side_by_side(self):
        p = plan("1d-heat").method("folded").unroll(2).compile()
        grid = Grid.random((3 * 16,), seed=19)
        p.simulate(grid, 2)
        p.simulate(grid, 2, optimize=True)
        assert p.schedule.built(("trace", "avx2", False)) is not (
            p.schedule.built(("trace", "avx2", True))
        )
        first = p.schedule.built(("trace", "avx2", True))
        p.simulate(grid, 4, optimize=True)
        assert p.schedule.built(("trace", "avx2", True)) is first
        assert first.pass_reports and tuple(r.name for r in first.pass_reports) == DEFAULT_PASSES

    def test_none_means_no_optimization(self):
        clear_counterpart_cache()
        p = plan("1d-heat").method("folded").unroll(2).compile()
        grid = Grid.random((3 * 16,), seed=22)
        ref, _ = p.simulate(grid, 2, backend="interpret")
        out, _ = p.simulate(grid, 2, backend="interpret", optimize=None)
        np.testing.assert_array_equal(out, ref)
        p.simulate(grid, 2, optimize=None)
        assert set(p.schedule._derived) == {("trace", "avx2", False)}

    def test_legacy_constructor_misuse_gets_clear_error(self):
        from repro.ir import CompiledSweep

        with pytest.raises(TypeError, match="compile_sweep"):
            CompiledSweep(FoldingSchedule(heat_1d(), 2), AVX2)

    def test_optimize_with_interpret_backend_rejected(self):
        p = plan("1d-heat").method("folded").unroll(2).compile()
        with pytest.raises(ValueError, match="trace and kernel backends"):
            p.simulate(Grid.random((48,), seed=1), 2, backend="interpret", optimize=True)

    def test_explain_reports_pass_deltas(self):
        text = plan("2d9p").method("folded").unroll(2).compile().explain()
        assert "ir pipeline" in text
        assert "static ops" in text

    def test_profile_equals_optimized_ir_steady_state(self):
        """'Estimated' and 'simulated' counts come from the same IR.

        Applies to the stencils whose folding is arithmetically profitable —
        the others degenerate to the in-register multi-step fallback, which
        has no register-level schedule to lower.
        """
        from repro.core.folding import arithmetically_profitable

        checked = 0
        for key in LINEAR_KEYS:
            spec = BENCHMARKS[key].spec
            if not arithmetically_profitable(spec, 2):
                continue
            if FoldingSchedule(spec, 2).radius > 4:
                continue
            checked += 1
            profile = build_profile("folded", spec, isa="avx2", m=2)
            sched = FoldingSchedule(spec, 2)
            ir = sched.schedule_ir(4, optimize=True)
            expected = ir.steady_counts_per_point()
            from repro.baselines.common import post_rule_counts

            expected = expected.merge(post_rule_counts(spec, 4))
            assert profile.counts_per_point.counts == expected.counts
        assert checked >= 3


class TestIntegralCounts:
    def test_interpreted_counts_stay_integral(self):
        p = plan("2d9p").method("folded").unroll(2).compile()
        machine = SimdMachine(AVX2)
        p.simulate(Grid.random((16, 16), seed=2), 2, machine=machine, backend="interpret")
        assert all(isinstance(v, int) for v in machine.counts.counts.values())

    def test_trace_counts_round_trip_integrally_through_absorb(self):
        """scaled()/merge() by whole factors must not leak floats (the bug
        this PR fixes): trace accounting scales per-segment tallies by block
        counts and absorbs them into the machine."""
        p = plan("3d-heat").method("folded").unroll(2).compile()
        m_trace, m_interp = SimdMachine(AVX2), SimdMachine(AVX2)
        grid = Grid.random((3, 8, 8), seed=3)
        p.simulate(grid, 4, machine=m_trace)
        p.simulate(grid, 4, machine=m_interp, backend="interpret")
        assert m_trace.counts.counts == m_interp.counts.counts
        assert all(isinstance(v, int) for v in m_trace.counts.counts.values())
        assert isinstance(m_trace.counts.total, int)

    def test_scaled_and_merge_semantics(self):
        counts = InstructionCounts()
        counts.add(InstructionClass.FMA, 10)
        doubled = counts.scaled(2.0).merge(counts.scaled(3))
        assert doubled.counts[InstructionClass.FMA] == 50
        assert isinstance(doubled.counts[InstructionClass.FMA], int)
        fractional = counts.scaled(0.5)
        assert fractional.counts[InstructionClass.FMA] == pytest.approx(5.0)
        assert isinstance(fractional.counts[InstructionClass.FMA], float)


class TestPassAlgebra:
    """Algebraic invariants of the registered passes.

    Every registered pass is idempotent: running it on its own output is a
    no-op.  Order-independence is claimed (and pinned) only for the pass
    pairs that provably commute on every linear library schedule; most
    pairs crossing ``reschedule`` are deliberately not claimed.
    """

    #: Pass pairs that commute on every linear library stencil × both ISAs
    #: (verified over the raw lowerings; a pair is only listed here when the
    #: two application orders produce structurally identical programs).
    COMMUTING_PAIRS = (
        ("cse", "coalesce"),
        ("cse", "fuse-fma"),
        ("cse", "dce"),
        ("cse", "hoist"),
        ("coalesce", "fuse-fma"),
        ("coalesce", "hoist"),
        ("fuse-fma", "dce"),
        ("fuse-fma", "hoist"),
        ("fuse-fma", "reschedule"),
        ("dce", "hoist"),
        ("dce", "reschedule"),
        ("hoist", "reschedule"),
    )

    @staticmethod
    def _raw_irs(isa):
        for key in LINEAR_KEYS:
            for m in (2, 3):
                sched = FoldingSchedule(BENCHMARKS[key].spec, m)
                if sched.radius > isa.vector_lanes:
                    continue
                yield key, m, sched.schedule_ir(isa.vector_lanes, optimize=False)

    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_every_registered_pass_is_idempotent(self, isa):
        from repro.ir.passes import _PASS_REGISTRY

        checked = 0
        for key, m, ir in self._raw_irs(isa):
            for name in _PASS_REGISTRY:
                once = PassManager((name,)).run(ir)[0]
                twice = PassManager((name,)).run(once)[0]
                assert twice == once, f"{name} not idempotent on {key} m={m} {isa.name}"
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_passes_idempotent_after_full_pipeline(self, isa):
        """Idempotency must also hold on already-optimized programs (the
        fixed point of the default pipeline)."""
        from repro.ir.passes import _PASS_REGISTRY

        for key, m, ir in self._raw_irs(isa):
            opt = PassManager(True).run(ir)[0]
            for name in _PASS_REGISTRY:
                once = PassManager((name,)).run(opt)[0]
                twice = PassManager((name,)).run(once)[0]
                assert twice == once, f"{name} not idempotent post-pipeline on {key} m={m}"

    @pytest.mark.parametrize("isa", ISAS, ids=lambda isa: isa.name)
    def test_claimed_commuting_pairs_commute(self, isa):
        for key, m, ir in self._raw_irs(isa):
            for a, b in self.COMMUTING_PAIRS:
                ab = PassManager((a, b)).run(ir)[0]
                ba = PassManager((b, a)).run(ir)[0]
                assert ab == ba, f"({a}, {b}) does not commute on {key} m={m} {isa.name}"

    def test_default_pipeline_is_a_fixed_point(self):
        """Running the whole default pipeline twice changes nothing."""
        for key in LINEAR_KEYS:
            sched = FoldingSchedule(BENCHMARKS[key].spec, 2)
            ir = sched.schedule_ir(4, optimize=False)
            if ir is None:
                continue
            once = PassManager(True).run(ir)[0]
            twice = PassManager(True).run(once)[0]
            assert twice == once


# --------------------------------------------------------------------------- #
# every library program, pinned
# --------------------------------------------------------------------------- #
#: Every lowerable linear library configuration at m = 1-4: name -> (stencil, m, ISA).
RAW_PROGRAM_CONFIGS = {
    f"{key}-m{m}-{isa.name}": (key, m, isa)
    for key in LINEAR_KEYS
    for m in (1, 2, 3, 4)
    for isa in ISAS
    if m * BENCHMARKS[key].spec.radius <= isa.vector_lanes
}
GOLDEN_RAW_PROGRAMS = json.loads(Path(__file__).with_name("golden_raw_programs.json").read_text())


def raw_program_key(ir) -> str:
    """Structural key of a raw program: each segment's name, trip, register
    peak and spills, and each op's opcode, registers, tag and lanes.

    Float immediates are left out, so the key does not depend on a
    platform's last bits; optimized programs are left out of the golden
    file, because their ``cse`` merges broadcast constants by float
    equality.
    """
    return config_hash(
        tuple(
            (
                seg.name,
                seg.trip,
                seg.peak_live,
                seg.spills,
                tuple((op.opcode, op.dst, op.srcs, op.tag, op.lanes) for op in seg.ops),
            )
            for seg in ir.segments
        )
    )


class TestGoldenRawPrograms:
    """A change that alters a library program on purpose rewrites
    ``golden_raw_programs.json``: ``{name: raw_program_key(FoldingSchedule(
    BENCHMARKS[key].spec, m).schedule_ir(isa.vector_lanes))}`` over
    :data:`RAW_PROGRAM_CONFIGS`, sorted, indent 2."""

    # An entry on one side only fails its lookup on the other.
    @pytest.mark.parametrize(
        "name", sorted(RAW_PROGRAM_CONFIGS.keys() | GOLDEN_RAW_PROGRAMS.keys())
    )
    def test_raw_program_is_the_recorded_one(self, name):
        key, m, isa = RAW_PROGRAM_CONFIGS[name]
        ir = FoldingSchedule(BENCHMARKS[key].spec, m).schedule_ir(isa.vector_lanes)
        assert raw_program_key(ir) == GOLDEN_RAW_PROGRAMS[name]
