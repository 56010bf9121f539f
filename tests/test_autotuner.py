"""The staged tuner: determinism, caching, the prune ledger, acceptance.

Four contracts from the redesign:

* **determinism** — the same seed and space produce an identical
  :class:`TuneResult` ledger, record for record;
* **cache reuse** — re-running a search against a shared
  :class:`EvalCache` performs zero new measurements (injected fake clock,
  miss counters pinned);
* **prune-ledger invariant** — every generated candidate is either
  measured or carries a ``pruned_reason``; nothing disappears silently;
* **acceptance** — for every linear library stencil on both ISAs the tuned
  configuration's predicted cost is at or below the best hand-picked
  study-table configuration, with at least half the space eliminated
  before measurement.
"""

from __future__ import annotations

import pytest

from repro.autotune import (
    PRUNE_RATIO,
    SearchSpace,
    TuneResult,
    TuningWorkload,
    autotune,
    expand_candidates,
    tiling_candidates,
)
from repro.machine import machine_for_isa
from repro.stencils.library import BENCHMARKS, get_benchmark
from repro.study.cache import EvalCache


class FakeClock:
    """Monotonic clock advancing by a fixed step per sample."""

    def __init__(self, step: float = 0.25):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


LINEAR_STENCILS = tuple(key for key in BENCHMARKS if get_benchmark(key).spec.linear)


class TestSearchSpace:
    def test_defaults_derive_from_registry_and_stencil(self):
        spec = get_benchmark("1d5p").spec  # radius 2
        space = SearchSpace.for_spec(spec)
        assert "folded" in space.methods
        assert space.isas == ("avx2", "avx512")
        # m capped by the widest ISA's lanes over the radius: 8 // 2 = 4.
        assert max(space.m_values) <= 4
        # size is an upper bound: non-unroll methods collapse to one m row.
        assert space.size >= len(expand_candidates(spec, space))

    def test_non_unroll_methods_collapse_to_one_m_row(self):
        spec = get_benchmark("1d-heat").spec
        space = SearchSpace.for_spec(spec)
        candidates = expand_candidates(spec, space)
        loads = [c for c in candidates if c["method"] == "multiple_loads"]
        folded = [c for c in candidates if c["method"] == "folded"]
        # One row per ISA for the m-independent method, the full m axis for
        # the folding method.
        assert [c["m"] for c in loads] == [1] * len(space.isas)
        assert len(folded) == len(space.isas) * len(space.m_values)

    def test_constrain_and_validation(self):
        spec = get_benchmark("1d-heat").spec
        space = SearchSpace.for_spec(spec).constrain(isas=("avx512",), m_values=(1, 2))
        assert space.isas == ("avx512",)
        with pytest.raises(ValueError):
            SearchSpace.for_spec(spec).constrain(isas=("neon",))
        with pytest.raises(ValueError):
            SearchSpace.for_spec(spec).constrain(methods=("nope",))

    def test_candidates_are_deterministically_indexed(self):
        spec = get_benchmark("2d9p").spec
        space = SearchSpace.for_spec(spec)
        a = expand_candidates(spec, space)
        b = expand_candidates(spec, space)
        assert a == b
        assert [c["index"] for c in a] == list(range(len(a)))


class TestDeterminism:
    def test_same_seed_and_space_reproduce_the_ledger(self):
        clock_a, clock_b = FakeClock(), FakeClock()
        a = autotune("1d-heat", budget=2, seed=7, repeats=2, clock=clock_a)
        b = autotune("1d-heat", budget=2, seed=7, repeats=2, clock=clock_b)
        assert isinstance(a, TuneResult)
        assert a.ledger == b.ledger
        assert a.winner == b.winner
        assert a.to_dict() == b.to_dict()

    def test_result_is_immutable(self):
        result = autotune("1d-heat", budget=0)
        with pytest.raises(AttributeError):
            result.budget = 5
        with pytest.raises(AttributeError):
            result.winner.m = 99


class TestCacheReuse:
    def test_rerun_measures_nothing_new(self):
        cache = EvalCache()
        clock = FakeClock()
        first = autotune("1d-heat", budget=2, cache=cache, repeats=2, clock=clock)
        misses_after_first = cache.stats_by_kind()["measure"].misses
        assert misses_after_first == 2  # one per measured candidate
        samples_after_first = clock.now
        second = autotune("1d-heat", budget=2, cache=cache, repeats=2, clock=clock)
        stats = cache.stats_by_kind()["measure"]
        assert stats.misses == misses_after_first  # zero new measurements
        assert stats.hits >= 2
        assert clock.now == samples_after_first  # the clock never ticked again
        assert first.ledger == second.ledger

    def test_distinct_seeds_are_distinct_measurements(self):
        cache = EvalCache()
        autotune("1d-heat", budget=1, cache=cache, repeats=1, clock=FakeClock())
        autotune("1d-heat", budget=1, cache=cache, repeats=1, clock=FakeClock(), seed=1)
        assert cache.stats_by_kind()["measure"].misses == 2


class TestPruneLedger:
    def test_every_candidate_measured_or_reasoned(self):
        result = autotune("1d5p", budget=2, repeats=1, clock=FakeClock())
        assert len(result.ledger) == result.generated
        for record in result.ledger:
            assert record.measured != (record.pruned_reason is not None), record
        assert result.measured_count <= 2
        assert result.pruned_count + result.measured_count == result.generated

    def test_prune_reasons_are_classified(self):
        result = autotune("1d5p", budget=1, repeats=1, clock=FakeClock())
        stats = result.prune_stats()
        assert stats["generated"] == result.generated
        assert stats["measured"] == result.measured_count
        reasons = stats["reasons"]
        # Radius-2 stencil: m=3,4 on avx2 fold past the vector length.
        assert reasons.get("invalid", 0) >= 2
        assert set(reasons) <= {
            "invalid",
            "unprofitable",
            "unmeasurable",
            "beyond measurement budget",
        }

    def test_inexpressible_folds_name_the_radius(self):
        result = autotune("1d5p", budget=0)
        reasons = [r.pruned_reason for r in result.ledger if r.pruned_reason]
        assert any(
            "schedule-inexpressible: folded radius 6 exceeds vl=4 on avx2" in reason
            for reason in reasons
        )

    def test_budget_zero_never_measures(self):
        clock = FakeClock()
        result = autotune("2d9p", budget=0, clock=clock)
        assert result.measured_count == 0
        assert clock.now == 0.0
        assert result.winner.rank == 1


class TestAcceptance:
    """ISSUE acceptance: tuned beats/matches every hand-picked config."""

    @pytest.mark.parametrize("stencil", LINEAR_STENCILS)
    @pytest.mark.parametrize("isa", ("avx2", "avx512"))
    def test_tuned_at_or_below_best_hand_picked(self, stencil, isa, shared_cache):
        spec = get_benchmark(stencil).spec
        workload = TuningWorkload.for_spec(spec)
        result = autotune(
            spec, budget=0, isas=(isa,), workload=workload, cache=shared_cache
        )
        machine = machine_for_isa(isa)
        hand_picked = []
        for method in SearchSpace.for_spec(spec).methods:
            profile = shared_cache.profile(method, spec, isa=isa, m=2)
            estimate = shared_cache.multicore(
                profile, workload.shape, workload.time_steps, machine, 1, spec.radius
            )
            hand_picked.append(estimate.cycles_per_point)
        tuned = result.winner.predicted_cycles_per_point
        assert tuned is not None
        assert tuned <= min(hand_picked) + 1e-12
        # At least half the space is eliminated before any measurement.
        assert result.pruned_fraction >= 0.5

    @pytest.fixture(scope="class")
    def shared_cache(self):
        return EvalCache()


class TestInexpressibleFolds:
    """Fold factors whose folded radius ``m·r`` exceeds the vector length
    have no register-level schedule, so the tuner leaves them out of the
    scoring instead of ranking them on the closed-form profile."""

    @pytest.mark.parametrize("stencil", ("1d5p", "3d-heat"))
    @pytest.mark.parametrize("isa", ("avx2", "avx512"))
    def test_left_out_of_scoring(self, stencil, isa):
        spec = get_benchmark(stencil).spec
        result = autotune(
            spec,
            budget=0,
            objective="gflops",
            methods=("folded",),
            isas=(isa,),
            m_values=(1, 2, 3, 4),
        )
        vl = 4 if isa == "avx2" else 8
        scored = {rec.m for rec in result.ledger if rec.predicted_gflops is not None}
        assert scored == {m for m in (1, 2, 3, 4) if m * spec.radius <= vl}


class TestTilingAxis:
    """Block sizes are searched as the tuner's tiling axis, with candidates
    from :func:`tiling_candidates`."""

    def test_winner_is_a_feasible_tiling(self):
        spec = get_benchmark("2d-heat").spec
        shape = (2048, 2048)
        tilings = tiling_candidates(shape, spec.radius, time_ranges=(8, 16))
        result = autotune(
            spec,
            budget=0,
            methods=("folded",),
            isas=("avx2",),
            m_values=(2,),
            tilings=tilings,
            shape=shape,
            cores=8,
        )
        assert result.generated == len(tilings)
        assert result.winner.tiling is not None
        result.plan().config.tiling.validate(len(shape), radius=spec.radius)

    def test_no_feasible_tiling_leaves_nothing_to_score(self):
        tilings = tiling_candidates((4, 4), 3, time_ranges=(64,))
        assert tilings == []
        with pytest.raises(ValueError, match="no scoreable candidate"):
            autotune("2d-heat", budget=0, tilings=tilings)


class TestFluentApi:
    def test_plan_autotune_pins_explicit_axes(self):
        import repro

        builder = repro.plan("1d-heat").method("folded").isa("avx512")
        result = builder.autotune(budget=0)
        assert all(rec.method == "folded" for rec in result.ledger)
        assert all(rec.isa == "avx512" for rec in result.ledger)
        assert result.winner.isa == "avx512"

    def test_winner_plan_round_trips(self):
        result = autotune("1d-heat", budget=0)
        compiled = result.plan()
        assert compiled.method_key == result.winner.method
        assert compiled.config.isa == result.winner.isa
        assert compiled.config.unroll == result.winner.m

    def test_objective_validated(self):
        with pytest.raises(ValueError, match="objective"):
            autotune("1d-heat", objective="latency")
        with pytest.raises(ValueError, match="budget"):
            autotune("1d-heat", budget=-1)

    def test_prune_ratio_documented_in_provenance(self):
        result = autotune("1d-heat", budget=0)
        assert result.provenance["prune_ratio"] == PRUNE_RATIO
        assert result.provenance["space"]["methods"]
        assert result.provenance["workload"]["shape"]

    def test_ir_pass_lineup_documented_in_provenance(self):
        """The predict stage scores candidates on the default-pipeline
        optimized IR; the ledger pins the exact pass line-up it ran under,
        and that line-up includes the graph-enabled hoisting pass."""
        from repro.ir.passes import DEFAULT_PASSES

        result = autotune("1d-heat", budget=0)
        assert result.provenance["ir_passes"] == list(DEFAULT_PASSES)
        assert "hoist" in result.provenance["ir_passes"]

    def test_ledger_deterministic_under_graph_passes(self):
        """Regression for the graph-driven scheduler: two independent
        predict-only searches (fresh caches, fresh schedules) must produce
        identical ledgers — the dependency-graph construction and the
        list-scheduling priorities contain no iteration-order nondeterminism."""
        a = autotune("3d-heat", budget=0, seed=11)
        b = autotune("3d-heat", budget=0, seed=11)
        assert a.ledger == b.ledger
        assert [rec.to_dict() for rec in a.ledger] == [rec.to_dict() for rec in b.ledger]
        assert a.provenance["ir_passes"] == b.provenance["ir_passes"]
