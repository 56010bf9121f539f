"""The declarative study API: builder, cross-product, cache, ResultSet."""

from __future__ import annotations

import importlib
import json
import threading

import pytest

from repro.machine import machine_for_isa
from repro.stencils.library import get_benchmark
from repro.study import EvalCache, ResultSet, config_hash, study
from repro.study.resultset import Provenance

study_cache = importlib.import_module("repro.study.cache")


def _provenance(**overrides):
    base = dict(
        study="t",
        machine=None,
        config_hash="abc123",
        cells=0,
        rows=0,
        wall_seconds=0.0,
        cache_hits=0,
        cache_misses=0,
    )
    base.update(overrides)
    return Provenance(**base)


# --------------------------------------------------------------------------- #
# builder and cross-product expansion
# --------------------------------------------------------------------------- #
class TestStudyBuilder:
    def test_cross_product_order_first_axis_slowest(self):
        rs = (
            study("order")
            .over(a=(1, 2), b=("x", "y", "z"))
            .metric(lambda cell: {"a": cell["a"], "b": cell["b"], "i": cell.index})
            .run()
        )
        assert [(r["a"], r["b"]) for r in rs] == [
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
        ]
        assert [r["i"] for r in rs] == list(range(6))

    def test_axis_redeclaration_rejected(self):
        with pytest.raises(ValueError, match="already declared"):
            study().over(a=(1,)).over(a=(2,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            study().over(a=())

    def test_run_requires_metric_and_axes(self):
        with pytest.raises(ValueError, match="no metric"):
            study().over(a=(1,)).run()
        with pytest.raises(ValueError, match="no axes"):
            study().metric(lambda c: None).run()

    def test_where_filters_before_evaluation(self):
        evaluated = []

        def metric(cell):
            evaluated.append(dict(cell.axes))
            return {"a": cell["a"], "b": cell["b"]}

        rs = (
            study()
            .over(a=(1, 2, 3), b=(1, 2))
            .where(lambda axes: axes["a"] != 2)
            .metric(metric)
            .run()
        )
        assert all(r["a"] != 2 for r in rs)
        assert len(rs) == 4 and len(evaluated) == 4
        assert rs.provenance.cells == 4

    def test_metric_may_return_none_or_many_rows(self):
        rs = (
            study()
            .over(n=(0, 1, 2))
            .metric(lambda cell: [{"n": cell["n"], "j": j} for j in range(cell["n"])] or None)
            .run()
        )
        assert [(r["n"], r["j"]) for r in rs] == [(1, 0), (2, 0), (2, 1)]
        assert rs.provenance.cells == 3 and rs.provenance.rows == 3

    def test_on_requires_machine_spec(self):
        with pytest.raises(TypeError):
            study().on("avx2")

    def test_machine_reaches_cells_and_provenance(self):
        machine = machine_for_isa("avx2")
        rs = (
            study("m")
            .over(a=(1,))
            .on(machine)
            .metric(lambda cell: {"name": cell.machine.name})
            .run()
        )
        assert rs[0]["name"] == machine.name
        assert rs.provenance.machine == machine.name


# --------------------------------------------------------------------------- #
# 3-D stencil axes
# --------------------------------------------------------------------------- #
class TestStencil3DAxis:
    def test_sweeping_a_3d_stencil_axis_on_both_isas(self):
        """A study can sweep a 3-D stencil axis end-to-end: each cell compiles
        a folded plan and trace-simulates it, bit-identical to the
        interpreted oracle on both ISAs."""
        import numpy as np

        from repro.core.plan import plan

        def metric(cell):
            case = get_benchmark(cell["stencil"])
            p = plan(case.spec).method("folded").unroll(2).isa(cell["isa"]).compile()
            vl = p.isa_spec.vector_lanes
            grid = case.make_grid((3, 2 * vl, 2 * vl))
            out, counts = p.simulate(grid, 2)  # trace backend (the default)
            ref, _ = p.simulate(grid, 2, backend="interpret")
            return {
                "stencil": case.key,
                "isa": cell["isa"],
                "dims": case.spec.dims,
                "bit_identical": bool(np.array_equal(out, ref)),
                "instructions": counts.total,
            }

        rs = (
            study("stencil3d")
            .over(stencil=("3d-heat", "3d27p"), isa=("avx2", "avx512"))
            .metric(metric)
            .run()
        )
        assert len(rs) == 4
        assert all(r["dims"] == 3 for r in rs)
        assert all(r["bit_identical"] for r in rs)
        assert all(r["instructions"] > 0 for r in rs)

    def test_dims3_experiment_rows(self):
        from repro.harness.experiments import dims3

        result = dims3()
        assert len(result.rows) == 2 * 2 * 5  # stencils × isas × lineup methods
        assert {row["benchmark"] for row in result.rows} == {"3D-Heat", "3D27P"}
        assert all(row["gflops"] > 0 for row in result.rows)
        # The 3-D neighbour-reuse slab (a pair of planes) never fits in L1 at
        # the paper's 400³ problem size.
        assert all(row["reuse_level"] != "L1" for row in result.rows)


# --------------------------------------------------------------------------- #
# memoization cache
# --------------------------------------------------------------------------- #
class TestEvalCache:
    def test_repeated_cells_hit_the_cache(self):
        spec = get_benchmark("2d9p").spec
        cache = EvalCache()
        machine = machine_for_isa("avx2")

        def metric(cell):
            profile = cell.cache.profile("folded", spec, isa="avx2", m=2)
            est = cell.cache.estimate(profile, npoints=4096, time_steps=100, machine=cell.machine)
            return {"level": cell["level"], "gflops": est.gflops}

        rs = (
            study("memo")
            .over(level=("L1", "L2", "L3", "Memory"))
            .on(machine)
            .metric(metric)
            .cache(cache)
            .run()
        )
        # Every cell asks for the same (profile, estimate) pair: 2 misses
        # total, everything else is a hit.
        assert rs.provenance.cache_misses == 2
        assert rs.provenance.cache_hits == 2 * 4 - 2
        assert cache.stats.entries == 2

    def test_shared_cache_makes_second_run_free(self):
        spec = get_benchmark("1d-heat").spec
        cache = EvalCache()

        def run_once():
            return (
                study("again")
                .over(method=("transpose", "folded"))
                .on(machine_for_isa("avx2"))
                .metric(
                    lambda cell: {
                        "m": cell["method"],
                        "g": cell.cache.estimate(
                            cell.cache.profile(cell["method"], spec, isa="avx2", m=2),
                            npoints=8192,
                            time_steps=100,
                            machine=cell.machine,
                        ).gflops,
                    }
                )
                .cache(cache)
                .run()
            )

        first = run_once()
        second = run_once()
        assert [dict(r) for r in first] == [dict(r) for r in second]
        assert first.provenance.cache_misses == 4
        assert second.provenance.cache_misses == 0
        assert second.provenance.cache_hits == 4

    def test_single_flight_under_concurrency(self):
        cache = EvalCache()
        computed = []
        barrier = threading.Barrier(4)

        def fetch():
            barrier.wait()
            return cache.memoize("k", ("x",), lambda: computed.append(1) or 42)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert computed == [1]
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 3

    def test_past_the_bound_evicts_ready_entries_never_a_computing_one(self, monkeypatch):
        monkeypatch.setattr(study_cache, "MAX_ENTRIES", 3)
        cache = EvalCache()
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            assert release.wait(timeout=60)
            return "slow"

        owner = threading.Thread(target=lambda: cache.memoize("k", "slow", slow))
        owner.start()
        assert started.wait(timeout=60)
        for i in range(6):
            cache.memoize("k", i, lambda i=i: i)
        cache.memoize("k", 4, lambda: "recomputed")  # a hit: 4 is now the most recent
        cache.memoize("k", 6, lambda: 6)
        assert cache.stats.entries == 3
        release.set()
        owner.join(timeout=60)
        assert not owner.is_alive()
        assert cache.memoize("k", "slow", lambda: "again") == "slow"
        assert cache.memoize("k", 4, lambda: "recomputed") == 4
        assert cache.memoize("k", 0, lambda: "recomputed") == "recomputed"

    def test_failed_computation_releases_the_slot(self):
        cache = EvalCache()
        with pytest.raises(RuntimeError):
            cache.memoize("k", (1,), lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert cache.memoize("k", (1,), lambda: 7) == 7

    def test_waiters_get_a_fresh_exception_chained_to_the_original(self):
        cache = EvalCache()
        release = threading.Event()
        original = ValueError("boom")
        errors = []

        def owner():
            def compute():
                release.wait()
                raise original

            try:
                cache.memoize("k", ("shared",), compute)
            except BaseException as exc:
                errors.append(("owner", exc))

        def waiter():
            try:
                cache.memoize("k", ("shared",), lambda: 1)
            except BaseException as exc:
                errors.append(("waiter", exc))

        t_owner = threading.Thread(target=owner)
        t_owner.start()
        waiters = [threading.Thread(target=waiter) for _ in range(2)]
        while cache.stats.misses == 0:  # owner holds the slot
            pass
        for t in waiters:
            t.start()
        while cache.stats.hits < 2:  # both waiters enqueued
            pass
        release.set()
        t_owner.join()
        for t in waiters:
            t.join()
        by_role = {}
        for role, exc in errors:
            by_role.setdefault(role, []).append(exc)
        # The owner re-raises the original; each waiter gets its own
        # RuntimeError chained to it (never the shared instance).
        assert by_role["owner"] == [original]
        assert len(by_role["waiter"]) == 2
        for exc in by_role["waiter"]:
            assert exc is not original
            assert isinstance(exc, RuntimeError)
            assert exc.__cause__ is original

    def test_clear_resets_accounting(self):
        cache = EvalCache()
        cache.memoize("k", (1,), lambda: 1)
        cache.memoize("k", (1,), lambda: 1)
        cache.clear()
        assert cache.stats == type(cache.stats)(hits=0, misses=0, entries=0)


# --------------------------------------------------------------------------- #
# configuration hashing
# --------------------------------------------------------------------------- #
class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        spec_a = get_benchmark("2d9p").spec
        spec_b = get_benchmark("2d9p").spec
        assert config_hash("s", spec_a, machine_for_isa("avx2")) == config_hash(
            "s", spec_b, machine_for_isa("avx2")
        )

    def test_any_difference_changes_the_hash(self):
        spec = get_benchmark("2d9p").spec
        base = config_hash("s", spec, "avx2", 2)
        assert config_hash("s", spec, "avx512", 2) != base
        assert config_hash("s", spec, "avx2", 3) != base
        assert config_hash("s", get_benchmark("1d-heat").spec, "avx2", 2) != base

    def test_hash_is_short_hex(self):
        digest = config_hash("anything")
        assert len(digest) == 12
        int(digest, 16)


# --------------------------------------------------------------------------- #
# ResultSet
# --------------------------------------------------------------------------- #
class TestResultSet:
    def _make(self):
        rows = [
            {"level": "L1", "method": "a", "gflops": 1.0},
            {"level": "L1", "method": "b", "gflops": 3.0},
            {"level": "L2", "method": "a", "gflops": 2.0},
            {"level": "L2", "method": "b", "gflops": 0.5},
        ]
        return ResultSet(rows, _provenance(rows=4, cells=4))

    def test_immutability(self):
        rs = self._make()
        with pytest.raises(AttributeError):
            rs.rows = ()
        with pytest.raises(TypeError):
            rs[0]["gflops"] = 99.0

    def test_filter_keeps_provenance_and_supports_predicates(self):
        rs = self._make()
        l1 = rs.filter(level="L1")
        assert len(l1) == 2
        assert l1.provenance is rs.provenance
        fast = rs.filter(lambda row: row["gflops"] > 1.5)
        assert {r["gflops"] for r in fast} == {3.0, 2.0}
        both = rs.filter(lambda row: row["gflops"] > 1.5, level="L2")
        assert [r["method"] for r in both] == ["a"]

    def test_series_and_pivot(self):
        rs = self._make()
        assert rs.series("gflops") == [1.0, 3.0, 2.0, 0.5]
        assert rs.series("missing") == [None] * 4
        pivot = rs.pivot("level", "method", "gflops")
        assert pivot == {"L1": {"a": 1.0, "b": 3.0}, "L2": {"a": 2.0, "b": 0.5}}
        assert list(pivot) == ["L1", "L2"]

    def test_best(self):
        rs = self._make()
        assert rs.best("gflops")["method"] == "b"
        assert rs.best("gflops", mode="min")["gflops"] == 0.5
        per_level = rs.best("gflops", by="level")
        assert per_level["L1"]["method"] == "b"
        assert per_level["L2"]["method"] == "a"
        with pytest.raises(ValueError):
            rs.best("missing")
        with pytest.raises(ValueError):
            rs.best("gflops", mode="median")

    def test_to_json_round_trips(self):
        rs = self._make()
        payload = json.loads(rs.to_json())
        assert payload["provenance"]["config_hash"] == "abc123"
        assert payload["rows"][1] == {"level": "L1", "method": "b", "gflops": 3.0}

    def test_to_experiment_produces_mutable_rows(self):
        rs = self._make()
        exp = rs.to_experiment(name="x", description="d", notes="n")
        assert exp.name == "x" and exp.notes == "n"
        exp.rows[0]["extra"] = 1  # legacy consumers may annotate rows
        assert "extra" not in rs[0]
