"""The experiment runner: registry semantics, dedupe, CLI flags."""

from __future__ import annotations

import json

import pytest

from repro.harness.runner import EXPERIMENTS, main, run_all, run_experiment
from repro.study import EvalCache


class TestRunExperiment:
    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="figure8"):
            run_experiment("figure99")

    def test_name_is_normalised(self):
        result = run_experiment("  Table2 ")
        assert result.name == "table2"

    def test_kwargs_filtered_per_signature(self):
        # figure9 does not take `isa` or `benchmark`; they must be dropped
        # rather than raising TypeError.
        result = run_experiment("figure9", isa="avx512", benchmark="2d9p", cores=4)
        assert result.notes == "cores=4"

    def test_none_valued_kwargs_keep_defaults(self):
        result = run_experiment("figure8", isa=None, benchmark=None)
        assert result.notes == "stencil=1d-heat, isa=avx2"

    def test_keywords_no_experiment_declares_raise(self):
        """A removed parameter or a misspelling fails instead of silently
        running the default sweep; each one is named."""
        with pytest.raises(TypeError, match="'corez', 'workers'"):
            run_experiment("figure8", workers=4, corez=3)
        with pytest.raises(TypeError, match="'workers'"):
            run_all(["figure8", "figure9"], workers=4)
        # None means "not given", whatever the keyword.
        assert run_experiment("collects", workers=None).name == "collects"


class TestRunAll:
    def test_keyword_of_another_selected_experiment_is_filtered(self):
        """``cores`` is figure9's; figure8 runs without it."""
        results = run_all(["figure8", "figure9"], cores=4)
        assert [r.name for r in results] == ["figure8", "figure9"]
        assert results[1].notes == "cores=4"

    def test_duplicates_run_once_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate experiment 'table2'"):
            results = run_all(["table2", "collects", "table2"])
        assert [r.name for r in results] == ["table2", "collects"]

    def test_duplicate_detection_is_case_insensitive(self):
        with pytest.warns(UserWarning, match="duplicate"):
            results = run_all(["collects", "COLLECTS"])
        assert len(results) == 1

    def test_order_preserved(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_all(["collects", "table2", "collects", "figure8"])
        assert [r.name for r in results] == ["collects", "table2", "figure8"]

    def test_shared_cache_forwarded(self):
        cache = EvalCache()
        run_all(["figure8", "table2"], cache=cache)
        # table2 replays figure8's 1000-step cells: all of them must hit.
        assert cache.stats.hits > 0


class TestCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(EXPERIMENTS)

    def test_text_output(self, capsys):
        assert main(["collects"]) == 0
        out = capsys.readouterr().out
        assert "== collects" in out
        assert "profitability" in out

    def test_json_output(self, capsys):
        assert main(["table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        experiments = payload["experiments"]
        assert [entry["name"] for entry in experiments] == ["table2"]
        assert experiments[0]["rows"][-1]["level"] == "Mean"

    def test_json_output_reports_cache_stats(self, capsys):
        # table2 replays figure8's cells, so the shared cache must show both
        # traffic and per-kind accounting — the same surface as the service's
        # /stats endpoint.
        assert main(["figure8", "table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cache = payload["cache"]
        overall = cache["overall"]
        assert overall["misses"] > 0
        assert overall["hits"] > 0
        assert overall["hit_rate"] == pytest.approx(
            overall["hits"] / (overall["hits"] + overall["misses"])
        )
        assert "profile" in cache["by_kind"]
        total_by_kind = sum(s["misses"] for s in cache["by_kind"].values())
        assert total_by_kind == overall["misses"]

    def test_sweep_flags_reach_the_experiments(self, capsys):
        assert main(["figure8", "--isa", "avx512", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "isa=avx512" in payload["experiments"][0]["notes"]

    def test_benchmarks_flag(self, capsys):
        assert main(["figure10", "--benchmarks", "1d-heat,2d9p", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        keys = {row["key"] for row in payload["experiments"][0]["rows"]}
        assert keys == {"1d-heat", "2d9p"}

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
