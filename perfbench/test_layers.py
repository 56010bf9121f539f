"""Span-to-layer attribution of the per-layer metrics."""

from __future__ import annotations

import pytest

from perfbench import layers


def test_attribute_charges_each_layer_and_the_rest_to_band():
    inner = [
        ("core.fold_update", 3.0, True),
        ("core.fold_update", 2.0, True),
        ("stencils.reference_step", 1.0, True),  # remainder step of run() itself
        ("core.band_fix", 0.5, True),
        ("stencils.reference_step", 0.25, False),  # inside the band fix
        ("layout.to", 0.5, True),
        ("layout.from", 0.25, True),
    ]
    split = layers.attribute(10.0, inner)
    assert split["core.fold_update_ref"] == 5.0
    assert split["stencils.remainder_ref"] == 1.0
    assert split["layout.transform_ref"] == 0.75
    assert split["ir.replay_ref"] == split["backend.kernel_sweep_ref"] == 0.0
    assert split["core.band_ref"] == pytest.approx(10.0 - 5.0 - 1.0 - 0.75)
    assert sum(split.values()) == pytest.approx(10.0)


def test_tree_roots_finds_outermost_calls_and_their_nested_spans():
    spans = [
        {"name": "service.execute", "start": 0.0, "end": 10.0, "parent": None, "self": 1.0},
        {"name": "core.simulate", "start": 1.0, "end": 9.0, "parent": 0, "self": 2.0},
        {"name": "core.run", "start": 1.5, "end": 8.0, "parent": 1, "self": 1.5},  # nested: not a root
        {"name": "backend.kernel_sweep", "start": 2.0, "end": 7.0, "parent": 2, "self": 5.0},
        {"name": "core.compile", "start": 9.0, "end": 9.5, "parent": 0, "self": 0.5},
    ]
    roots = layers.tree_roots(spans)
    assert len(roots) == 1
    duration, inner = roots[0]
    assert duration == 8.0
    assert sorted(inner) == [("backend.kernel_sweep", 5.0, False), ("core.run", 1.5, True)]
    assert layers.attribute(duration, inner)["backend.kernel_sweep_ref"] == 5.0


def test_setup_shares_are_self_time_over_the_sample():
    shares = layers.setup_shares([("core.compile", 0.1), ("ir.passes", 0.3), ("ir.passes", 0.1), ("other", 9.0)], 1.0)
    assert shares["setup.compile_share"] == pytest.approx(0.1)
    assert shares["setup.passes_share"] == pytest.approx(0.4)
    assert shares["setup.import_share"] == 0.0


def test_exact_counts_sum_ops_and_average_per_update_figures():
    per_plan = [
        {"ir.static_ops_raw": 10, "ir.static_ops_opt": 8, "ir.sim_instr_per_update": 1.0,
         "perfmodel.flops_per_update": 4.0, "perfmodel.bytes_per_update": 8.0},
        {"ir.static_ops_raw": 30, "ir.static_ops_opt": 20, "ir.sim_instr_per_update": 4.0,
         "perfmodel.flops_per_update": 9.0, "perfmodel.bytes_per_update": 2.0},
    ]
    counts = layers.exact_counts(per_plan)
    assert (counts["ir.static_ops_raw"], counts["ir.static_ops_opt"]) == (40.0, 28.0)
    assert counts["ir.sim_instr_per_update"] == pytest.approx(2.0)
    assert counts["perfmodel.flops_per_update"] == pytest.approx(6.0)
    assert counts["perfmodel.bytes_per_update"] == pytest.approx(4.0)


def test_complete_reports_every_metric_and_refuses_an_unmeasured_one():
    names = [name for name, _, _ in layers.PER_LAYER]
    measured = {name: 1.0 for name in names[1:]}
    with pytest.raises(KeyError, match=names[0]):
        layers.complete(measured, ())
    metrics = layers.complete(measured, (names[0],))
    assert list(metrics) == names
    assert metrics[names[0]] == (0.0, layers.UNITS[names[0]])
