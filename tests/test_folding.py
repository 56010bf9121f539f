"""Tests for the folding analysis (repro.core.folding) — Section 3.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.folding import (
    analyze_folding,
    arithmetically_profitable,
    collect_best,
    collect_folded,
    collect_naive,
    collect_separable,
    folding_matrix,
    profitability,
)
from repro.stencils.library import (
    apop,
    box_1d5p,
    box_2d9p,
    box_3d27p,
    general_box_2d9p,
    heat_1d,
    heat_2d,
    heat_3d,
    symmetric_box_2d9p,
)


class TestPaperNumbers:
    """The exact numbers of the paper's Section 3.2 example (2-step 2D9P box)."""

    def test_collect_naive_is_90(self):
        assert collect_naive(box_2d9p(), 2) == 90

    def test_collect_folded_is_25(self):
        assert collect_folded(box_2d9p(), 2) == 25

    def test_collect_separable_is_9(self):
        assert collect_separable(box_2d9p(), 2) == 9

    def test_profitability_folded_is_3_6(self):
        assert profitability(box_2d9p(), 2, optimized=False) == pytest.approx(3.6)

    def test_profitability_optimized_is_10(self):
        assert profitability(box_2d9p(), 2) == pytest.approx(10.0)

    def test_report_bundles_everything(self):
        report = analyze_folding(box_2d9p(), 2)
        assert report.collect_naive == 90
        assert report.collect_folded == 25
        assert report.collect_optimized == 9
        assert report.separable
        assert report.is_profitable()
        assert report.profitability_folded == pytest.approx(3.6)
        assert report.profitability_optimized == pytest.approx(10.0)

    def test_symmetric_weights_also_analyzed(self):
        report = analyze_folding(symmetric_box_2d9p(), 2)
        assert report.collect_naive == 90
        assert report.collect_folded == 25
        assert not report.separable  # three distinct counterparts
        assert report.collect_optimized < 25


class TestGeneralStencils:
    def test_folding_matrix_is_composed_kernel(self, linear_spec):
        np.testing.assert_array_equal(
            folding_matrix(linear_spec, 2), linear_spec.compose(2).kernel
        )

    def test_collects_positive_and_ordered(self, linear_spec):
        naive = collect_naive(linear_spec, 2)
        folded = collect_folded(linear_spec, 2)
        best = collect_best(linear_spec, 2)
        assert naive > folded >= 1
        assert best <= max(folded, best)  # best never exceeds the dense fold by construction
        assert profitability(linear_spec, 2) >= 1.0

    def test_collect_naive_m1(self):
        assert collect_naive(heat_1d(), 1) == 3
        assert collect_naive(box_2d9p(), 1) == 9

    def test_collect_naive_m3_box(self):
        # levels: 1 + 9 + 25 points, times 9 references each.
        assert collect_naive(box_2d9p(), 3) == (1 + 9 + 25) * 9

    def test_star_folding_matrix_is_not_separable(self):
        assert collect_separable(heat_2d(), 2) is None
        assert collect_separable(heat_3d(), 2) is None

    def test_box_folding_matrices_are_separable(self):
        assert collect_separable(box_1d5p(), 2) is not None
        assert collect_separable(box_3d27p(), 2) == 3 * 5 - 2

    def test_gb_profits_less_than_uniform_box(self):
        assert profitability(general_box_2d9p(), 2) < profitability(box_2d9p(), 2)

    def test_nonlinear_rejected(self):
        with pytest.raises(ValueError):
            collect_naive(apop(), 2)
        with pytest.raises(ValueError):
            folding_matrix(apop(), 2)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            collect_naive(heat_1d(), 0)


class TestProfitabilityDecisions:
    def test_box_stencils_are_arithmetically_profitable(self):
        assert arithmetically_profitable(box_2d9p(), 2)
        assert arithmetically_profitable(box_3d27p(), 2)
        assert arithmetically_profitable(box_1d5p(), 2)

    def test_star_stencils_fall_back_to_sequential(self):
        assert not arithmetically_profitable(heat_2d(), 2)
        assert not arithmetically_profitable(heat_3d(), 2)

    def test_nonlinear_and_m1_not_profitable(self):
        assert not arithmetically_profitable(apop(), 2)
        assert not arithmetically_profitable(box_2d9p(), 1)
