"""Tests for counterpart analysis and the regression generalisation (Section 3.3/3.5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counterparts import (
    analyze_counterparts,
    column_vectors,
    separate_kernel,
    unique_counterparts,
)
from repro.core.regression import (
    clear_counterpart_cache,
    counterpart_cache_info,
    plan_counterparts,
)
from repro.stencils.library import (
    box_2d9p,
    box_3d27p,
    general_box_2d9p,
    heat_2d,
    symmetric_box_2d9p,
)


class TestSeparation:
    def test_1d_kernel_is_trivially_separable(self):
        factors = separate_kernel(np.array([1.0, 2.0, 1.0]))
        assert len(factors) == 1

    def test_uniform_box_separates(self):
        factors = separate_kernel(box_2d9p().kernel)
        assert factors is not None and len(factors) == 2
        np.testing.assert_allclose(np.outer(*factors), box_2d9p().kernel)

    def test_3d_box_separates_into_three_factors(self):
        factors = separate_kernel(box_3d27p().compose(2).kernel)
        assert factors is not None and len(factors) == 3
        rebuilt = np.einsum("i,j,k->ijk", *factors)
        np.testing.assert_allclose(rebuilt, box_3d27p().compose(2).kernel)

    def test_star_kernel_does_not_separate(self):
        assert separate_kernel(heat_2d().kernel) is None
        assert separate_kernel(heat_2d().compose(2).kernel) is None

    def test_gb_kernel_does_not_separate(self):
        assert separate_kernel(general_box_2d9p().kernel) is None

    @settings(deadline=None, max_examples=30)
    @given(
        u=st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=3, max_size=5),
        v=st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=3, max_size=5),
    )
    def test_outer_products_always_separate(self, u, v):
        kernel = np.outer(np.array(u), np.array(v))
        factors = separate_kernel(kernel)
        assert factors is not None
        np.testing.assert_allclose(np.outer(*factors), kernel, rtol=1e-9)


class TestCounterpartAnalysis:
    def test_uniform_box_has_three_counterparts_all_proportional(self):
        matrix = box_2d9p().compose(2).kernel
        analysis = analyze_counterparts(matrix)
        assert analysis.num_unique == 3  # the paper's "m + 1 counterparts at most"
        assert analysis.proportional
        assert analysis.collect_with_reuse == 9

    def test_symmetric_box_has_three_distinct_counterparts(self):
        matrix = symmetric_box_2d9p().compose(2).kernel
        analysis = analyze_counterparts(matrix)
        assert analysis.num_unique == 3
        assert not analysis.proportional
        assert analysis.collect_with_reuse <= analysis.collect_direct

    def test_gb_has_five_distinct_counterparts(self):
        matrix = general_box_2d9p().compose(2).kernel
        analysis = analyze_counterparts(matrix)
        assert analysis.num_unique == 5
        assert not analysis.proportional

    def test_column_vectors_shape(self):
        matrix = box_2d9p().compose(2).kernel
        cols = column_vectors(matrix)
        assert len(cols) == 5
        assert cols[0].shape == (5,)

    def test_unique_counterparts_drop_zero_columns(self):
        matrix = np.zeros((3, 3))
        matrix[:, 1] = [1.0, 2.0, 1.0]
        groups = unique_counterparts(column_vectors(matrix))
        assert len(groups) == 1
        assert groups[0][1] == [1]

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            analyze_counterparts(np.zeros((3, 3)))


class TestRegressionPlan:
    def test_paper_example_omegas(self):
        """ω₂ = (2) and ω₃ = (0, 3): counterparts 2 and 3 are scaled copies of c₁."""
        plan = plan_counterparts(box_2d9p(weight=1.0).compose(2).kernel)
        assert plan.steps[0].mode == "direct"
        assert plan.steps[1].mode == "scaled"
        assert plan.steps[1].omega == pytest.approx({0: 2.0})
        assert plan.steps[2].mode == "scaled"
        assert plan.steps[2].omega == pytest.approx({0: 3.0})
        assert plan.total_collect == 9

    def test_plan_reconstructs_matrix_exactly(self, linear_spec):
        matrix = linear_spec.compose(2).kernel
        plan = plan_counterparts(matrix)
        rebuilt = plan.reconstruct_matrix(matrix.shape)
        np.testing.assert_allclose(rebuilt, matrix, rtol=1e-9, atol=1e-12)

    def test_gb_plan_never_exceeds_direct_cost(self):
        matrix = general_box_2d9p().compose(2).kernel
        plan = plan_counterparts(matrix)
        direct = sum(int(np.count_nonzero(step.vector)) for step in plan.steps)
        assert sum(step.cost for step in plan.steps) <= direct

    def test_scaled_counterparts_cost_nothing(self):
        plan = plan_counterparts(box_3d27p().compose(2).kernel)
        scaled = [s for s in plan.steps if s.mode == "scaled"]
        assert scaled and all(s.cost == 0 for s in scaled)

    def test_the_base_counterpart_keeps_taps_the_fold_sums(self):
        """A column of weights at or below DBL_EPSILON never becomes the base
        of larger multiples: the fold drops its taps, and with them every
        multiple's.  Here it comes first and ties the others' support, so
        support counts the weights the fold keeps."""
        eps = np.finfo(np.float64).eps
        matrix = np.outer([0.25, 0.5, 0.25], [eps / 2, 1.0, 1.0])
        plan = plan_counterparts(matrix)
        assert plan.steps[0].mode == "direct"
        np.testing.assert_array_equal(plan.steps[0].vector, matrix[:, 1])

    def test_small_reuse_coefficients_are_kept(self):
        """A counterpart 1e-10 times another is that one scaled, not zero: a
        reuse term is dropped only when it contributes nothing to its target."""
        matrix = np.outer([0.25, 0.5, 0.25], [1.0, 1e-10])
        plan = plan_counterparts(matrix)
        assert [step.mode for step in plan.steps] == ["direct", "scaled"]
        np.testing.assert_allclose(plan.reconstruct_matrix(matrix.shape), matrix, rtol=1e-12)

    def test_1d_matrix_plan(self):
        plan = plan_counterparts(np.array([0.25, 0.5, 0.25]))
        assert plan.total_collect >= 1
        rebuilt = plan.reconstruct_matrix((3,))
        np.testing.assert_allclose(rebuilt, [0.25, 0.5, 0.25])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            plan_counterparts(np.zeros(5))

    @settings(deadline=None, max_examples=25)
    @given(
        u=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=3, max_size=5),
        v=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=3, max_size=5),
    )
    def test_separable_matrices_plan_to_single_direct_counterpart(self, u, v):
        """Property: rank-1 folding matrices need exactly one direct counterpart."""
        matrix = np.outer(np.array(u), np.array(v))
        plan = plan_counterparts(matrix)
        direct_steps = [s for s in plan.steps if s.mode == "direct"]
        assert len(direct_steps) == 1
        np.testing.assert_allclose(
            plan.reconstruct_matrix(matrix.shape), matrix, rtol=1e-8, atol=1e-10
        )

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_symmetric_kernels_reconstruct(self, seed):
        """Property: the plan is always exact, even for random non-separable kernels."""
        rng = np.random.default_rng(seed)
        kernel = rng.uniform(0.1, 1.0, size=(3, 3))
        kernel = (kernel + kernel.T) / 2.0
        from repro.stencils.spec import StencilSpec

        spec = StencilSpec(name="rand", kernel=kernel)
        matrix = spec.compose(2).kernel
        plan = plan_counterparts(matrix)
        np.testing.assert_allclose(
            plan.reconstruct_matrix(matrix.shape), matrix, rtol=1e-8, atol=1e-10
        )


class TestPlanMemoization:
    def test_repeated_calls_return_the_cached_plan(self):
        clear_counterpart_cache()
        matrix = box_2d9p().compose(2).kernel
        first = plan_counterparts(matrix)
        second = plan_counterparts(matrix.copy())
        assert second is first  # content-keyed: a copy hits the same entry
        entries, capacity = counterpart_cache_info()
        assert entries == 1 and capacity >= 1

    def test_different_settings_get_distinct_entries(self):
        clear_counterpart_cache()
        matrix = general_box_2d9p().compose(2).kernel
        a = plan_counterparts(matrix)
        b = plan_counterparts(matrix, max_terms=1)
        assert a is not b
        entries, _ = counterpart_cache_info()
        assert entries == 2

    def test_cached_arrays_are_read_only(self):
        clear_counterpart_cache()
        plan = plan_counterparts(box_2d9p().compose(2).kernel)
        with pytest.raises(ValueError):
            plan.steps[0].vector[0] = 99.0

    def test_schedule_compiles_share_the_regression(self):
        from repro.core.vectorized_folding import FoldingSchedule

        clear_counterpart_cache()
        s1 = FoldingSchedule(general_box_2d9p(), 2)
        s2 = FoldingSchedule(general_box_2d9p(), 2)
        assert s1.plan is s2.plan
