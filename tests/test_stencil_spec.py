"""Tests for StencilSpec (repro.stencils.spec)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencils.boundary import BoundaryCondition
from repro.stencils.library import (
    BENCHMARKS,
    apop,
    box_2d9p,
    game_of_life,
    general_box_2d9p,
    heat_1d,
    heat_2d,
    heat_3d,
    get_benchmark,
    symmetric_box_2d9p,
)
from repro.stencils.reference import reference_run
from repro.stencils.spec import StencilShape, StencilSpec
from repro.stencils.grid import Grid


class TestGeometry:
    def test_dims_and_radius(self):
        assert heat_1d().dims == 1
        assert heat_1d().radius == 1
        assert heat_2d().dims == 2
        assert heat_3d().dims == 3
        assert heat_3d().radii == (1, 1, 1)

    def test_npoints(self):
        assert heat_1d().npoints == 3
        assert heat_2d().npoints == 5
        assert box_2d9p().npoints == 9
        assert heat_3d().npoints == 7
        assert game_of_life().npoints == 8

    def test_shape_classification(self):
        assert heat_2d().shape_class is StencilShape.STAR
        assert heat_3d().shape_class is StencilShape.STAR
        assert box_2d9p().shape_class is StencilShape.BOX
        assert general_box_2d9p().shape_class is StencilShape.BOX

    def test_flops_per_point(self):
        assert heat_1d().flops_per_point == 5
        assert box_2d9p().flops_per_point == 17

    def test_offsets_and_weights(self):
        offsets = heat_1d(alpha=0.25).offsets_and_weights()
        assert offsets[(-1,)] == pytest.approx(0.25)
        assert offsets[(0,)] == pytest.approx(0.5)
        assert offsets[(1,)] == pytest.approx(0.25)
        assert set(offsets) == {(-1,), (0,), (1,)}

    def test_offsets_exclude_zero_weights(self):
        offsets = heat_2d().offsets_and_weights()
        assert (1, 1) not in offsets  # star stencil has no corner weights
        assert len(offsets) == 5


class TestValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            StencilSpec(name="bad", kernel=np.ones((2, 3)))

    def test_too_many_dims_rejected(self):
        with pytest.raises(ValueError):
            StencilSpec(name="bad", kernel=np.ones((3, 3, 3, 3)))

    def test_non_finite_weights_rejected(self):
        kernel = np.ones(3)
        kernel[0] = np.nan
        with pytest.raises(ValueError):
            StencilSpec(name="bad", kernel=kernel)

    def test_nonlinear_requires_post_rule(self):
        with pytest.raises(ValueError):
            StencilSpec(name="bad", kernel=np.ones(3), linear=False)

    def test_from_offsets_roundtrip(self):
        spec = StencilSpec.from_offsets(
            "custom", {(-1, 0): 0.2, (0, 0): 0.5, (1, 0): 0.2, (0, 1): 0.1}, dims=2
        )
        assert spec.npoints == 4
        assert spec.offsets_and_weights()[(0, 1)] == pytest.approx(0.1)

    def test_from_offsets_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            StencilSpec.from_offsets("bad", {(-1,): 1.0}, dims=2)

    def test_from_offsets_rejects_empty(self):
        with pytest.raises(ValueError):
            StencilSpec.from_offsets("bad", {}, dims=1)


class TestComposition:
    def test_compose_identity(self):
        spec = heat_1d()
        assert spec.compose(1) is spec

    def test_compose_rejects_bad_m(self):
        with pytest.raises(ValueError):
            heat_1d().compose(0)

    def test_compose_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            game_of_life().compose(2)
        with pytest.raises(ValueError):
            apop().compose(2)

    def test_compose_support_growth(self):
        spec = box_2d9p()
        assert spec.compose(2).kernel.shape == (5, 5)
        assert spec.compose(3).kernel.shape == (7, 7)

    def test_composed_kernel_weights_match_paper_figure4(self):
        """λ of the folded symmetric 9-point box match the paper's formulas."""
        w1, w2, w3 = 0.05, 0.1, 0.4
        spec = symmetric_box_2d9p(w1, w2, w3)
        lam = spec.compose(2).kernel
        # Figure 4(b): λ1 = w1², λ2 = 2·w1·w2, λ3 = 2·w1² + w2²,
        # λ4 = 2(w1·w3 + w2²), λ5 = 2(2·w1·w2 + w2·w3),
        # λ6 = 2(2·w1² + w2²) + 2·w2² + w3².
        assert lam[0, 0] == pytest.approx(w1 * w1)            # λ1 (corner)
        assert lam[0, 1] == pytest.approx(2 * w1 * w2)        # λ2
        assert lam[0, 2] == pytest.approx(2 * w1 * w1 + w2 * w2)  # λ3
        assert lam[1, 1] == pytest.approx(2 * (w1 * w3 + w2 * w2))  # λ4
        assert lam[1, 2] == pytest.approx(2 * (2 * w1 * w2 + w2 * w3))  # λ5
        assert lam[2, 2] == pytest.approx(
            2 * (2 * w1 * w1 + w2 * w2) + 2 * w2 * w2 + w3 * w3
        )  # λ6

    def test_uniform_box_folding_matrix_is_outer_12321(self):
        lam = box_2d9p(weight=1.0).compose(2).kernel
        expected = np.outer([1, 2, 3, 2, 1], [1, 2, 3, 2, 1]).astype(float)
        np.testing.assert_allclose(lam, expected)

    @settings(deadline=None, max_examples=25)
    @given(
        m=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_composed_kernel_equals_repeated_application(self, m, seed):
        """Property: one composed application == m single applications (periodic)."""
        spec = heat_1d(alpha=0.2)
        grid = Grid.random((48,), boundary=BoundaryCondition.PERIODIC, seed=seed)
        stepwise = reference_run(spec, grid, m)
        folded = reference_run(spec.compose(m), grid, 1)
        np.testing.assert_allclose(folded, stepwise, rtol=1e-12, atol=1e-13)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_composed_kernel_equals_repeated_application_2d(self, seed):
        spec = general_box_2d9p()
        grid = Grid.random((16, 16), boundary=BoundaryCondition.PERIODIC, seed=seed)
        stepwise = reference_run(spec, grid, 2)
        folded = reference_run(spec.compose(2), grid, 1)
        np.testing.assert_allclose(folded, stepwise, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("key", [k for k in BENCHMARKS if BENCHMARKS[k].spec.linear])
    def test_folding_matrix_is_the_exact_direct_convolution(self, key):
        """Λ is bit-equal to scipy's direct convolution for m = 2..8 — no
        FFT round-off entries standing in for exact zeros."""
        from scipy import signal

        spec = BENCHMARKS[key].spec
        expected = spec.kernel
        for m in range(2, 9):
            expected = signal.convolve(expected, spec.kernel, mode="full", method="direct")
            np.testing.assert_array_equal(spec.compose(m).kernel, expected)

    def test_3d_heat_folding_matrix_keeps_its_zeros(self):
        spec = get_benchmark("3d-heat").spec
        assert spec.compose(3).npoints == 63
        assert spec.compose(4).npoints == 129
