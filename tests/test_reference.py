"""Tests for the reference executors and boundary/grid helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencils.boundary import (
    BoundaryCondition,
    interior_view,
    pad_with_halo,
)
from repro.stencils.grid import Grid
from repro.stencils.library import heat_1d, heat_2d
from repro.stencils.reference import (
    linear_sum,
    reference_run,
    reference_step,
)


class TestReferenceStep:
    def test_1d_periodic_matches_manual(self):
        spec = heat_1d(alpha=0.25)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        out = reference_step(spec, u, BoundaryCondition.PERIODIC)
        expected = np.array(
            [
                0.25 * 4.0 + 0.5 * 1.0 + 0.25 * 2.0,
                0.25 * 1.0 + 0.5 * 2.0 + 0.25 * 3.0,
                0.25 * 2.0 + 0.5 * 3.0 + 0.25 * 4.0,
                0.25 * 3.0 + 0.5 * 4.0 + 0.25 * 1.0,
            ]
        )
        np.testing.assert_allclose(out, expected)

    def test_1d_dirichlet_matches_manual(self):
        spec = heat_1d(alpha=0.25)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        out = reference_step(spec, u, BoundaryCondition.DIRICHLET)
        expected = np.array(
            [
                0.25 * 0.0 + 0.5 * 1.0 + 0.25 * 2.0,
                0.25 * 1.0 + 0.5 * 2.0 + 0.25 * 3.0,
                0.25 * 2.0 + 0.5 * 3.0 + 0.25 * 4.0,
                0.25 * 3.0 + 0.5 * 4.0 + 0.25 * 0.0,
            ]
        )
        np.testing.assert_allclose(out, expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_sum(heat_2d(), np.zeros(8), BoundaryCondition.PERIODIC)

    def test_zero_steps_returns_copy(self):
        grid = Grid.random((32,), seed=1)
        out = reference_run(heat_1d(), grid, 0)
        np.testing.assert_array_equal(out, grid.values)
        assert out is not grid.values

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            reference_run(heat_1d(), Grid.random((8,)), -1)

    def test_heat_conserves_mass_periodic(self):
        spec = heat_2d()
        grid = Grid.random((16, 16), boundary=BoundaryCondition.PERIODIC, seed=2)
        out = reference_run(spec, grid, 20)
        assert out.sum() == pytest.approx(grid.values.sum(), rel=1e-10)

    def test_heat_decays_with_dirichlet(self):
        spec = heat_2d()
        grid = Grid.gaussian_bump((16, 16))
        out = reference_run(spec, grid, 50)
        assert out.sum() < grid.values.sum()
        assert np.all(out >= -1e-12)


class TestBoundaryHelpers:
    def test_pad_periodic_wraps(self):
        arr = np.array([1.0, 2.0, 3.0])
        padded = pad_with_halo(arr, 1, BoundaryCondition.PERIODIC)
        np.testing.assert_array_equal(padded, [3.0, 1.0, 2.0, 3.0, 1.0])

    def test_pad_dirichlet_zeroes(self):
        arr = np.array([1.0, 2.0])
        padded = pad_with_halo(arr, 2, BoundaryCondition.DIRICHLET)
        np.testing.assert_array_equal(padded, [0, 0, 1, 2, 0, 0])

    def test_pad_zero_halo_copies(self):
        arr = np.array([1.0, 2.0])
        padded = pad_with_halo(arr, 0, BoundaryCondition.DIRICHLET)
        np.testing.assert_array_equal(padded, arr)
        assert padded is not arr

    def test_pad_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            pad_with_halo(np.zeros(4), -1, BoundaryCondition.PERIODIC)

    @settings(deadline=None, max_examples=30)
    @given(
        halo=st.integers(min_value=0, max_value=4),
        n=st.integers(min_value=1, max_value=20),
    )
    def test_interior_view_inverts_padding(self, halo, n):
        arr = np.arange(float(n))
        padded = pad_with_halo(arr, halo, BoundaryCondition.PERIODIC)
        np.testing.assert_array_equal(interior_view(padded, halo), arr)


class TestGrid:
    def test_random_is_deterministic(self):
        a = Grid.random((16,), seed=7)
        b = Grid.random((16,), seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zeros_and_nbytes(self):
        g = Grid.zeros((8, 8))
        assert g.npoints == 64
        assert g.nbytes() == 64 * 8
        assert np.all(g.values == 0.0)

    def test_gaussian_bump_peak_at_centre(self):
        g = Grid.gaussian_bump((17, 17), amplitude=2.0)
        assert g.values[8, 8] == pytest.approx(2.0)
        assert g.values[0, 0] < 2.0

    def test_life_random_density_bounds(self):
        with pytest.raises(ValueError):
            Grid.life_random((8, 8), density=1.5)
        g = Grid.life_random((64, 64), density=0.3, seed=1)
        assert set(np.unique(g.values)).issubset({0.0, 1.0})

    def test_aux_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Grid(values=np.zeros((4, 4)), aux=np.zeros((4, 5)))

    def test_copy_is_deep(self):
        g = Grid.random((8,), seed=1, aux=np.arange(8.0))
        c = g.copy()
        c.values[0] = 99.0
        c.aux[0] = 99.0
        assert g.values[0] != 99.0
        assert g.aux[0] != 99.0

    def test_with_values_preserves_boundary_and_aux(self):
        g = Grid.random((8,), boundary=BoundaryCondition.DIRICHLET, seed=1, aux=np.arange(8.0))
        h = g.with_values(np.zeros(8))
        assert h.boundary is BoundaryCondition.DIRICHLET
        assert h.aux is g.aux
