import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degmfg.dynamics import DynamicsSpec, dynamics_preset, grushin_h
from degmfg.errors import ConfigurationError
from degmfg.grid import DensityField, Grid2D, ScalarField, VectorField, truncated_gaussian
from degmfg.operators import (
    apply_L,
    apply_L_star,
    conservative_diff2,
    degenerate_divergence,
    degenerate_gradient,
    degenerate_laplacian,
    duality_defect,
    hamiltonian,
    optimal_feedback,
)


def make_grid(n1=32, n2=32, L=4.0):
    return Grid2D(-L, L, -L, L, n1, n2)


def const_dyn(s1=1.0, s2=1.0, h=1.0, eps=0.0):
    return DynamicsSpec(
        sigma1=lambda x1, x2: np.full(np.shape(x1), s1),
        sigma2=lambda x1, x2: np.full(np.shape(x1), s2),
        h=lambda x1: np.full(np.shape(x1), h),
        epsilon=eps,
    )


class TestGradient:
    def test_linear_in_x1(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        g = degenerate_gradient(ScalarField(grid, x1g), dynamics_preset("grushin_exp"))
        np.testing.assert_allclose(g.v1, 1.0, atol=1e-12)
        np.testing.assert_allclose(g.v2, 0.0, atol=1e-12)

    def test_grushin_kills_x2_on_degenerate_line(self):
        # n1 odd so x1 = 0 is a node; h(0) = 0 there
        grid = make_grid(n1=33, n2=32)
        x1g, x2g = grid.meshgrid()
        g = degenerate_gradient(ScalarField(grid, x2g), dynamics_preset("grushin_exp"))
        i0 = np.argmin(np.abs(grid.x1))
        assert grid.x1[i0] == 0.0
        np.testing.assert_allclose(g.v1[i0], 0.0, atol=1e-12)
        np.testing.assert_allclose(g.v2[i0], 0.0, atol=1e-15)

    def test_h_one_full_gradient(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        g = degenerate_gradient(ScalarField(grid, x1g + x2g), const_dyn())
        np.testing.assert_allclose(g.v1, 1.0, atol=1e-12)
        np.testing.assert_allclose(g.v2, 1.0, atol=1e-12)

    def test_rejects_nonfinite(self):
        grid = make_grid()
        bad = np.zeros(grid.shape)
        bad[3, 3] = np.nan
        with pytest.raises(ConfigurationError):
            degenerate_gradient(ScalarField(grid, bad), const_dyn())


class TestDivergence:
    def test_identity_x1(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        v = VectorField(grid, x1g, np.zeros(grid.shape))
        d = degenerate_divergence(v, const_dyn())
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)

    def test_degenerate_direction_dead(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        v = VectorField(grid, np.zeros(grid.shape), x2g)
        d = degenerate_divergence(v, const_dyn(h=0.0))
        np.testing.assert_allclose(d.values, 0.0, atol=1e-15)

    def test_full_divergence(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        d = degenerate_divergence(VectorField(grid, x1g, x2g), const_dyn())
        np.testing.assert_allclose(d.values, 2.0, atol=1e-12)


class TestLaplacian:
    def test_quadratic_x1(self):
        grid = make_grid()
        x1g, _ = grid.meshgrid()
        lap = degenerate_laplacian(ScalarField(grid, 0.5 * x1g ** 2), const_dyn())
        np.testing.assert_allclose(lap.values, 1.0, atol=1e-10)

    def test_degenerate_x2_term(self):
        grid = make_grid()
        _, x2g = grid.meshgrid()
        lap = degenerate_laplacian(ScalarField(grid, 0.5 * x2g ** 2), const_dyn(h=0.0))
        np.testing.assert_allclose(lap.values, 0.0, atol=1e-10)

    def test_full_laplacian(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        lap = degenerate_laplacian(
            ScalarField(grid, 0.5 * (x1g ** 2 + x2g ** 2)), const_dyn())
        np.testing.assert_allclose(lap.values, 2.0, atol=1e-10)

    def test_exact_on_cubic(self):
        # all stencils are second order; a cubic is differentiated exactly
        grid = make_grid()
        x1g, _ = grid.meshgrid()
        lap = degenerate_laplacian(ScalarField(grid, x1g ** 3), const_dyn())
        np.testing.assert_allclose(lap.values, 6.0 * x1g, atol=1e-8)

    def test_second_order_convergence(self):
        # smooth non-polynomial field: observed order >= 1.9 over refinements
        errs = []
        ns = [17, 33, 65, 129]
        for n in ns:
            grid = make_grid(n1=n, n2=n, L=2.0)
            x1g, x2g = grid.meshgrid()
            u = np.sin(x1g) * np.cos(x2g)
            lap = degenerate_laplacian(ScalarField(grid, u), const_dyn())
            errs.append(np.max(np.abs(lap.values + 2.0 * u)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)


class TestL:
    def test_unit_sigma_quadratic(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        out = apply_L(ScalarField(grid, 0.5 * (x1g ** 2 + x2g ** 2)), const_dyn())
        np.testing.assert_allclose(out.values, 1.0, atol=1e-10)

    def test_zero_sigma(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        out = apply_L(ScalarField(grid, np.sin(x1g * x2g)), const_dyn(0.0, 0.0))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_sin_sigma_vanishes_at_pi(self):
        grid = Grid2D(0.0, 2 * np.pi, -1.0, 1.0, 33, 16)
        x1g, x2g = grid.meshgrid()
        dyn = dynamics_preset("sin_sigma")
        out = apply_L(ScalarField(grid, 0.5 * x1g ** 2), dyn)
        # sigma1 = sin(x1) vanishes at x1 = pi: 0.5 * sin(pi)^2 * 1 = 0
        i_pi = np.argmin(np.abs(grid.x1 - np.pi))
        np.testing.assert_allclose(out.values[i_pi], 0.0, atol=1e-10)


class TestLStar:
    def test_constant_sigma_self_adjoint(self):
        grid = make_grid()
        m = truncated_gaussian(grid, variance=0.4)
        dyn = const_dyn(0.7, 1.3)
        lstar = apply_L_star(m, dyn)
        lu = apply_L(ScalarField(grid, m.values), dyn)
        # flux form and centered form agree away from the boundary closure
        np.testing.assert_allclose(lstar.values[1:-1, 1:-1],
                                   lu.values[1:-1, 1:-1], atol=1e-10)

    def test_constant_density_unit_sigma(self):
        grid = make_grid()
        v = np.ones(grid.shape)
        v /= grid.integrate(v)
        out = apply_L_star(DensityField(grid, v), const_dyn())
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_mass_conservation(self):
        grid = make_grid()
        m = truncated_gaussian(grid, variance=0.3)
        dyn = DynamicsSpec(
            sigma1=lambda x1, x2: 1.0 + 0.3 * np.sin(x1),
            sigma2=lambda x1, x2: 0.8 + 0.2 * np.cos(x2),
            h=lambda x1: np.ones(np.shape(x1)),
        )
        out = apply_L_star(m, dyn)
        assert abs(grid.integrate(out.values)) < 1e-10

    def test_adjoint_identity_against_matrix_transpose(self):
        # randomized sigma on a 16x16 grid: <L u, m> = <u, L* m> for fields
        # supported away from the boundary
        rng = np.random.default_rng(7)
        grid = make_grid(16, 16, L=2.0)
        dyn = DynamicsSpec(
            sigma1=lambda x1, x2: 1.0 + 0.5 * np.sin(1.3 * x1 + 0.2 * x2),
            sigma2=lambda x1, x2: 0.7 + 0.3 * np.cos(0.9 * x2),
            h=lambda x1: np.ones(np.shape(x1)),
        )
        u = np.zeros(grid.shape)
        mvals = np.zeros(grid.shape)
        u[3:-3, 3:-3] = rng.normal(size=(10, 10))
        mvals[3:-3, 3:-3] = rng.uniform(0.5, 1.5, size=(10, 10))
        mvals /= grid.integrate(mvals)
        m = DensityField(grid, mvals)
        w = grid.cell_weights()
        lhs = np.sum(w * apply_L(ScalarField(grid, u), dyn).values * m.values)
        rhs = np.sum(w * u * apply_L_star(m, dyn).values)
        assert abs(lhs - rhs) < 1e-8


class TestHamiltonianFeedback:
    def test_hamiltonian_values(self):
        grid = make_grid()
        z = np.zeros(grid.shape)
        assert hamiltonian(VectorField(grid, z, z)).sup_norm() == 0.0
        one = np.ones(grid.shape)
        np.testing.assert_allclose(
            hamiltonian(VectorField(grid, one, one)).values, 1.0)
        np.testing.assert_allclose(
            hamiltonian(VectorField(grid, 3 * one, 4 * one)).values, 12.5)

    def test_feedback_constant_field(self):
        grid = make_grid()
        fb = optimal_feedback(ScalarField(grid, np.full(grid.shape, 2.3)), const_dyn())
        np.testing.assert_allclose(fb.v1, 0.0, atol=1e-12)
        np.testing.assert_allclose(fb.v2, 0.0, atol=1e-12)

    def test_feedback_is_negated_gradient(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        u = ScalarField(grid, x1g + 2.0 * x2g)
        fb = optimal_feedback(u, const_dyn())
        np.testing.assert_allclose(fb.v1, -1.0, atol=1e-12)
        np.testing.assert_allclose(fb.v2, -2.0, atol=1e-12)

    def test_quadratic_value_linear_feedback(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        fb = optimal_feedback(
            ScalarField(grid, 0.5 * (x1g ** 2 + x2g ** 2)), const_dyn())
        np.testing.assert_allclose(fb.v1, -x1g, atol=1e-10)
        np.testing.assert_allclose(fb.v2, -x2g, atol=1e-10)


class TestDuality:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_gradient_divergence_duality(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(20, 24, L=3.0)
        dyn = DynamicsSpec(
            sigma1=lambda x1, x2: np.ones(np.shape(x1)),
            sigma2=lambda x1, x2: np.ones(np.shape(x1)),
            h=lambda x1: 0.5 + 0.4 * np.sin(x1),
        )
        u = np.zeros(grid.shape)
        v1 = np.zeros(grid.shape)
        v2 = np.zeros(grid.shape)
        u[3:-3, 3:-3] = rng.normal(size=(14, 18))
        v1[3:-3, 3:-3] = rng.normal(size=(14, 18))
        v2[3:-3, 3:-3] = rng.normal(size=(14, 18))
        defect, correction = duality_defect(
            ScalarField(grid, u), VectorField(grid, v1, v2), dyn)
        scale = max(1.0, np.abs(u).max() * max(np.abs(v1).max(), np.abs(v2).max())
                    * grid.n_nodes * grid.dx1 * grid.dx2)
        assert abs(defect - correction) <= 10 * np.finfo(float).eps * scale

    def test_estimator_monotone_under_restriction(self):
        # conservative flux sum telescopes: interior sub-box mass change is
        # bounded by total for nonnegative g
        grid = make_grid(16, 16)
        g = np.abs(np.random.default_rng(0).normal(size=grid.shape))
        out = conservative_diff2(g, grid.dx1, axis=0)
        w = grid.cell_weights()
        assert abs(np.sum(w * out)) < 1e-10 * np.abs(g).max() * grid.n_nodes


class TestDynamicsChecks:
    def test_regularity_check_passes_for_presets(self):
        grid = make_grid()
        for name in ("grushin_exp", "sin_sigma", "nondegenerate",
                     "fully_degenerate_x2"):
            dynamics_preset(name).check_regularity(grid)

    def test_regularity_check_differentiates_along_x2(self):
        # sigma2 = sin(3 x2) is bounded by 1 but its x2 quotients are not
        dyn = DynamicsSpec(sigma1=lambda x1, x2: np.ones_like(x1),
                           sigma2=lambda x1, x2: np.sin(3.0 * x2),
                           h=lambda x1: np.ones_like(x1))
        grid = make_grid()
        assert dyn.check_regularity(grid) > 2.0
        with pytest.raises(ConfigurationError, match="sigma2"):
            dyn.check_regularity(grid, bound=2.0)

    def test_grushin_h_vanishes_at_origin(self):
        assert grushin_h(np.array([0.0]))[0] == 0.0
        assert grushin_h(np.array([1e-2]))[0] < 1e-300  # exp(-1e4) underflows
        # vanishes faster than any polynomial near 0
        x = np.array([0.05, 0.1, 0.2])
        assert np.all(grushin_h(x) < x ** 8)

    def test_direction_unit_invariant(self):
        from degmfg.grid import Direction
        Direction(1.0, 0.0)
        s = 1 / np.sqrt(2)
        Direction(s, s)
        with pytest.raises(ConfigurationError):
            Direction(1.0, 1.0)
