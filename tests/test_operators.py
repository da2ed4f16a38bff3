import warnings

import numpy as np
import pytest

from degmfg.dynamics import DynamicsSpec, dynamics_preset, grushin_h
from degmfg.errors import ConfigurationError
from degmfg.fpe import assemble_dual_diffusion
from degmfg.grid import DensityField, Grid2D, ScalarField, truncated_gaussian
from degmfg.operators import apply_L, degenerate_gradient, diff2, \
    half_sigma_sq, hamiltonian, lipschitz_estimate
from references import check_regularity
from test_fpe import conservative_diff2


def apply_L_star(m: DensityField, dyn: DynamicsSpec) -> ScalarField:
    """L* m: the W-adjoint of L, as the FPE assembles it (epsilon = 0 here)."""
    grid = m.grid
    a_star = assemble_dual_diffusion(grid, dyn)
    return ScalarField(grid, (a_star @ m.values.ravel()).reshape(grid.shape))


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
        p1, p2 = degenerate_gradient(x1g, grid, dynamics_preset("grushin_exp"))
        np.testing.assert_allclose(p1, 1.0, atol=1e-12)
        np.testing.assert_allclose(p2, 0.0, atol=1e-12)

    def test_grushin_kills_x2_on_degenerate_line(self):
        # n1 odd so x1 = 0 is a node; h(0) = 0 there
        grid = make_grid(n1=33, n2=32)
        x1g, x2g = grid.meshgrid()
        p1, p2 = degenerate_gradient(x2g, grid, dynamics_preset("grushin_exp"))
        i0 = np.argmin(np.abs(grid.x1))
        assert grid.x1[i0] == 0.0
        np.testing.assert_allclose(p1[i0], 0.0, atol=1e-12)
        np.testing.assert_allclose(p2[i0], 0.0, atol=1e-15)

    def test_h_one_full_gradient(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        p1, p2 = degenerate_gradient(x1g + x2g, grid, const_dyn())
        np.testing.assert_allclose(p1, 1.0, atol=1e-12)
        np.testing.assert_allclose(p2, 1.0, atol=1e-12)

    def test_rejects_nonfinite(self):
        grid = make_grid()
        bad = np.zeros(grid.shape)
        bad[3, 3] = np.nan
        # a field cannot hold a NaN, so no operator ever sees one
        with pytest.raises(ConfigurationError):
            degenerate_gradient(ScalarField(grid, bad).values, grid, const_dyn())


class TestPathEqualsSlices:
    """On a (nt, n1, n2) path each operator gives its per-slice values."""

    @staticmethod
    def _path(grid, nt=5):
        rng = np.random.default_rng(11)
        return rng.normal(size=(nt,) + grid.shape).cumsum(axis=1).cumsum(axis=2)

    @pytest.mark.parametrize("n1, n2", [(32, 32), (17, 9)])
    def test_gradient_and_L(self, n1, n2):
        grid = make_grid(n1, n2)
        dyn = dynamics_preset("grushin_exp", epsilon=0.1)
        path = self._path(grid)
        p1, p2 = degenerate_gradient(path, grid, dyn)
        lu = apply_L(path, grid, dyn)
        for k in range(len(path)):
            q1, q2 = degenerate_gradient(path[k], grid, dyn)
            assert np.array_equal(p1[k], q1) and np.array_equal(p2[k], q2)
            assert np.array_equal(lu[k], apply_L(path[k], grid, dyn))

    def test_L_from_given_differences_and_tables(self):
        grid = make_grid(17, 9)
        dyn = dynamics_preset("grushin_exp", epsilon=0.1)
        path = self._path(grid)
        d2 = diff2(path, grid.dx1, -2), diff2(path, grid.dx2, -1)
        given = apply_L(path, grid, dyn, d2=d2,
                        coef=half_sigma_sq(grid, dyn))
        assert np.array_equal(given, apply_L(path, grid, dyn))

    @pytest.mark.parametrize("frame", [0.0, 0.2])
    def test_lipschitz_is_the_max_over_slices(self, frame):
        grid = make_grid(17, 9)
        path = self._path(grid)
        assert lipschitz_estimate(path, grid, frame) == max(
            lipschitz_estimate(v, grid, frame) for v in path)


class TestDiff2:
    """diff2 along each axis, the stencil of apply_L and the residual check."""

    @staticmethod
    def _axis(grid, axis):
        return grid.meshgrid()[axis], (grid.dx1, grid.dx2)[axis]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_quadratic(self, axis):
        x, dx = self._axis(make_grid(), axis)
        np.testing.assert_allclose(diff2(0.5 * x ** 2, dx, axis), 1.0,
                                   atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_exact_on_cubic(self, axis):
        # all stencils are second order; a cubic is differentiated exactly
        x, dx = self._axis(make_grid(), axis)
        np.testing.assert_allclose(diff2(x ** 3, dx, axis), 6.0 * x, atol=1e-8)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_second_order_convergence(self, axis):
        # smooth non-polynomial field: observed order >= 1.9 over refinements
        errs = []
        for n in [17, 33, 65, 129]:
            grid = make_grid(n1=n, n2=n, L=2.0)
            x, dx = self._axis(grid, axis)
            u = np.sin(x) * np.cos(grid.meshgrid()[1 - axis])
            errs.append(np.max(np.abs(diff2(u, dx, axis) + u)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)


class TestL:
    def test_unit_sigma_quadratic(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        out = apply_L(0.5 * (x1g ** 2 + x2g ** 2), grid, const_dyn())
        np.testing.assert_allclose(out, 1.0, atol=1e-10)

    def test_zero_sigma(self):
        grid = make_grid()
        x1g, x2g = grid.meshgrid()
        out = apply_L(np.sin(x1g * x2g), grid, const_dyn(0.0, 0.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_sin_sigma_vanishes_at_pi(self):
        grid = Grid2D(0.0, 2 * np.pi, -1.0, 1.0, 33, 16)
        x1g, x2g = grid.meshgrid()
        dyn = dynamics_preset("sin_sigma")
        out = apply_L(0.5 * x1g ** 2, grid, dyn)
        # sigma1 = sin(x1) vanishes at x1 = pi: 0.5 * sin(pi)^2 * 1 = 0
        i_pi = np.argmin(np.abs(grid.x1 - np.pi))
        np.testing.assert_allclose(out[i_pi], 0.0, atol=1e-10)


class TestLStar:
    def test_constant_sigma_self_adjoint(self):
        grid = make_grid()
        m = truncated_gaussian(grid, variance=0.4)
        dyn = const_dyn(0.7, 1.3)
        lstar = apply_L_star(m, dyn)
        lu = apply_L(m.values, grid, dyn)
        # flux form and centered form agree away from the boundary closure
        np.testing.assert_allclose(lstar.values[1:-1, 1:-1],
                                   lu[1:-1, 1:-1], atol=1e-10)

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
        lhs = np.sum(w * apply_L(u, grid, dyn) * m.values)
        rhs = np.sum(w * u * apply_L_star(m, dyn).values)
        assert abs(lhs - rhs) < 1e-8


class TestHamiltonianFeedback:
    def test_hamiltonian_values(self):
        grid = make_grid()
        z = np.zeros(grid.shape)
        assert np.all(hamiltonian((z, z)) == 0.0)
        one = np.ones(grid.shape)
        np.testing.assert_allclose(hamiltonian((one, one)), 1.0)
        np.testing.assert_allclose(hamiltonian((3 * one, 4 * one)), 12.5)


class TestDuality:
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
            check_regularity(dynamics_preset(name), grid)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_regularity_check_reads_sigma_not_its_modulus(self, n):
        # sigma1 = sin(x1): |sin| has kinks at k*pi whose second quotients
        # grow like 2/dx; those of sin itself stay at most 1
        grid = Grid2D(-5.0, 5.0, -5.0, 5.0, n, n)
        assert check_regularity(dynamics_preset("sin_sigma"), grid) <= 1.01

    def test_regularity_check_differentiates_along_x2(self):
        # sigma2 = sin(3 x2) is bounded by 1 but its x2 quotients are not
        dyn = DynamicsSpec(sigma1=lambda x1, x2: np.ones_like(x1),
                           sigma2=lambda x1, x2: np.sin(3.0 * x2),
                           h=lambda x1: np.ones_like(x1))
        grid = make_grid()
        assert check_regularity(dyn, grid) > 2.0
        with pytest.raises(ConfigurationError, match="sigma2"):
            check_regularity(dyn, grid, bound=2.0)

    def test_grushin_h_vanishes_at_origin(self):
        assert grushin_h(np.array([0.0]))[0] == 0.0
        assert grushin_h(np.array([1e-2]))[0] < 1e-300  # exp(-1e4) underflows
        # vanishes faster than any polynomial near 0
        x = np.array([0.05, 0.1, 0.2])
        assert np.all(grushin_h(x) < x ** 8)

    def test_grushin_h_is_silent_where_the_square_underflows(self):
        # 1e-160 ** 2 underflows to 0 and 1e-155 ** 2 is subnormal, so
        # -1/x^2 is -inf: h must read exp(-inf) = 0 quietly, as at +-0
        x = np.array([0.0, -0.0, 5e-324, 1e-160, -1e-160, 1e-155, 1e-154,
                      0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = grushin_h(x)
        assert np.array_equal(h[:-1], np.zeros(7))
        assert h[-1] == np.exp(-4.0)
