"""Forward FPE solver: conservation, positivity, heat-kernel oracle, degeneracy."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from degmfg.dynamics import DynamicsSpec, dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.fpe import FpeReport, assemble_dual_diffusion, solve_fpe_forward
from degmfg.grid import (DensityField, Grid2D, ValuePath, truncated_gaussian,
                         uniform_density)
from degmfg.hjb import HjbConfig, assemble_diffusion, implicit_diffusion
from degmfg.operators import conservative_diff2


def _box(half, n):
    return Grid2D(-half, half, -half, half, n, n)


def _zero_upath(grid, cfg):
    return ValuePath(grid, cfg.dt, np.zeros((cfg.nt,) + grid.shape))


def _linear_upath(grid, cfg, c1=0.0, c2=0.0):
    x1g, x2g = grid.meshgrid()
    field = c1 * x1g + c2 * x2g
    return ValuePath(grid, cfg.dt, np.repeat(field[None], cfg.nt, axis=0))


class TestConservationAndPositivity:
    def test_mass_conserved_per_step(self):
        grid = _box(5.0, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        rep = FpeReport()
        solve_fpe_forward(truncated_gaussian(grid), _zero_upath(grid, cfg),
                          dyn, cfg, report=rep)
        assert rep.mass_drift_max < 1e-10

    def test_positivity_preserved(self):
        grid = _box(5.0, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        x1g, x2g = grid.meshgrid()
        u = ValuePath(grid, cfg.dt, np.repeat(
            (0.3 * np.sin(x1g) + 0.2 * x2g ** 2 / 10.0)[None], cfg.nt, axis=0))
        rep = FpeReport()
        m = solve_fpe_forward(truncated_gaussian(grid), u,
                              dynamics_preset("grushin_exp", epsilon=0.05),
                              cfg, report=rep)
        assert rep.min_density >= -1e-12
        assert m.values.min() >= 0.0

    def test_sabotaged_centered_flux_breaks_positivity(self):
        # negative control: the centered flux must visibly violate positivity
        grid = _box(5.0, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        u = _linear_upath(grid, cfg, c1=1.5)
        rep = FpeReport()
        m = solve_fpe_forward(truncated_gaussian(grid), u,
                              dynamics_preset("zero", epsilon=0.0),
                              cfg, sabotage_upwind=True, report=rep)
        assert rep.min_density < -1e-12
        assert m.values.min() < -1e-12

    def test_pure_diffusion_no_clamping_needed(self):
        grid = _box(5.0, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        rep = FpeReport()
        solve_fpe_forward(truncated_gaussian(grid), _zero_upath(grid, cfg),
                          dynamics_preset("grushin_exp", epsilon=0.1),
                          cfg, report=rep)
        assert rep.renormalization_max == 0.0


class TestHeatKernelOracle:
    def test_matches_analytic_gaussian(self):
        # zero drift, constant sigma = s, eps: variance grows by (2 eps + s^2) t
        eps, s, v0 = 0.05, 0.5, 0.25
        grid = _box(5.0, 64)
        cfg = HjbConfig(T=1.0, nt=128)
        dyn = dynamics_preset("grushin_exp", epsilon=eps)
        m = solve_fpe_forward(truncated_gaussian(grid, variance=v0),
                              _zero_upath(grid, cfg), dyn, cfg)
        x1g, x2g = grid.meshgrid()
        w = grid.cell_weights()
        for k in (cfg.nt // 2, cfg.nt - 1):
            v = v0 + (2.0 * eps + s ** 2) * (k * cfg.dt)
            exact = np.exp(-(x1g ** 2 + x2g ** 2) / (2.0 * v)) / (2.0 * np.pi * v)
            l1 = float(np.sum(w * np.abs(m.values[k] - exact)))
            assert l1 < 2e-2  # measured 5.6e-3 at 64^2
        assert m.slice(m.nt - 1).boundary_mass() < 1e-6

    def test_variance_growth_matches_moments(self):
        eps, s, v0 = 0.05, 0.5, 0.25
        grid = _box(5.0, 64)
        cfg = HjbConfig(T=1.0, nt=128)
        m = solve_fpe_forward(truncated_gaussian(grid, variance=v0),
                              _zero_upath(grid, cfg),
                              dynamics_preset("grushin_exp", epsilon=eps), cfg)
        got = m.slice(m.nt - 1).second_moment()
        expected = 2.0 * (v0 + (2.0 * eps + s ** 2) * cfg.T)
        assert abs(got - expected) < 0.05 * expected


class TestDegenerateDirection:
    def test_dead_x2_direction(self):
        # h == 0, sigma2 = 0, eps = 0, u = x2: every x2 flux carries factor h = 0
        grid = _box(3.0, 24)
        cfg = HjbConfig(T=1.0, nt=32)
        dyn = DynamicsSpec(sigma1=lambda x1, x2: np.zeros_like(x1),
                           sigma2=lambda x1, x2: np.zeros_like(x1),
                           h=lambda x1: np.zeros_like(x1), epsilon=0.0)
        m0 = truncated_gaussian(grid, variance=0.2)
        m = solve_fpe_forward(m0, _linear_upath(grid, cfg, c2=1.0), dyn, cfg)
        w2 = np.full(grid.n2, grid.dx2)
        w2[[0, -1]] = 0.5 * grid.dx2
        marg0 = (m0.values * w2).sum(axis=1)
        for k in range(m.nt):
            margk = (m.values[k] * w2).sum(axis=1)
            assert np.abs(margk - marg0).max() < 1e-10

    def test_transport_moves_mean_in_x1(self):
        # u = c x1  ->  drift -c in x1; the mean must move accordingly
        grid = _box(5.0, 48)
        cfg = HjbConfig(T=1.0, nt=96)
        c = 1.0
        m = solve_fpe_forward(truncated_gaussian(grid, variance=0.2),
                              _linear_upath(grid, cfg, c1=c),
                              dynamics_preset("zero", epsilon=0.0), cfg)
        x1g, _ = grid.meshgrid()
        w = grid.cell_weights()
        mean_end = float(np.sum(w * m.values[-1] * x1g))
        assert abs(mean_end - (-c * cfg.T)) < 0.05


PRESETS = ("grushin_exp", "sin_sigma", "nondegenerate", "fully_degenerate_x2",
           "zero")


class TestDualDiffusion:
    """The FPE diffusion is the trapezoid-weighted adjoint of the HJB one."""

    GRIDS = (_box(5.0, 32), Grid2D(-2.0, 3.0, -1.0, 0.5, 17, 9))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("eps", (0.0, 0.05))
    @pytest.mark.parametrize("grid", GRIDS, ids=("32x32", "17x9"))
    def test_weighted_adjoint_and_mass(self, preset, eps, grid):
        dyn = dynamics_preset(preset, epsilon=eps)
        a = assemble_diffusion(grid, dyn)
        a_star = assemble_dual_diffusion(grid, dyn)
        w = grid.cell_weights().ravel()
        u, m = np.random.default_rng(7).standard_normal((2, grid.n_nodes))
        au = a @ u
        # <A u, m>_W == <u, A* m>_W
        lhs = np.sum(w * au * m)
        rhs = np.sum(w * u * (a_star @ m))
        assert abs(lhs - rhs) <= 1e-13 * np.sum(w * np.abs(au * m))
        # W-weighted column sums of A* vanish: the implicit step keeps mass
        col = a_star.T @ w
        assert np.abs(col).max() <= 1e-13 * (abs(a_star).T @ w).max()

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("eps", (0.0, 0.05))
    @pytest.mark.parametrize("grid", GRIDS, ids=("32x32", "17x9"))
    def test_implicit_solves_are_adjoint(self, preset, eps, grid):
        # the FPE step is the W-weighted transposed solve of the HJB matrix
        dyn = dynamics_preset(preset, epsilon=eps)
        dt = 1.0 / 63.0
        hjb_solve, fpe_solve = implicit_diffusion(grid, dyn, dt)
        w = grid.cell_weights().ravel()
        r, s = np.random.default_rng(11).standard_normal((2, grid.n_nodes))
        m, u = fpe_solve(r), hjb_solve(s)
        dual = sparse.csc_matrix(sparse.identity(grid.n_nodes)
                                 - dt * assemble_dual_diffusion(grid, dyn))
        expected = spsolve(dual, r)
        assert np.abs(m - expected).max() <= 1e-13 * np.abs(expected).max()
        # <fpe_solve(r), s>_W == <r, hjb_solve(s)>_W
        lhs = np.sum(w * m * s)
        rhs = np.sum(w * r * u)
        assert abs(lhs - rhs) <= 1e-13 * np.sum(w * np.abs(r * u))
        # the step keeps trapezoidal mass
        assert abs(np.sum(w * m) - np.sum(w * r)) <= 1e-13 * np.sum(w * np.abs(r))
        if preset == "zero" and eps == 0.0:
            assert m.tobytes() == r.tobytes() and u.tobytes() == s.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("grid", GRIDS, ids=("32x32", "17x9"))
    def test_matches_flux_form(self, preset, grid):
        # eps*Laplace + (1/2) sum d^2(sigma_i^2 m) with zero boundary fluxes
        dyn = dynamics_preset(preset, epsilon=0.05)
        x1g, x2g = grid.meshgrid()
        m = np.random.default_rng(3).uniform(0.0, 1.0, grid.shape)
        g1 = dyn.epsilon + 0.5 * dyn.sigma1_sq(x1g, x2g)
        g2 = dyn.epsilon + 0.5 * dyn.sigma2_sq(x1g, x2g)
        expected = conservative_diff2(g1 * m, grid.dx1, axis=0) \
            + conservative_diff2(g2 * m, grid.dx2, axis=1)
        got = (assemble_dual_diffusion(grid, dyn) @ m.ravel()).reshape(grid.shape)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestSecondMoment:
    def test_narrow_gaussian(self):
        grid = _box(2.0, 256)
        m = truncated_gaussian(grid, variance=1e-4)
        assert abs(m.second_moment() - 2e-4) < 0.05 * 2e-4

    def test_uniform_on_unit_box(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 128, 128)
        assert abs(uniform_density(grid).second_moment() - 2.0 / 3.0) < 1e-3

    def test_parallel_axis_translation(self):
        grid = _box(5.0, 128)
        centered = truncated_gaussian(grid, variance=0.2)
        shifted = truncated_gaussian(grid, center=(1.0, 0.0), variance=0.2)
        assert abs(shifted.second_moment() - centered.second_moment() - 1.0) < 1e-6


class TestErrors:
    def test_grid_mismatch(self):
        grid = _box(3.0, 16)
        other = _box(3.0, 20)
        cfg = HjbConfig(T=1.0, nt=16)
        with pytest.raises(ConfigurationError):
            solve_fpe_forward(truncated_gaussian(other), _zero_upath(grid, cfg),
                              dynamics_preset("zero", epsilon=0.0), cfg)

    def test_transport_cfl_violation(self):
        grid = _box(3.0, 64)
        cfg = HjbConfig(T=1.0, nt=5)
        with pytest.raises(ConfigurationError):
            solve_fpe_forward(truncated_gaussian(grid, variance=0.2),
                              _linear_upath(grid, cfg, c1=20.0),
                              dynamics_preset("zero", epsilon=0.0), cfg)

    def test_sup_norm_growth_bounded(self):
        # barrier-style bound: growth factor of ||m||_inf stays below e^{C T}
        grid = _box(5.0, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        x1g, x2g = grid.meshgrid()
        u = ValuePath(grid, cfg.dt, np.repeat(
            (0.25 * (x1g ** 2 + x2g ** 2) / 10.0)[None], cfg.nt, axis=0))
        m = solve_fpe_forward(truncated_gaussian(grid), u,
                              dynamics_preset("grushin_exp", epsilon=0.05), cfg)
        growth = m.values.max(axis=(1, 2)) / m.values[0].max()
        assert growth.max() < np.exp(2.0 * cfg.T)
