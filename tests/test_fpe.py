"""Forward FPE solver: conservation, positivity, heat-kernel oracle, degeneracy."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from degmfg.coupling import CouplingSpec
from degmfg.dynamics import DynamicsSpec, dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.fpe import (FpeReport, assemble_dual_diffusion, flux_transpose,
                        solve_fpe_forward)
from degmfg.grid import DensityField, Grid2D, ValuePath, truncated_gaussian
from degmfg.hjb import (HjbConfig, assemble_diffusion, implicit_diffusion,
                        solve_hjb_backward, upwind_slopes)
from degmfg.operators import hamiltonian
from references import centered_flux_fpe, constant_path, default_grid, \
    one_sided, uniform_density


def conservative_diff2(g: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Flux-form second derivative of g with zero boundary fluxes.

    Interior nodes own cells of width dx, boundary nodes dx/2; the weighted
    sum of the output telescopes to the (zero) boundary fluxes, so discrete
    mass of dx^2-integrable inputs is conserved exactly.
    """
    g = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
    flux = (g[1:] - g[:-1]) / dx  # flux at interior faces
    out = np.empty_like(g)
    out[1:-1] = (flux[1:] - flux[:-1]) / dx
    out[0] = flux[0] / (0.5 * dx)
    out[-1] = -flux[-1] / (0.5 * dx)
    return np.moveaxis(out, 0, axis)


def _zero_upath(grid, cfg):
    return ValuePath(grid, cfg.dt, np.zeros((cfg.nt,) + grid.shape))


def _linear_upath(grid, cfg, c1=0.0, c2=0.0):
    x1g, x2g = grid.meshgrid()
    field = c1 * x1g + c2 * x2g
    return ValuePath(grid, cfg.dt, np.repeat(field[None], cfg.nt, axis=0))


class TestConservationAndPositivity:
    def test_mass_conserved_per_step(self):
        grid = default_grid(5.0, 32, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        rep = FpeReport()
        solve_fpe_forward(truncated_gaussian(grid), _zero_upath(grid, cfg),
                          dyn, cfg, report=rep)
        assert rep.mass_drift_max < 1e-10

    def test_positivity_preserved(self):
        grid = default_grid(5.0, 32, 32)
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
        grid = default_grid(5.0, 32, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        u = _linear_upath(grid, cfg, c1=1.5)
        m, min_density = centered_flux_fpe(
            truncated_gaussian(grid), u, dynamics_preset("zero", epsilon=0.0),
            cfg)
        assert min_density < -1e-12
        assert m.values.min() < -1e-12

    def test_pure_diffusion_no_clamping_needed(self):
        grid = default_grid(5.0, 32, 32)
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
        grid = default_grid(5.0, 64, 64)
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
        assert grid.boundary_mass(m.values[-1]) < 1e-6

    def test_variance_growth_matches_moments(self):
        eps, s, v0 = 0.05, 0.5, 0.25
        grid = default_grid(5.0, 64, 64)
        cfg = HjbConfig(T=1.0, nt=128)
        m = solve_fpe_forward(truncated_gaussian(grid, variance=v0),
                              _zero_upath(grid, cfg),
                              dynamics_preset("grushin_exp", epsilon=eps), cfg)
        got = grid.second_moment(m.values[-1])
        expected = 2.0 * (v0 + (2.0 * eps + s ** 2) * cfg.T)
        assert abs(got - expected) < 0.05 * expected


class TestDegenerateDirection:
    def test_dead_x2_direction(self):
        # h == 0, sigma2 = 0, eps = 0, u = x2: every x2 flux carries factor h = 0
        grid = default_grid(3.0, 24, 24)
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
        grid = default_grid(5.0, 48, 48)
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

    GRIDS = (default_grid(5.0, 32, 32), Grid2D(-2.0, 3.0, -1.0, 0.5, 17, 9))

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


def _apply_j(v, p, grid, hg):
    """J v = p1b D1- v + p1f D1+ v + h p2b D2- v + h p2f D2+ v."""
    p1b, p1f, p2b, p2f = p
    b1, f1 = one_sided(v, grid.dx1, axis=0)
    b2, f2 = one_sided(v, grid.dx2, axis=1)
    return p1b * b1 + p1f * f1 + hg * (p2b * b2 + p2f * f2)


class TestTransportDuality:
    """The FPE transport is the W-adjoint of the HJB flux's derivative J."""

    GRIDS = TestDualDiffusion.GRIDS
    DT = 0.01

    def _setup(self, preset, grid, seed=5):
        dyn = dynamics_preset(preset, epsilon=0.05)
        hg = dyn.h_grid(grid)
        rng = np.random.default_rng(seed)
        u, m, v = rng.standard_normal((3,) + grid.shape)
        # scale u so that dt times the diagonal of J is 1/2 at most
        p1, p2 = upwind_slopes(u, grid, hg)
        diag = np.max(np.abs(p1) / grid.dx1 + hg * np.abs(p2) / grid.dx2)
        u *= 0.5 / (self.DT * diag)
        p1, p2 = upwind_slopes(u, grid, hg)
        p = (np.maximum(p1, 0.0), np.minimum(p1, 0.0),
             np.maximum(p2, 0.0), np.minimum(p2, 0.0))
        return dyn, hg, u, m, v, p

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("grid", GRIDS, ids=("32x32", "17x9"))
    def test_flux_and_its_adjoint(self, preset, grid):
        dyn, hg, u, m, v, p = self._setup(preset, grid)
        w = grid.cell_weights()
        # the flux is (1/2) J(u) u: J is its derivative at u
        ham = hamiltonian(upwind_slopes(u, grid, hg))
        assert np.abs(ham - 0.5 * _apply_j(u, p, grid, hg)).max() \
            <= 1e-14 * np.abs(ham).max()
        # <W^-1 J^T W m, v>_W == <m, J v>_W
        jt = flux_transpose(w * m, p, grid, hg)
        jv = _apply_j(v, p, grid, hg)
        assert abs(np.sum(jt * v) - np.sum(w * m * jv)) \
            <= 1e-13 * np.sum(np.abs(w * m * jv))
        # J^T entries cancel: the transport keeps W-mass
        assert abs(np.sum(jt)) <= 1e-13 * np.sum(np.abs(jt))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("grid", GRIDS, ids=("32x32", "17x9"))
    def test_step_is_adjoint_of_linearized_hjb_step(self, preset, grid):
        dyn, hg, u, m, v, p = self._setup(preset, grid)
        cfg = HjbConfig(T=self.DT, nt=2)
        w = grid.cell_weights()
        m0 = np.abs(m)
        m0 /= np.sum(w * m0)
        # the step reads u^{k+1}; u^0 must not matter
        u_path = ValuePath(grid, cfg.dt, np.stack([-u, u]))
        m1 = solve_fpe_forward(DensityField(grid, m0), u_path, dyn, cfg).values[1]
        hjb_solve, _ = implicit_diffusion(grid, dyn, cfg.dt)
        back = hjb_solve((v - cfg.dt * _apply_j(v, p, grid, hg)).ravel())
        lhs = np.sum(w * m1 * v)
        rhs = np.sum(w.ravel() * m0.ravel() * back)
        assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(w * m1 * v))
        assert abs(np.sum(w * m1) - 1.0) <= 1e-13


class TestSecondMoment:
    def test_narrow_gaussian(self):
        grid = default_grid(2.0, 256, 256)
        m = truncated_gaussian(grid, variance=1e-4)
        assert abs(grid.second_moment(m.values) - 2e-4) < 0.05 * 2e-4

    def test_uniform_on_unit_box(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 128, 128)
        assert abs(grid.second_moment(uniform_density(grid).values)
                   - 2.0 / 3.0) < 1e-3

    def test_parallel_axis_translation(self):
        grid = default_grid(5.0, 128, 128)
        centered = truncated_gaussian(grid, variance=0.2)
        shifted = truncated_gaussian(grid, center=(1.0, 0.0), variance=0.2)
        assert abs(grid.second_moment(shifted.values)
                   - grid.second_moment(centered.values) - 1.0) < 1e-6


class TestErrors:
    def test_grid_mismatch(self):
        grid = default_grid(3.0, 16, 16)
        other = default_grid(3.0, 20, 20)
        cfg = HjbConfig(T=1.0, nt=16)
        with pytest.raises(ConfigurationError):
            solve_fpe_forward(truncated_gaussian(other), _zero_upath(grid, cfg),
                              dynamics_preset("zero", epsilon=0.0), cfg)

    def test_transport_cfl_violation(self):
        grid = default_grid(3.0, 64, 64)
        cfg = HjbConfig(T=1.0, nt=5)
        with pytest.raises(ConfigurationError):
            solve_fpe_forward(truncated_gaussian(grid, variance=0.2),
                              _linear_upath(grid, cfg, c1=20.0),
                              dynamics_preset("zero", epsilon=0.0), cfg)

    # ids without a grid run 33x33 with h == 1; on 33x17 (dx2 = 2 dx1) each
    # axis reads its own dx, and h = 0.5 and 0 pin the h^2 weight of x2
    CFL_CASES = [pytest.param((33, 33), 1.0, axis, courant,
                              id="%d-%s" % (axis, courant))
                 for axis in (1, 2) for courant in (0.99, 1.01)] + [
        pytest.param((33, 17), h, axis, courant,
                     id="33x17-h%s-%d-%s" % (h, axis, courant))
        for h in (1.0, 0.5, 0.0) for axis in (1, 2)
        for courant in (0.99, 1.01)]

    @staticmethod
    def _cfl_case(shape, h, axis, courant, profile):
        """Both solvers on u = profile(c x_i) with sigma == 0 and h constant,
        c set so that the Courant number dt h_i^2 c / dx_i (h_1 = 1, h_2 = h)
        of the step is ``courant``: the HJB from u_T = u with F = 0, the FPE
        through u held still. Both must refuse the step above 1 and march
        it below; with h = 0 nothing moves in x2 at any c."""
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, *shape)
        cfg = HjbConfig(T=1.0, nt=17)
        weight = 1.0 if axis == 1 else h * h
        c = courant * (grid.dx1, grid.dx2)[axis - 1] / (cfg.dt * (weight or 1.0))
        u_T = profile(c * grid.meshgrid()[axis - 1])
        zero = lambda x1, x2: np.zeros_like(x1)
        dyn = DynamicsSpec(sigma1=zero, sigma2=zero,
                           h=lambda x1: np.full_like(x1, h))
        coupling = CouplingSpec(F=lambda x1, x2, m: zero(x1, x2),
                                G=lambda x1, x2, m: u_T, monotone=True)
        m_path = constant_path(uniform_density(grid), cfg.dt, cfg.nt)
        u_path = ValuePath(grid, cfg.dt, np.repeat(u_T[None], cfg.nt, axis=0))
        fpe_args = (truncated_gaussian(grid, variance=0.2), u_path, dyn, cfg)
        if courant > 1.0 and weight > 0.0:
            with pytest.raises(ConfigurationError, match="HJB transport CFL"):
                solve_hjb_backward(dyn, coupling, m_path, cfg)
            with pytest.raises(ConfigurationError, match="FPE transport CFL"):
                solve_fpe_forward(*fpe_args)
            return
        solve_hjb_backward(dyn, coupling, m_path, cfg)
        rep = FpeReport()
        solve_fpe_forward(*fpe_args, report=rep)
        assert rep.min_density >= 0.0
        assert rep.mass_drift_max <= 1e-12

    @pytest.mark.parametrize("shape, h, axis, courant", CFL_CASES)
    def test_cfl_is_the_hjb_monotonicity_rule(self, shape, h, axis, courant):
        # u = c x_i moves mass towards x_i = -2; the boundary half cell obeys
        # the same rule dt c / dx <= 1 as the interior and as the HJB step
        self._cfl_case(shape, h, axis, courant, lambda v: v)

    @pytest.mark.parametrize("shape, h, axis, courant", CFL_CASES)
    def test_cfl_counts_one_face_at_a_ridge(self, shape, h, axis, courant):
        # u = -c |x_i| sends mass away from x_i = 0 through both faces; the
        # Godunov flux makes one active there, so the rule is dt c / dx <= 1
        # (a flux that added both one-sided slopes would read 2 dt c / dx)
        self._cfl_case(shape, h, axis, courant, lambda v: -np.abs(v))

    def test_sup_norm_growth_bounded(self):
        # barrier-style bound: growth factor of ||m||_inf stays below e^{C T}
        grid = default_grid(5.0, 32, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        x1g, x2g = grid.meshgrid()
        u = ValuePath(grid, cfg.dt, np.repeat(
            (0.25 * (x1g ** 2 + x2g ** 2) / 10.0)[None], cfg.nt, axis=0))
        m = solve_fpe_forward(truncated_gaussian(grid), u,
                              dynamics_preset("grushin_exp", epsilon=0.05), cfg)
        growth = m.values.max(axis=(1, 2)) / m.values[0].max()
        assert growth.max() < np.exp(2.0 * cfg.T)
