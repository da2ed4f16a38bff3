"""Backward HJE solver: exact fixtures, brute-force oracle, scheme properties."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import degmfg
from degmfg import hjb
from degmfg.coupling import CouplingSpec, builtin_coupling
from degmfg.dynamics import DynamicsSpec, dynamics_preset, grushin_h
from degmfg.errors import ConfigurationError
from degmfg.fpe import solve_fpe_forward
from degmfg.grid import DensityPath, Grid2D, ScalarField, ValuePath
from degmfg.hjb import HjbConfig, pde_residual, solve_hjb_backward, \
    upwind_slopes
from degmfg.operators import apply_L, degenerate_gradient, diff2, hamiltonian
from references import const_coupling, constant_path, default_grid, \
    hopf_lax_oracle, one_sided, uniform_density


def _zeros(x1, x2, m):
    return np.zeros_like(x1)


def _frozen_path(grid, cfg):
    return constant_path(uniform_density(grid), cfg.dt, cfg.nt)


class TestExactFixtures:
    def test_constant_data_gives_constant_solution(self):
        grid = default_grid(3.0, 16, 16)
        cfg = HjbConfig(T=1.0, nt=16)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.1),
                               const_coupling(0.0, 2.5), _frozen_path(grid, cfg), cfg)
        assert np.abs(u.values - 2.5).max() < 1e-12

    def test_space_constant_solution_T_minus_t(self):
        # F == 1, G == 0, sigma = 0, eps = 0: u(x,t) = T - t exactly
        grid = default_grid(3.0, 16, 16)
        cfg = HjbConfig(T=1.0, nt=17)
        u = solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               const_coupling(1.0, 0.0), _frozen_path(grid, cfg), cfg)
        expected = (cfg.T - u.times())[:, None, None]
        assert np.abs(u.values - expected).max() < 1e-12


class TestHopfLaxOracle:
    def test_constant_terminal(self):
        grid = default_grid(3.0, 16, 16)
        g = ScalarField(grid, np.full(grid.shape, 1.25))
        out = hopf_lax_oracle(g, 0.0, 1.0)
        assert np.abs(out.values - 1.25).max() < 1e-14

    def test_quadratic_infimal_convolution(self):
        # G = |y|^2/2, T - t = 1  ->  u = |x|^2/4 (exact inf-convolution),
        # up to the discreteness of the brute-force minimizer grid
        grid = default_grid(4.0, 128, 128)
        x1g, x2g = grid.meshgrid()
        g = ScalarField(grid, (x1g ** 2 + x2g ** 2) / 2.0)
        out = hopf_lax_oracle(g, 0.0, 1.0)
        exact = (x1g ** 2 + x2g ** 2) / 4.0
        assert np.abs(out.values - exact).max() < 2.0 * max(grid.dx1, grid.dx2) ** 2

    @pytest.mark.parametrize("grid", (Grid2D(-2.0, 3.0, -1.0, 0.5, 17, 9),
                                      default_grid(3.0, 32, 32)),
                             ids=("17x9", "32x32"))
    @pytest.mark.parametrize("t", (0.0, 0.3, 0.75, 0.99))
    def test_two_passes_match_brute_force(self, grid, t):
        # min over every pair of nodes at once, the oracle's own definition
        x1g, x2g = grid.meshgrid()
        g = np.minimum((x1g - 1.0) ** 2, (x1g + 1.0) ** 2) / 2.0 + x2g ** 2 \
            + 0.3 * np.sin(2.0 * x1g * x2g)  # not separable
        xs = np.stack([x1g.ravel(), x2g.ravel()], axis=1)
        d2 = ((xs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
        brute = np.min(g.ravel()[None, :] + d2 / (2.0 * (1.0 - t)), axis=1)
        out = hopf_lax_oracle(ScalarField(grid, g), t, 1.0)
        assert np.abs(out.values - brute.reshape(grid.shape)).max() <= 1e-14

    def test_rejects_t_at_or_past_horizon(self):
        grid = default_grid(3.0, 8, 8)
        g = ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ConfigurationError):
            hopf_lax_oracle(g, 1.0, 1.0)

    def test_solver_matches_oracle_two_well(self):
        # zero diffusion, h == 1: classical quadratic-Hamiltonian HJ equation
        a = 1.0

        def G(x1, x2, m):
            return np.minimum((x1 - a) ** 2 + x2 ** 2,
                              (x1 + a) ** 2 + x2 ** 2) / 2.0

        coup = CouplingSpec(F=_zeros, G=G, monotone=True)
        dyn = dynamics_preset("zero", epsilon=0.0)
        n, nt = 64, 128
        grid = default_grid(3.0, n, n)
        cfg = HjbConfig(T=1.0, nt=nt)
        u = solve_hjb_backward(dyn, coup, _frozen_path(grid, cfg), cfg)
        hl = hopf_lax_oracle(u.slice(nt - 1), 0.0, cfg.T)
        k = int(round(0.1 * n))
        err = np.abs(u.values[0] - hl.values)[k:n - k, k:n - k].max()
        # first-order scheme: measured error tracks ~1.1*dx (0.028 at 128^2)
        assert err < 2.5 * (grid.dx1 + cfg.dt)


class TestSchemeProperties:
    def test_maximum_principle_bound(self):
        grid = default_grid(3.0, 24, 24)
        cfg = HjbConfig(T=1.0, nt=48)
        coup = builtin_coupling("nonlocal_smooth")
        m_path = _frozen_path(grid, cfg)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.05),
                               coup, m_path, cfg)
        g_sup = np.abs(coup.terminal_cost(m_path.slice(cfg.nt - 1)).values).max()
        f_sup = np.abs(coup.running_cost(m_path)).max()
        assert np.abs(u.values).max() <= g_sup + cfg.T * f_sup + 1e-6

    def test_comparison_monotonicity(self):
        # G1 <= G2 and F1 <= F2 pointwise  ->  u1 <= u2 everywhere
        grid = default_grid(3.0, 24, 24)
        cfg = HjbConfig(T=0.5, nt=32)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        m_path = _frozen_path(grid, cfg)

        def bump(x1, x2, m):
            return np.exp(-(x1 ** 2 + x2 ** 2))

        lo = CouplingSpec(F=_zeros, G=bump, monotone=True)
        hi = CouplingSpec(
            F=lambda x1, x2, m: 0.3 * np.ones_like(x1),
            G=lambda x1, x2, m: bump(x1, x2, m) + 0.1 * x1 ** 2,
            monotone=True)
        u1 = solve_hjb_backward(dyn, lo, m_path, cfg)
        u2 = solve_hjb_backward(dyn, hi, m_path, cfg)
        assert (u1.values <= u2.values + 1e-8).all()

    def test_terminal_slice_is_exact_terminal_cost(self):
        grid = default_grid(3.0, 24, 24)
        cfg = HjbConfig(T=1.0, nt=32)
        coup = builtin_coupling("nonlocal_smooth")
        m_path = _frozen_path(grid, cfg)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.05),
                               coup, m_path, cfg)
        g_vals = coup.terminal_cost(m_path.slice(cfg.nt - 1)).values
        assert np.array_equal(u.values[-1], g_vals)

    def test_time_shift_estimate(self):
        # ||u(.,t) - u(.,T)||_inf <= C1 (T - t) with C1 from the data bounds
        grid = default_grid(3.0, 24, 24)
        cfg = HjbConfig(T=1.0, nt=48)
        coup = builtin_coupling("nonlocal_smooth")
        m_path = _frozen_path(grid, cfg)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        u = solve_hjb_backward(dyn, coup, m_path, cfg)
        times = u.times()
        ratios = [np.abs(u.values[k] - u.values[-1]).max() / (cfg.T - times[k])
                  for k in range(cfg.nt - 1)]
        assert np.isfinite(ratios).all()
        assert max(ratios) < 50.0

    def test_cfl_violation_is_configuration_error(self):
        # steep terminal data + coarse time mesh breaks the transport CFL
        grid = default_grid(3.0, 64, 64)
        cfg = HjbConfig(T=1.0, nt=5)
        coup = CouplingSpec(
            F=_zeros, G=lambda x1, x2, m: 10.0 * (x1 ** 2 + x2 ** 2),
            monotone=True)
        with pytest.raises(ConfigurationError):
            solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               coup, _frozen_path(grid, cfg), cfg)

    def test_slopes_steeper_than_the_data_are_refused(self):
        # h = |x1|, G = c x2: the first step's Courant number reads 0.09 c
        # (0.450, 0.540), yet H's x1-derivative h h' p2^2 steepens u in x1
        # until a later step's reads 1.001 (c = 5) or 1.067 (c = 6)
        grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 31, 4)
        cfg = HjbConfig(T=1.0, nt=51)
        dyn = replace(dynamics_preset("zero", epsilon=0.0), h=np.abs)
        for c, courant in ((5.0, "1.001"), (6.0, "1.067")):
            coup = CouplingSpec(F=_zeros, G=lambda x1, x2, m: c * x2,
                                monotone=True)
            with pytest.raises(ConfigurationError, match="HJB transport CFL"
                               ".* = %s > 1" % courant):
                solve_hjb_backward(dyn, coup, _frozen_path(grid, cfg), cfg)

    def test_a_negative_h_marches_as_its_absolute_value(self):
        # H reads h through h^2, so h = x1 and h = |x1| are one game; both
        # marches weight the slopes by |h|, so u and m agree bit for bit
        # (with h itself, h = x1 read Courant 1.006 at x1 = -2.4 and the
        # HJB step was refused)
        grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 31, 4)
        cfg = HjbConfig(T=1.0, nt=51)
        coup = CouplingSpec(F=_zeros, G=lambda x1, x2, m: 2.0 * x2,
                            monotone=True)
        fields = []
        for h in (lambda x1: x1, np.abs):
            dyn = replace(dynamics_preset("zero", epsilon=0.0), h=h)
            u = solve_hjb_backward(dyn, coup, _frozen_path(grid, cfg), cfg)
            m = solve_fpe_forward(uniform_density(grid), u, dyn, cfg)
            fields.append((u.values.tobytes(), m.values.tobytes()))
        assert fields[0] == fields[1]

    def test_mesh_mismatch_is_configuration_error(self):
        grid = default_grid(3.0, 16, 16)
        cfg = HjbConfig(T=1.0, nt=16)
        bad = HjbConfig(T=1.0, nt=24)
        with pytest.raises(ConfigurationError):
            solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               const_coupling(), _frozen_path(grid, bad), cfg)


class TestUpwindSlopes:
    """Signs of the Godunov slopes: p > 0 where the backward difference is
    active, p < 0 where the forward one is, p = 0 at a local minimum."""

    C = 1.5

    @staticmethod
    def _setup(axis):
        # 17 nodes on [-2, 2]: node 8 sits at 0; h varies along x1 and is
        # positive, so the x2 slope must come out multiplied by it
        grid = default_grid(2.0, 17, 17)
        x1g, x2g = grid.meshgrid()
        return grid, (x1g, x2g)[axis - 1], 1.0 + x1g ** 2

    @staticmethod
    def _along(values, axis):
        return np.moveaxis(values, axis - 1, 0)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("axis", (1, 2))
    def test_linear_field(self, axis, sign):
        grid, x, hg = self._setup(axis)
        c = sign * self.C
        p = upwind_slopes(c * x, grid, hg)
        weight = np.ones(grid.shape) if axis == 1 else hg
        expected = self._along(c * weight, axis).copy()
        # the zero-slope extension makes the upwind end a flat minimum
        expected[0 if sign > 0 else -1] = 0.0
        np.testing.assert_allclose(self._along(p[axis - 1], axis), expected,
                                   rtol=1e-12, atol=1e-12)
        assert not np.any(p[2 - axis])

    @pytest.mark.parametrize("axis", (1, 2))
    def test_zero_at_a_local_minimum(self, axis):
        grid, x, hg = self._setup(axis)
        p = self._along(upwind_slopes(self.C * np.abs(x), grid, hg)[axis - 1],
                        axis)
        assert not np.any(p[8])
        assert np.all(p[9:] > 0.0) and np.all(p[1:8] < 0.0)

    @pytest.mark.parametrize("axis", (1, 2))
    def test_one_side_active_at_a_ridge(self, axis):
        # both one-sided slopes are active at the ridge; Godunov keeps one,
        # so dt |p| / dx there is the Courant number of one face
        grid, x, hg = self._setup(axis)
        p = self._along(upwind_slopes(-self.C * np.abs(x), grid, hg)[axis - 1],
                        axis)
        weight = 1.0 if axis == 1 else self._along(hg, axis)[8]
        np.testing.assert_allclose(p[8], self.C * weight, rtol=1e-12)

    def test_hamiltonian_is_half_the_squared_slopes(self):
        grid, _, hg = self._setup(1)
        x1g, x2g = grid.meshgrid()
        ham = hamiltonian(upwind_slopes(0.5 * x1g - 2.0 * x2g, grid, hg))
        # the first x1 row and the last x2 column are flat minima
        np.testing.assert_allclose(ham[1:, :-1],
                                   0.5 * (0.25 + 4.0 * hg[1:, :-1] ** 2),
                                   rtol=1e-12)


def _godunov(backward, forward):
    pb, pf = np.maximum(backward, 0.0), np.minimum(forward, 0.0)
    return np.where(pb >= -pf, pb, pf)


@pytest.mark.parametrize("n1, n2", [(32, 32), (17, 9)])
@pytest.mark.parametrize("h", ["zero", "one", "grushin"])
def test_upwind_slopes_equal_the_one_sided_reference(n1, n2, h):
    grid = Grid2D(-3.0, 3.0, -2.0, 2.0, n1, n2)
    hg = {"zero": np.zeros(grid.shape), "one": np.ones(grid.shape),
          "grushin": np.repeat(grushin_h(grid.x1)[:, None], n2, axis=1)}[h]
    rng = np.random.default_rng(11)
    # a smooth field, noise, and a coarse staircase whose flat steps and
    # equal opposite slopes exercise the ties of the Godunov choice
    x1g, x2g = grid.meshgrid()
    for u in (np.sin(x1g) * np.cos(2.0 * x2g), rng.normal(size=grid.shape),
              np.round(rng.normal(size=grid.shape))):
        b1, f1 = one_sided(u, grid.dx1, axis=0)
        b2, f2 = one_sided(u, grid.dx2, axis=1)
        ref = _godunov(b1, f1), _godunov(hg * b2, hg * f2)
        for p, q in zip(upwind_slopes(u, grid, hg), ref):
            assert p.shape == q.shape and p.tobytes() == q.tobytes()


class TestPdeResidual:
    def test_constant_solution_zero_residual(self):
        grid = default_grid(3.0, 16, 16)
        cfg = HjbConfig(T=1.0, nt=9)
        u = ValuePath(grid, cfg.dt, np.full((cfg.nt,) + grid.shape, 1.5))
        res = pde_residual(u, dynamics_preset("grushin_exp", epsilon=0.1),
                           const_coupling(0.0, 1.5), _frozen_path(grid, cfg))
        assert res.shape == (cfg.nt - 2,) + grid.shape
        assert np.abs(res).max() < 1e-10

    def test_T_minus_t_zero_residual(self):
        grid = default_grid(3.0, 16, 16)
        cfg = HjbConfig(T=1.0, nt=9)
        times = cfg.dt * np.arange(cfg.nt)
        vals = np.broadcast_to((cfg.T - times)[:, None, None],
                               (cfg.nt,) + grid.shape)
        u = ValuePath(grid, cfg.dt, vals)
        res = pde_residual(u, dynamics_preset("zero", epsilon=0.0),
                           const_coupling(1.0, 0.0), _frozen_path(grid, cfg))
        assert np.abs(res).max() < 1e-10

    def test_median_residual_decreases_under_refinement(self):
        coup = builtin_coupling("nonlocal_smooth")
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        medians = []
        for n, nt in [(24, 48), (48, 96)]:
            grid = default_grid(3.0, n, n)
            cfg = HjbConfig(T=1.0, nt=nt)
            m_path = _frozen_path(grid, cfg)
            u = solve_hjb_backward(dyn, coup, m_path, cfg)
            res = pde_residual(u, dyn, coup, m_path)
            medians.append(np.median(np.abs(res)))
        assert medians[1] < medians[0]

    @pytest.mark.parametrize("n1, n2", [(32, 32), (17, 9)])
    def test_equals_per_slice_reference(self, n1, n2):
        # the residual of each interior slice, written out with F of that
        # slice alone; the interior slices fill part of one time block, one
        # whole block, and two blocks and one slice more
        grid = Grid2D(-3.0, 3.0, -2.0, 2.0, n1, n2)
        dyn = dynamics_preset("grushin_exp", epsilon=0.1)
        coup = builtin_coupling("nonlocal_smooth")
        rng = np.random.default_rng(5)
        x1g, x2g = grid.meshgrid()
        block = hjb._RESIDUAL_BLOCK
        for nt in (3, block + 2, 2 * block + 3):
            cfg = HjbConfig(T=1.0, nt=nt)
            u = ValuePath(grid, cfg.dt, rng.normal(size=(nt,) + grid.shape))
            m = rng.uniform(0.5, 1.5, size=(nt,) + grid.shape)
            m /= np.array([grid.integrate(v) for v in m])[:, None, None]
            m_path = DensityPath(grid, cfg.dt, m)
            res = pde_residual(u, dyn, coup, m_path)
            assert res.shape == (nt - 2,) + grid.shape
            for k in range(1, nt - 1):
                v = u.values[k]
                dudt = (u.values[k + 1] - u.values[k - 1]) / (2.0 * cfg.dt)
                lap = diff2(v, grid.dx1, 0) + diff2(v, grid.dx2, 1)
                ham = hamiltonian(degenerate_gradient(v, grid, dyn))
                f_k = coup.F(x1g, x2g, m_path.slice(k))
                ref = (-dudt - dyn.epsilon * lap - apply_L(v, grid, dyn)
                       + ham - f_k)
                assert np.array_equal(res[k - 1], ref), (nt, k)

    def test_too_few_slices_rejected(self):
        grid = default_grid(3.0, 16, 16)
        u = ValuePath(grid, 0.5, np.zeros((2,) + grid.shape))
        m = constant_path(uniform_density(grid), 0.5, 2)
        with pytest.raises(ConfigurationError):
            pde_residual(u, dynamics_preset("zero", epsilon=0.0),
                         const_coupling(), m)


PRESETS = ("grushin_exp", "sin_sigma", "nondegenerate", "fully_degenerate_x2",
           "zero")
# sigma1 varies across the lines x2 = const, sigma2 across x1 = const
ACROSS_LINES = DynamicsSpec(
    sigma1=lambda x1, x2: 0.5 + 0.25 * np.sin(3.0 * x2),
    sigma2=lambda x1, x2: 0.5 + 0.25 * np.cos(2.0 * x1),
    h=grushin_h, epsilon=0.01)
NON_SQUARE = Grid2D(-2.0, 3.0, -1.0, 0.5, 17, 9)
DYNAMICS = [dynamics_preset(p, epsilon=e) for p in PRESETS
            for e in (0.0, 0.05)] + [ACROSS_LINES]


class TestImplicitDiffusion:
    """The split implicit step: per-axis line inverses, each >= 0 with unit
    row sums."""

    def _built(self, monkeypatch, grid, dyn, dt=1.0 / 63.0):
        """The solves of ``implicit_diffusion`` and the stacks it built."""
        stacks, build = [], hjb.line_inverses

        def recording(c, dx, dt):
            stacks.append(build(c, dx, dt))
            return stacks[-1]

        with monkeypatch.context() as mp:
            mp.setattr(hjb, "line_inverses", recording)
            solves = hjb.implicit_diffusion(grid, dyn, dt)
        return solves, stacks

    @pytest.mark.parametrize("grid", (default_grid(5.0, 32, 32), NON_SQUARE),
                             ids=("32x32", "17x9"))
    @pytest.mark.parametrize("dyn", DYNAMICS,
                             ids=lambda d: "%s-%g" % (d.name, d.epsilon))
    def test_line_inverses_are_nonnegative_with_unit_row_sums(
            self, monkeypatch, grid, dyn):
        (hjb_solve, fpe_solve), stacks = self._built(monkeypatch, grid, dyn)
        if dyn.name == "zero" and dyn.epsilon == 0.0:
            assert stacks == []  # no diffusion: nothing is built
        for k in stacks:
            assert k.min() >= 0.0
            assert np.abs(k.sum(axis=-1) - 1.0).max() <= 1e-13
        # so a nonnegative input gives a nonnegative output
        r = np.random.default_rng(2).uniform(0.0, 1.0, grid.shape)
        r[:, ::3] = 0.0
        assert hjb_solve(r).min() >= 0.0 and fpe_solve(r).min() >= 0.0

    @pytest.mark.parametrize("preset", PRESETS[:-1])
    def test_separable_presets_hold_one_matrix_per_axis(self, monkeypatch,
                                                         preset):
        # every line of an axis has the same coefficients: each solve is one
        # gemm per axis
        grid = NON_SQUARE
        _, stacks = self._built(monkeypatch, grid,
                                dynamics_preset(preset, epsilon=0.05))
        assert [k.shape for k in stacks] == [(1, 17, 17), (1, 9, 9)]

    def test_coefficients_that_vary_across_lines_hold_one_matrix_a_line(
            self, monkeypatch):
        grid = NON_SQUARE
        (hjb_solve, fpe_solve), stacks = self._built(monkeypatch, grid,
                                                     ACROSS_LINES)
        assert [k.shape for k in stacks] == [(9, 17, 17), (17, 9, 9)]
        # line j of x1 (column j of a slice) goes through its own inverse
        k1, k2 = stacks
        r = np.random.default_rng(4).standard_normal(grid.shape)
        along_x2 = np.stack([k2[i] @ r[i] for i in range(grid.n1)])
        expected = np.stack([k1[j] @ along_x2[:, j] for j in range(grid.n2)],
                            axis=1)
        assert np.abs(hjb_solve(r) - expected).max() <= 1e-13

    def test_a_nan_coefficient_is_not_read_as_no_diffusion(self):
        # a NaN sum is not > 0, which once dropped the whole step; the step
        # tests c1 == 0 and c2 == 0, and NaN equals nothing
        nan_sigma = DynamicsSpec(
            sigma1=lambda x1, x2: np.full_like(x1, np.nan),
            sigma2=lambda x1, x2: np.zeros_like(x1), h=grushin_h)
        grid = NON_SQUARE
        r = np.ones(grid.shape)
        for solve in hjb.implicit_diffusion(grid, nan_sigma, 0.01):
            assert np.isnan(solve(r)).all()


def test_hjb_does_not_import_verify():
    # the solver checks its CFL rule on its own slopes and reads no
    # estimate of the property suite, so it sits below it
    src = os.path.dirname(os.path.dirname(os.path.abspath(degmfg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, degmfg.hjb; sys.exit('degmfg.verify' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
