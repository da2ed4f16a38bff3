"""Backward HJE solver: exact fixtures, brute-force oracle, scheme properties."""

import os
import subprocess
import sys

import numpy as np
import pytest

import degmfg

from degmfg.coupling import CouplingSpec, builtin_coupling
from degmfg.dynamics import dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.grid import DensityPath, Grid2D, ScalarField, ValuePath, uniform_density
from degmfg.hjb import (HjbConfig, hopf_lax_oracle, pde_residual,
                        solve_hjb_backward)


def _zeros(x1, x2, m):
    return np.zeros_like(x1)


def _const_coupling(f_val=0.0, g_val=0.0):
    return CouplingSpec(
        F=lambda x1, x2, m: np.full_like(x1, f_val),
        G=lambda x1, x2, m: np.full_like(x1, g_val),
        monotone=True, lipschitz_in_m=0.0)


def _frozen_path(grid, cfg):
    m0 = uniform_density(grid)
    return DensityPath(grid, cfg.dt, np.repeat(m0.values[None], cfg.nt, axis=0))


def _box(half, n):
    return Grid2D(-half, half, -half, half, n, n)


class TestExactFixtures:
    def test_constant_data_gives_constant_solution(self):
        grid = _box(3.0, 16)
        cfg = HjbConfig(T=1.0, nt=16)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.1),
                               _const_coupling(0.0, 2.5), _frozen_path(grid, cfg), cfg)
        assert np.abs(u.values - 2.5).max() < 1e-12

    def test_space_constant_solution_T_minus_t(self):
        # F == 1, G == 0, sigma = 0, eps = 0: u(x,t) = T - t exactly
        grid = _box(3.0, 16)
        cfg = HjbConfig(T=1.0, nt=17)
        u = solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               _const_coupling(1.0, 0.0), _frozen_path(grid, cfg), cfg)
        expected = (cfg.T - u.times())[:, None, None]
        assert np.abs(u.values - expected).max() < 1e-12


class TestHopfLaxOracle:
    def test_constant_terminal(self):
        grid = _box(3.0, 16)
        g = ScalarField(grid, np.full(grid.shape, 1.25))
        out = hopf_lax_oracle(g, 0.0, 1.0)
        assert np.abs(out.values - 1.25).max() < 1e-14

    def test_quadratic_infimal_convolution(self):
        # G = |y|^2/2, T - t = 1  ->  u = |x|^2/4 (exact inf-convolution),
        # up to the discreteness of the brute-force minimizer grid
        grid = _box(4.0, 128)
        x1g, x2g = grid.meshgrid()
        g = ScalarField(grid, (x1g ** 2 + x2g ** 2) / 2.0)
        out = hopf_lax_oracle(g, 0.0, 1.0)
        exact = (x1g ** 2 + x2g ** 2) / 4.0
        assert np.abs(out.values - exact).max() < 2.0 * max(grid.dx1, grid.dx2) ** 2

    @pytest.mark.parametrize("grid", (Grid2D(-2.0, 3.0, -1.0, 0.5, 17, 9),
                                      _box(3.0, 32)), ids=("17x9", "32x32"))
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
        grid = _box(3.0, 8)
        g = ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ConfigurationError):
            hopf_lax_oracle(g, 1.0, 1.0)

    def test_solver_matches_oracle_two_well(self):
        # zero diffusion, h == 1: classical quadratic-Hamiltonian HJ equation
        a = 1.0

        def G(x1, x2, m):
            return np.minimum((x1 - a) ** 2 + x2 ** 2,
                              (x1 + a) ** 2 + x2 ** 2) / 2.0

        coup = CouplingSpec(F=_zeros, G=G, monotone=True, lipschitz_in_m=0.0)
        dyn = dynamics_preset("zero", epsilon=0.0)
        n, nt = 64, 128
        grid = _box(3.0, n)
        cfg = HjbConfig(T=1.0, nt=nt)
        u = solve_hjb_backward(dyn, coup, _frozen_path(grid, cfg), cfg)
        hl = hopf_lax_oracle(u.slice(nt - 1), 0.0, cfg.T)
        k = int(round(0.1 * n))
        err = np.abs(u.values[0] - hl.values)[k:n - k, k:n - k].max()
        # first-order scheme: measured error tracks ~1.1*dx (0.028 at 128^2)
        assert err < 2.5 * (grid.dx1 + cfg.dt)


class TestSchemeProperties:
    def test_maximum_principle_bound(self):
        grid = _box(3.0, 24)
        cfg = HjbConfig(T=1.0, nt=48)
        coup = builtin_coupling("nonlocal_smooth")
        m_path = _frozen_path(grid, cfg)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.05),
                               coup, m_path, cfg)
        g_sup = np.abs(coup.terminal_cost(m_path.slice(cfg.nt - 1)).values).max()
        f_sup = max(np.abs(coup.running_cost(m_path.slice(k)).values).max()
                    for k in range(cfg.nt))
        assert np.abs(u.values).max() <= g_sup + cfg.T * f_sup + 1e-6

    def test_comparison_monotonicity(self):
        # G1 <= G2 and F1 <= F2 pointwise  ->  u1 <= u2 everywhere
        grid = _box(3.0, 24)
        cfg = HjbConfig(T=0.5, nt=32)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        m_path = _frozen_path(grid, cfg)

        def bump(x1, x2, m):
            return np.exp(-(x1 ** 2 + x2 ** 2))

        lo = CouplingSpec(F=_zeros, G=bump, monotone=True, lipschitz_in_m=0.0)
        hi = CouplingSpec(
            F=lambda x1, x2, m: 0.3 * np.ones_like(x1),
            G=lambda x1, x2, m: bump(x1, x2, m) + 0.1 * x1 ** 2,
            monotone=True, lipschitz_in_m=0.0)
        u1 = solve_hjb_backward(dyn, lo, m_path, cfg)
        u2 = solve_hjb_backward(dyn, hi, m_path, cfg)
        assert (u1.values <= u2.values + 1e-8).all()

    def test_terminal_slice_is_exact_terminal_cost(self):
        grid = _box(3.0, 24)
        cfg = HjbConfig(T=1.0, nt=32)
        coup = builtin_coupling("nonlocal_smooth")
        m_path = _frozen_path(grid, cfg)
        u = solve_hjb_backward(dynamics_preset("grushin_exp", epsilon=0.05),
                               coup, m_path, cfg)
        g_vals = coup.terminal_cost(m_path.slice(cfg.nt - 1)).values
        assert np.array_equal(u.values[-1], g_vals)

    def test_time_shift_estimate(self):
        # ||u(.,t) - u(.,T)||_inf <= C1 (T - t) with C1 from the data bounds
        grid = _box(3.0, 24)
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
        grid = _box(3.0, 64)
        cfg = HjbConfig(T=1.0, nt=5)
        coup = CouplingSpec(
            F=_zeros, G=lambda x1, x2, m: 10.0 * (x1 ** 2 + x2 ** 2),
            monotone=True, lipschitz_in_m=0.0)
        with pytest.raises(ConfigurationError):
            solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               coup, _frozen_path(grid, cfg), cfg)

    def test_mesh_mismatch_is_configuration_error(self):
        grid = _box(3.0, 16)
        cfg = HjbConfig(T=1.0, nt=16)
        bad = HjbConfig(T=1.0, nt=24)
        with pytest.raises(ConfigurationError):
            solve_hjb_backward(dynamics_preset("zero", epsilon=0.0),
                               _const_coupling(), _frozen_path(grid, bad), cfg)

    def test_engquist_osher_close_to_godunov(self):
        grid = _box(3.0, 24)
        cfg_g = HjbConfig(T=0.5, nt=32, flux="godunov")
        cfg_e = HjbConfig(T=0.5, nt=32, flux="engquist_osher")
        coup = builtin_coupling("nonlocal_smooth")
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        m_path = _frozen_path(grid, cfg_g)
        ug = solve_hjb_backward(dyn, coup, m_path, cfg_g)
        ue = solve_hjb_backward(dyn, coup, m_path, cfg_e)
        assert np.abs(ug.values - ue.values).max() < 5e-2


class TestPdeResidual:
    def test_constant_solution_zero_residual(self):
        grid = _box(3.0, 16)
        cfg = HjbConfig(T=1.0, nt=9)
        u = ValuePath(grid, cfg.dt, np.full((cfg.nt,) + grid.shape, 1.5))
        res = pde_residual(u, dynamics_preset("grushin_exp", epsilon=0.1),
                           _const_coupling(0.0, 1.5), _frozen_path(grid, cfg))
        assert len(res) == cfg.nt - 2
        assert max(np.abs(r.values).max() for r in res) < 1e-10

    def test_T_minus_t_zero_residual(self):
        grid = _box(3.0, 16)
        cfg = HjbConfig(T=1.0, nt=9)
        times = cfg.dt * np.arange(cfg.nt)
        vals = np.broadcast_to((cfg.T - times)[:, None, None],
                               (cfg.nt,) + grid.shape)
        u = ValuePath(grid, cfg.dt, vals)
        res = pde_residual(u, dynamics_preset("zero", epsilon=0.0),
                           _const_coupling(1.0, 0.0), _frozen_path(grid, cfg))
        assert max(np.abs(r.values).max() for r in res) < 1e-10

    def test_median_residual_decreases_under_refinement(self):
        coup = builtin_coupling("nonlocal_smooth")
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        medians = []
        for n, nt in [(24, 48), (48, 96)]:
            grid = _box(3.0, n)
            cfg = HjbConfig(T=1.0, nt=nt)
            m_path = _frozen_path(grid, cfg)
            u = solve_hjb_backward(dyn, coup, m_path, cfg)
            res = pde_residual(u, dyn, coup, m_path)
            medians.append(np.median(np.abs(np.stack([r.values for r in res]))))
        assert medians[1] < medians[0]

    def test_too_few_slices_rejected(self):
        grid = _box(3.0, 16)
        u = ValuePath(grid, 0.5, np.zeros((2,) + grid.shape))
        m = DensityPath(grid, 0.5, np.repeat(
            uniform_density(grid).values[None], 2, axis=0))
        with pytest.raises(ConfigurationError):
            pde_residual(u, dynamics_preset("zero", epsilon=0.0),
                         _const_coupling(), m)


def test_hjb_does_not_import_verify():
    # the a-priori CFL bound uses the Lipschitz estimate from operators, so
    # the solver sits below the property suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(degmfg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, degmfg.hjb; sys.exit('degmfg.verify' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
