"""Tests for the safeguarded Picard iteration and the viscosity sweep."""

import os
from dataclasses import replace

import numpy as np
import pytest

from degmfg.config import load_config
from degmfg.coupling import builtin_coupling
from degmfg.dynamics import dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.fixed_point import FixedPointConfig, eps_sweep, picard_solve, \
    psi_map
from degmfg.grid import DensityPath, truncated_gaussian
from references import constant_path, default_grid
from degmfg.hjb import HjbConfig
from degmfg.measures import GridDistance

GRID = default_grid(n1=25, n2=25)
M0 = truncated_gaussian(GRID)
HJB = HjbConfig(T=0.5, nt=33)
FP = FixedPointConfig(theta=0.5, tol_d1=1e-3, max_outer_iters=20,
                      n_check_slices=5, lp_check_points=100)


class TestConfig:
    def test_bad_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPointConfig(theta=0.0)
        with pytest.raises(ConfigurationError):
            FixedPointConfig(theta=1.5)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPointConfig(eps_schedule=(0.1, 0.2))
        with pytest.raises(ConfigurationError):
            FixedPointConfig(eps_schedule=(0.1, -0.05))

    def test_a_zero_eps_level_is_rejected(self):
        # the sweep appends eps = 0 itself: a 0 entry would solve it twice
        with pytest.raises(ConfigurationError,
                           match="> 0; the sweep appends eps = 0 itself"):
            FixedPointConfig(eps_schedule=(0.1, 0.0))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPointConfig(tol_d1=0.0)


class TestDecoupled:
    """With no m-dependence the map psi is constant: one iteration suffices."""

    def test_converges_in_one_iteration_with_zero_residual(self):
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("decoupled")
        sol = picard_solve(dyn, coupling, M0, HJB, FP)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.residual_history == [0.0]

    def test_psi_is_constant_map(self):
        # [TRIVIAL] decoupled costs ignore the density argument, so psi of
        # two different inputs yields bit-identical outputs.
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("decoupled")
        flat = constant_path(M0, HJB.dt, HJB.nt, validate_slices=False)
        shifted = constant_path(truncated_gaussian(GRID, center=(1.0, 0.0)),
                                HJB.dt, HJB.nt, validate_slices=False)
        u_a, m_a = psi_map(flat, dyn, coupling, HJB)
        u_b, m_b = psi_map(shifted, dyn, coupling, HJB)
        assert np.array_equal(u_a.values, u_b.values)
        # the density paths start from different initial slices, so only the
        # value paths coincide
        assert not np.array_equal(m_a.values, m_b.values)

    def test_lp_cross_check_zero(self):
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        sol = picard_solve(dyn, builtin_coupling("decoupled"), M0, HJB, FP)
        assert sol.lp_residual <= 1e-12


class TestCoupled:
    @pytest.fixture(scope="class")
    def solution(self):
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("nonlocal_smooth")
        return picard_solve(dyn, coupling, M0, HJB, FP)

    def test_converges(self, solution):
        assert solution.converged
        assert solution.residual_history[-1] <= FP.tol_d1

    def test_residuals_decrease_monotonically(self, solution):
        h = solution.residual_history
        assert all(h[i + 1] < h[i] for i in range(len(h) - 1))

    def test_lp_residual_agrees_with_stopping_metric(self, solution):
        # the stopping metric (exact LP at up to 320 coarsened points) and
        # the same LP at the coarser lp_check_points must agree
        assert solution.lp_residual <= 3 * FP.tol_d1

    def test_solution_is_near_fixed_point(self, solution):
        # applying psi once more moves the density by at most a few
        # tolerances in the stopping metric
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("nonlocal_smooth")
        _, m_again = psi_map(solution.m, dyn, coupling, HJB)
        gd = GridDistance(GRID)
        idx = np.unique(np.linspace(0, HJB.nt - 1, 5).round().astype(int))
        res = max(gd.distance(m_again.values[k], solution.m.values[k])
                  for k in idx)
        assert res <= 4 * FP.tol_d1

    def test_two_starts_land_on_same_solution(self, solution):
        # monotone coupling: a different initial guess must converge to a
        # density path within 2*tol of the first one.
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("nonlocal_smooth")
        # same initial measure, but the guessed evolution drifts toward a
        # shifted gaussian instead of staying put
        target = truncated_gaussian(GRID, center=(0.5, 0.5)).values
        w = np.linspace(0.0, 1.0, HJB.nt)[:, None, None]
        other_start = DensityPath(
            GRID, HJB.dt, (1.0 - w) * M0.values[None] + w * target[None],
            validate_slices=False)
        sol_b = picard_solve(dyn, coupling, M0, HJB, FP,
                             initial_path=other_start)
        assert sol_b.converged
        gd = GridDistance(GRID)
        idx = np.unique(np.linspace(0, HJB.nt - 1, 5).round().astype(int))
        d = max(gd.distance(sol_b.m.values[k], solution.m.values[k])
                for k in idx)
        assert d <= 2 * FP.tol_d1

    def test_nonmonotone_coupling_warns(self):
        from degmfg.coupling import CouplingSpec
        coupling = CouplingSpec(F=lambda a, b, m: 0.0 * a,
                                G=lambda a, b, m: 0.0 * a,
                                monotone=False, name="nm")
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        with pytest.warns(UserWarning):
            picard_solve(dyn, coupling, M0, HJB,
                         FixedPointConfig(max_outer_iters=1, tol_d1=10.0))


class TestSafeguardedStep:
    """Full steps while the residual contracts, then theta for good."""

    STRONG = builtin_coupling("nonlocal_smooth",
                              {"c1": 1.5, "c_terminal": 1.5})

    def _solve(self, theta):
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        fp = replace(FP, theta=theta, max_outer_iters=10)
        return picard_solve(dyn, self.STRONG, M0, HJB, fp)

    def test_full_step_alone_stalls(self):
        # theta = 1 leaves no fallback: the full step stops contracting and
        # the residual stalls near 5.3e-3, above tol_d1
        sol = self._solve(1.0)
        assert not sol.converged
        assert sol.steps == [1.0] * 10
        assert min(sol.residual_history) > FP.tol_d1

    def test_fallback_converges(self):
        sol = self._solve(0.25)
        assert sol.converged
        assert sol.residual_history[-1] <= FP.tol_d1
        assert len(sol.steps) == sol.iterations
        # the switch is one-way: full steps, then theta for every later one
        n_full = sol.steps.index(0.25)
        assert n_full >= 2
        assert sol.steps == [1.0] * n_full + [0.25] * (sol.iterations - n_full)
        # the last full step is the first that failed to contract
        h = sol.residual_history
        assert h[n_full - 1] >= h[n_full - 2]
        assert all(h[i + 1] < h[i] for i in range(n_full - 2))

    def test_grushin_default_takes_two_full_steps(self):
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", "grushin_default.json"))
        # the fallback damping is configured but no full step fails here
        assert cfg.fixed_point.theta == 0.5
        sol = picard_solve(cfg.make_dynamics(), cfg.make_coupling(),
                           cfg.make_initial_density(), cfg.make_hjb_config(),
                           cfg.make_fixed_point())
        assert sol.converged
        assert sol.iterations == 2
        assert sol.steps == [1.0, 1.0]


class TestEpsSweep:
    def test_levels_and_deltas(self):
        # short schedule on the decoupled system: every level converges and
        # the reported deltas are finite and shrink with eps.
        dyn = dynamics_preset("grushin_exp")
        coupling = builtin_coupling("decoupled")
        fp = FixedPointConfig(theta=0.5, tol_d1=1e-3, max_outer_iters=10,
                              eps_schedule=(0.1, 0.05), n_check_slices=5,
                              lp_check_points=100)
        res = eps_sweep(dyn, coupling, M0, HJB, fp)
        assert not res.aborted
        assert [lv.epsilon for lv in res.levels] == [0.1, 0.05, 0.0]
        assert all(np.isfinite(res.sup_norm_deltas))
        assert all(np.isfinite(res.d1_deltas))
        # vanishing-viscosity contraction: the step 0.05 -> 0 moves the value
        # function no more than the step 0.1 -> 0.05 does, up to slack
        assert res.sup_norm_deltas[1] <= 2.0 * res.sup_norm_deltas[0]

    def test_abort_keeps_partial_results(self):
        dyn = dynamics_preset("grushin_exp")
        coupling = builtin_coupling("nonlocal_smooth")
        fp = FixedPointConfig(theta=0.5, tol_d1=1e-12, max_outer_iters=1,
                              eps_schedule=(0.1, 0.05), n_check_slices=3,
                              lp_check_points=50)
        res = eps_sweep(dyn, coupling, M0, HJB, fp)
        assert res.aborted
        assert len(res.levels) == 1
        assert not res.levels[0].solution.converged
