"""Property estimators: polynomial exactness, restriction monotonicity, suite."""

import math
import re

import numpy as np
import pytest

from degmfg.coupling import builtin_coupling
from degmfg.dynamics import dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.fpe import solve_fpe_forward
from degmfg.grid import Grid2D, ScalarField, ValuePath, truncated_gaussian
from degmfg.hjb import HjbConfig, solve_hjb_backward
from degmfg.operators import interior_box
from degmfg.verify import (AXES_AND_DIAGONALS, ae_residual_report,
                           lipschitz_estimate, property_checks,
                           report_to_dict, semiconcavity_estimate,
                           time_lipschitz_estimate, VerifyThresholds)
from references import centered_flux_fpe, const_coupling, constant_path, \
    default_grid, uniform_density

DIAG = (1, 1)


def _field(grid, fn):
    x1g, x2g = grid.meshgrid()
    return ScalarField(grid, fn(x1g, x2g))


class TestLipschitz:
    def test_linear_3x1(self):
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: 3.0 * x1)
        assert abs(lipschitz_estimate(u.values, u.grid) - 3.0) < 1e-12

    def test_constant_is_zero(self):
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: 0.0 * x1 + 7.0)
        assert lipschitz_estimate(u.values, u.grid) == 0.0

    def test_diagonal_pairs_detected(self):
        # u = x1 + x2 has gradient norm sqrt(2), attained along the diagonal
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: x1 + x2)
        assert abs(lipschitz_estimate(u.values, u.grid) - math.sqrt(2.0)) < 1e-12


class TestTimeLipschitz:
    def test_T_minus_t_is_one(self):
        grid = default_grid(3.0, 8, 8)
        nt, dt = 11, 0.1
        vals = np.broadcast_to((1.0 - dt * np.arange(nt))[:, None, None],
                               (nt,) + grid.shape)
        assert abs(time_lipschitz_estimate(ValuePath(grid, dt, vals)) - 1.0) < 1e-12

    def test_constant_is_zero(self):
        grid = default_grid(3.0, 8, 8)
        u = ValuePath(grid, 0.1, np.ones((5,) + grid.shape))
        assert time_lipschitz_estimate(u) == 0.0


class TestSemiconcavity:
    def test_negative_quadratic_every_direction(self):
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: -(x1 ** 2 + x2 ** 2))
        for offset in AXES_AND_DIAGONALS:
            est = semiconcavity_estimate(u.values, u.grid, offset)
            assert abs(est - (-2.0)) < 1e-10  # node values: exact

    def test_linear_is_zero(self):
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: 2.0 * x1 - x2)
        for offset in AXES_AND_DIAGONALS:
            assert abs(semiconcavity_estimate(u.values, u.grid, offset)) \
                < 1e-12

    def test_mixed_quadratic_directional(self):
        # u = x1*x2: second derivative along (1,1)/sqrt(2) is +1, along axes 0
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: x1 * x2)
        assert abs(semiconcavity_estimate(u.values, u.grid, DIAG) - 1.0) < 1e-10
        assert abs(semiconcavity_estimate(u.values, u.grid, (1, 0))) < 1e-12


def _rgi_semiconcavity(u, offset):
    """The estimate read off the node lattice: five samples x + k j h,
    k = -2..2, h = (p dx1, q dx2), read with scipy's linear
    RegularGridInterpolator at the nodes where all five lie in the box."""
    from scipy.interpolate import RegularGridInterpolator

    g = u.grid
    interp = RegularGridInterpolator((g.x1, g.x2), u.values, method="linear")
    x1g, x2g = g.meshgrid()
    pts = np.stack([x1g.ravel(), x2g.ravel()], axis=1)
    h = np.array([offset[0] * g.dx1, offset[1] * g.dx2])
    tol = 0.5 * min(g.dx1, g.dx2)
    best = -math.inf
    for j in (1, 2):
        shifted = [pts + k * j * h for k in (-2, -1, 0, 1, 2)]
        mask = np.logical_and.reduce(
            [(y[:, 0] >= g.x1_min - tol) & (y[:, 0] <= g.x1_max + tol)
             & (y[:, 1] >= g.x2_min - tol) & (y[:, 1] <= g.x2_max + tol)
             for y in shifted])
        samples = [np.clip(y[mask], [g.x1_min, g.x2_min],
                           [g.x1_max, g.x2_max]) for y in shifted]
        _, m1, c, p1, _ = [interp(y) for y in samples]
        s = j * float(np.hypot(*h))
        best = max(best, float(((p1 - 2.0 * c + m1) / s ** 2).max()))
    return best


def _rough_path(grid, nt, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(nt,) + grid.shape).cumsum(axis=1).cumsum(axis=2)
    return vals / np.abs(vals).max()


NON_SQUARE = (Grid2D(-3.0, 2.0, -1.5, 2.5, 41, 23),
              Grid2D(-5.0, 5.0, -5.0, 5.0, 40, 64),
              Grid2D(0.0, 1.0, -2.0, 2.0, 17, 33))


class TestSemiconcavityOnPaths:
    @pytest.mark.parametrize("grid", (default_grid(3.0, 24, 24),) + NON_SQUARE)
    @pytest.mark.parametrize("frame", [0.0, 0.1])
    def test_path_estimate_is_the_max_over_slices(self, grid, frame):
        vals = _rough_path(grid, 5, 3)
        for offset in AXES_AND_DIAGONALS:
            per_slice = [semiconcavity_estimate(v, grid, offset, frame)
                         for v in vals]
            assert semiconcavity_estimate(vals, grid, offset, frame) \
                == max(per_slice)

    @pytest.mark.parametrize("grid", NON_SQUARE)
    def test_off_lattice_matches_the_interpolator_route(self, grid):
        # an interpolator read at the coordinates x + k j h lands on nodes,
        # so it agrees with the index-shift route up to coordinate rounding
        for seed in (4, 5):
            u = ScalarField(grid, _rough_path(grid, 1, seed)[0])
            for offset in AXES_AND_DIAGONALS:
                ref = _rgi_semiconcavity(u, offset)
                est = semiconcavity_estimate(u.values, grid, offset)
                assert abs(est - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("grid", NON_SQUARE)
    def test_lattice_diagonals_are_exact_on_non_square_grids(self, grid):
        # |x|^2 has second difference 2|h|^2 along every step h; node
        # values carry no interpolation error, so every offset reads 2
        u = _field(grid, lambda x1, x2: x1 ** 2 + x2 ** 2)
        for offset in AXES_AND_DIAGONALS:
            assert abs(semiconcavity_estimate(u.values, grid, offset) - 2.0) \
                <= 1e-9

    def test_lattice_directions_read_node_values(self):
        # the diagonal offset reads node values: the estimate is the
        # node-value quotient, bit for bit
        grid = default_grid(3.0, 24, 24)
        v = _rough_path(grid, 1, 6)[0]
        s = math.hypot(grid.dx1, grid.dx2)
        # both scales read the nodes 2j steps from the edge, j = 1, 2
        near = v[3:-1, 3:-1] - 2.0 * v[2:-2, 2:-2] + v[1:-3, 1:-3]
        far = v[6:-2, 6:-2] - 2.0 * v[4:-4, 4:-4] + v[2:-6, 2:-6]
        ref = max(float((near / s ** 2).max()),
                  float((far / (2 * s) ** 2).max()))
        assert semiconcavity_estimate(v, grid, DIAG) == ref

    def test_direction_leaving_the_box_everywhere(self):
        grid = Grid2D(0.0, 1.0, 0.0, 0.01, 8, 4)
        with pytest.raises(ConfigurationError, match=re.escape(
                "semiconcavity along offset (1, 1) needs at least 5 nodes "
                "per axis inside the boundary frame, which leaves 8 x 4")):
            semiconcavity_estimate(np.zeros(grid.shape), grid, DIAG)
        # along x1 the 8 nodes fit the scale j = 1
        assert semiconcavity_estimate(np.zeros(grid.shape), grid, (1, 0)) \
            == 0.0

    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_only_the_scales_that_fit_are_read(self, n):
        # j = 2 needs 9 nodes on an axis the offset moves along, j = 1
        # needs 5; below 9 only j = 1 is read
        grid = default_grid(3.0, n, n)
        v = _rough_path(grid, 1, 8)[0]
        for p, q in AXES_AND_DIAGONALS:
            s = math.hypot(p * grid.dx1, q * grid.dx2)
            ref = []
            for j in (1, 2) if n >= 9 else (1,):
                r1, r2 = 2 * j * abs(p), 2 * j * abs(q)
                c = v[r1:n - r1, r2:n - r2]
                plus = v[r1 + j * p:n - r1 + j * p, r2 + j * q:n - r2 + j * q]
                minus = v[r1 - j * p:n - r1 - j * p,
                          r2 - j * q:n - r2 - j * q]
                ref.append(float(((plus - 2.0 * c + minus)
                                  / (j * s) ** 2).max()))
            assert semiconcavity_estimate(v, grid, (p, q)) == max(ref)


class TestRestrictionMonotonicity:
    def test_estimates_never_increase_on_subbox(self):
        rng = np.random.default_rng(7)
        grid = default_grid(3.0, 40, 40)
        vals = rng.normal(size=grid.shape).cumsum(axis=0).cumsum(axis=1)
        vals /= np.abs(vals).max()
        u = ScalarField(grid, vals)
        for frame in (0.1, 0.2):
            assert (lipschitz_estimate(u.values, grid, frame)
                    <= lipschitz_estimate(u.values, grid) + 1e-14)
            for offset in AXES_AND_DIAGONALS:
                assert (semiconcavity_estimate(vals, grid, offset, frame)
                        <= semiconcavity_estimate(vals, grid, offset) + 1e-14)

    def test_frame_bounds_validated(self):
        u = _field(default_grid(3.0, 32, 32), lambda x1, x2: x1)
        with pytest.raises(ConfigurationError):
            interior_box(u.grid, 0.5)
        with pytest.raises(ConfigurationError):
            interior_box(u.grid, 0.49)  # leaves fewer than 4 nodes

    @pytest.mark.parametrize("frame, message", [
        (0.5, "boundary_frame must lie in [0, 0.5) (got 0.5)"),
        (-0.1, "boundary_frame must lie in [0, 0.5) (got -0.1)"),
        (0.45, "boundary frame leaves fewer than 4 nodes per axis")])
    def test_one_frame_rule_for_every_estimate(self, frame, message):
        grid = default_grid(3.0, 8, 8)
        u = ValuePath(grid, 0.1, np.ones((5,) + grid.shape))
        m = constant_path(uniform_density(grid), 0.1, 5)
        zero = const_coupling()
        for estimate in (lambda: interior_box(grid, frame),
                         lambda: lipschitz_estimate(u.values, grid, frame),
                         lambda: time_lipschitz_estimate(u, frame),
                         lambda: ae_residual_report(
                             u, dynamics_preset("zero", epsilon=0.0), zero, m,
                             boundary_frame=frame)):
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                estimate()


class TestAeResidual:
    def test_exact_constant_solution_fraction_one(self):
        grid = default_grid(3.0, 16, 16)
        nt, dt = 9, 0.125
        u = ValuePath(grid, dt, np.full((nt,) + grid.shape, 2.0))
        m = constant_path(uniform_density(grid), dt, nt)
        rep = ae_residual_report(u, dynamics_preset("grushin_exp", epsilon=0.1),
                                 const_coupling(0.0, 2.0), m, tol=1e-8)
        assert rep.fraction_below_tol == 1.0

    def test_T_minus_t_fraction_one(self):
        grid = default_grid(3.0, 16, 16)
        nt, dt = 9, 0.125
        vals = np.broadcast_to((1.0 - dt * np.arange(nt))[:, None, None],
                               (nt,) + grid.shape)
        u = ValuePath(grid, dt, vals)
        m = constant_path(uniform_density(grid), dt, nt)
        rep = ae_residual_report(u, dynamics_preset("zero", epsilon=0.0),
                                 const_coupling(1.0, 0.0), m, tol=1e-8)
        assert rep.fraction_below_tol == 1.0

    def test_fraction_non_decreasing_under_refinement(self):
        coup = builtin_coupling("nonlocal_smooth")
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        fractions = []
        for n, nt in [(24, 48), (48, 96)]:
            grid = default_grid(3.0, n, n)
            cfg = HjbConfig(T=1.0, nt=nt)
            m = constant_path(uniform_density(grid), cfg.dt, cfg.nt)
            u = solve_hjb_backward(dyn, coup, m, cfg)
            # fixed tol taken from the coarser level so levels are comparable
            tol = 5.0 * (6.0 / 23 + 1.0 / 47)
            fractions.append(
                ae_residual_report(u, dyn, coup, m, tol=tol).fraction_below_tol)
        assert fractions[1] >= fractions[0]


class TestPropertySuite:
    @pytest.fixture(scope="class")
    def solved(self):
        grid = default_grid(5.0, 32, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coup = builtin_coupling("nonlocal_smooth")
        m0 = truncated_gaussian(grid)
        u = solve_hjb_backward(dyn, coup, constant_path(m0, cfg.dt, cfg.nt),
                               cfg)
        return u, solve_fpe_forward(m0, u, dyn, cfg), dyn, coup

    def test_solved_pair_passes_and_reports(self, solved):
        results = property_checks(*solved)
        report = report_to_dict(results)
        assert report["passed"], [r.name for r in results if not r.passed]
        names = {r.name for r in results}
        assert {"spatial_lipschitz", "time_lipschitz", "semiconcavity",
                "positivity", "mass_conservation", "second_moment_bound",
                "ae_residual_fraction", "boundary_mass"} <= names
        for r in results:
            assert np.isfinite(r.measured)

    def test_thresholds_are_config_visible(self, solved):
        # tightening a threshold must flip the corresponding check
        tight = VerifyThresholds(lipschitz_max=1e-6)
        results = property_checks(*solved, tight)
        by_name = {r.name: r for r in results}
        assert not by_name["spatial_lipschitz"].passed

    def test_sabotaged_run_fails_positivity(self):
        grid = default_grid(5.0, 32, 32)
        cfg = HjbConfig(T=1.0, nt=64)
        dyn = dynamics_preset("zero", epsilon=0.0)
        x1g, _ = grid.meshgrid()
        u = ValuePath(grid, cfg.dt,
                      np.repeat((1.5 * x1g)[None], cfg.nt, axis=0))
        m0 = truncated_gaussian(grid)
        m, _ = centered_flux_fpe(m0, u, dyn, cfg)
        results = property_checks(u, m, dyn, const_coupling())
        by_name = {r.name: r for r in results}
        assert not by_name["positivity"].passed
