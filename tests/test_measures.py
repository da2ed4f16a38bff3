import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degmfg import measures
from degmfg.errors import ConfigurationError, SolverError
from degmfg.grid import DensityField, DensityPath, Grid2D, truncated_gaussian
from degmfg.measures import (
    GridDistance,
    _cost_matrix,
    _transport_lp,
    holder_halftime_estimate,
    sinkhorn_points,
    wasserstein1_points,
)
from references import default_grid, dense_transport_lp, \
    linprog_restricted_lp, mincost_flow_reference, node_support, node_w1


def grid8(L=1.0):
    return Grid2D(-L, L, -L, L, 8, 8)


def random_density(grid, rng):
    v = rng.uniform(0.05, 1.0, size=grid.shape)
    v /= grid.integrate(v)
    return DensityField(grid, v)


def coarsened_gaussians(grid, center, variance):
    gd = GridDistance(grid)
    xs, a = gd.coarsen(truncated_gaussian(grid, variance=0.25).values)
    ys, b = gd.coarsen(truncated_gaussian(grid, center=center,
                                          variance=variance).values)
    return xs, a, ys, b


def sinkhorn(mu, nu, reg):
    """Sinkhorn between the node supports of two grid measures."""
    return sinkhorn_points(*node_support(mu), *node_support(nu), reg)


def point_mass(grid, i, j):
    v = np.zeros(grid.shape)
    v[i, j] = 1.0
    v /= grid.integrate(v)
    return DensityField(grid, v)


class TestExactLP:
    def test_identical_measures(self):
        grid = grid8()
        m = random_density(grid, np.random.default_rng(0))
        assert node_w1(m, m) < 1e-12

    def test_two_point_masses(self):
        grid = grid8()
        mu = point_mass(grid, 2, 2)
        nu = point_mass(grid, 2, 5)
        d = abs(grid.x2[5] - grid.x2[2])
        assert abs(node_w1(mu, nu) - d) < 1e-10

    def test_matches_mincost_flow_oracle(self):
        grid = grid8()
        rng = np.random.default_rng(42)
        for _ in range(8):
            mu = random_density(grid, rng)
            nu = random_density(grid, rng)
            lp = node_w1(mu, nu)
            mcf = mincost_flow_reference(mu, nu)
            assert abs(lp - mcf) < 1e-9

    def test_size_guard(self):
        grid = Grid2D(-1, 1, -1, 1, 65, 65)
        v = np.ones(grid.shape)
        v /= grid.integrate(v)
        m = DensityField(grid, v)
        with pytest.raises(ConfigurationError):
            wasserstein1_points(*node_support(m), *node_support(m))

    @pytest.mark.parametrize("where", ["xs", "a", "ys", "b"])
    def test_non_finite_input_is_refused(self, where):
        clouds = {"xs": np.array([[0.0, 0.0], [1.0, 0.0]]),
                  "a": np.array([0.5, 0.5]),
                  "ys": np.array([[0.0, 1.0], [1.0, 1.0]]),
                  "b": np.array([0.25, 0.75])}
        clouds[where].flat[0] = np.nan
        with pytest.raises(ConfigurationError, match="must be finite"):
            wasserstein1_points(**clouds)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_metric_axioms(self, seed):
        grid = grid8()
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(grid, rng) for _ in range(3))
        dab = node_w1(a, b)
        dba = node_w1(b, a)
        dac = node_w1(a, c)
        dcb = node_w1(c, b)
        assert abs(dab - dba) < 1e-9
        assert dab <= dac + dcb + 1e-8

    def test_translation_invariance_and_shift(self):
        grid = Grid2D(-2, 2, -2, 2, 16, 16)
        rng = np.random.default_rng(3)
        base = np.zeros(grid.shape)
        base[4:9, 4:9] = rng.uniform(0.2, 1.0, size=(5, 5))
        mu_v = base / grid.integrate(base)
        shift = 3  # nodes along x1
        nu_v = np.roll(mu_v, shift, axis=0)
        mu = DensityField(grid, mu_v)
        nu = DensityField(grid, nu_v)
        v_len = shift * grid.dx1
        # one measure a translate of the other: d1 is exactly |v|
        assert abs(node_w1(mu, nu) - v_len) < 1e-9
        # translating both leaves d1 unchanged
        other = np.zeros(grid.shape)
        other[5:8, 5:8] = rng.uniform(0.2, 1.0, size=(3, 3))
        other /= grid.integrate(other)
        d0 = node_w1(mu, DensityField(grid, other))
        d1_shifted = node_w1(
            DensityField(grid, np.roll(mu_v, 2, axis=1)),
            DensityField(grid, np.roll(other, 2, axis=1)))
        assert abs(d0 - d1_shifted) < 1e-9


    def test_coarsened_gaussians_solve(self):
        # two valid coarsened Gaussians (148 and 152 support points) that
        # HiGHS presolve once declared infeasible
        grid = default_grid(n1=64, n2=64)
        gd = GridDistance(grid, max_points=320)
        xs, a = gd.coarsen(truncated_gaussian(grid, variance=0.25).values)
        ys, b = gd.coarsen(truncated_gaussian(grid, center=(0.05, 0.0),
                                              variance=0.26).values)
        assert (len(a), len(b)) == (148, 152)
        assert abs(wasserstein1_points(xs, a, ys, b) - 0.0515715) < 1e-6


class TestColumnGeneration:
    @pytest.mark.parametrize("center, variance", [
        ((0.05, 0.0), 0.26), ((0.3, 0.1), 0.5), ((1.0, -1.0), 0.3)])
    def test_matches_dense_lp(self, center, variance):
        grid = default_grid(n1=32, n2=32)
        assert GridDistance(grid).block == 2
        xs, a, ys, b = coarsened_gaussians(grid, center, variance)
        value, _ = _transport_lp(xs, a, ys, b)
        assert abs(value - dense_transport_lp(xs, a, ys, b)) <= 1e-7

    @pytest.mark.parametrize("center, variance", [
        ((0.05, 0.0), 0.26), ((0.3, 0.1), 0.5), ((1.0, -1.0), 0.3)])
    def test_same_optimum_and_rounds_as_linprog(self, monkeypatch, center,
                                                variance):
        grid = default_grid(n1=32, n2=32)
        xs, a, ys, b = coarsened_gaussians(grid, center, variance)
        value, rounds = _transport_lp(xs, a, ys, b)
        monkeypatch.setattr(measures, "_restricted_lp", linprog_restricted_lp)
        ref_value, ref_rounds = _transport_lp(xs, a, ys, b)
        assert abs(value - ref_value) <= 1e-12
        assert rounds == ref_rounds

    def test_model_highs_rejects_is_an_error(self):
        # HiGHS refuses a NaN row bound; the solve must not go on
        cost = np.ones((2, 2))
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        with pytest.raises(SolverError, match="rejected the model"):
            measures._restricted_lp(cost, np.array([np.nan, 0.5]),
                                    np.array([0.5, 0.5]), rows, cols)

    def test_unsolvable_lp_names_the_model_status(self):
        # a negative sink weight leaves the transport polytope empty
        xs = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SolverError, match="model status Infeasible"):
            _transport_lp(xs, np.array([0.5, 0.5]), xs, np.array([-0.5, 1.5]))

    def test_mass_across_the_box_needs_pricing_rounds(self):
        # the nearest partners of every point stay inside its own bump, so
        # the first candidate set cannot carry mass across the box cheaply
        grid = default_grid(n1=32, n2=32)
        xs, a, ys, b = coarsened_gaussians(grid, (-2.0, 2.0), 0.2)
        value, rounds = _transport_lp(xs, a, ys, b)
        assert rounds >= 3
        assert abs(value - dense_transport_lp(xs, a, ys, b)) <= 1e-7

    def test_one_point_supports(self):
        rng = np.random.default_rng(9)
        x = np.array([[0.2, -0.4]])
        ys = rng.uniform(-1.0, 1.0, size=(5, 2))
        b = rng.uniform(0.1, 1.0, size=5)
        b /= b.sum()
        expected = float(b @ np.hypot(*(ys - x).T))
        assert abs(wasserstein1_points(x, [1.0], ys, b) - expected) < 1e-12
        assert abs(wasserstein1_points(ys, b, x, [1.0]) - expected) < 1e-12
        assert abs(wasserstein1_points(x, [1.0], ys[:1], [1.0])
                   - np.hypot(*(ys[0] - x[0]))) < 1e-12

    def test_grid_distance_is_the_lp_on_coarsened_supports(self):
        grid = default_grid(n1=32, n2=32)
        gd = GridDistance(grid)
        mu = truncated_gaussian(grid, variance=0.25).values
        nu = truncated_gaussian(grid, center=(0.3, 0.1), variance=0.5).values
        assert gd.distance(mu, nu) == wasserstein1_points(
            *gd.coarsen(mu), *gd.coarsen(nu))


class TestSinkhorn:
    def test_identical_measures_small_bias(self):
        grid = grid8()
        m = random_density(grid, np.random.default_rng(1))
        res = sinkhorn(m, m, reg=1e-3 * grid.diameter)
        assert 0.0 <= res.debiased <= 1e-3
        assert res.value >= -1e-9

    def test_two_point_case_within_two_percent(self):
        grid = grid8()
        mu = point_mass(grid, 1, 1)
        nu = point_mass(grid, 6, 6)
        exact = node_w1(mu, nu)
        res = sinkhorn(mu, nu, reg=1e-3 * grid.diameter)
        assert abs(res.value - exact) <= 0.02 * exact

    def test_random_pairs_within_two_percent(self):
        grid = grid8()
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu = random_density(grid, rng)
            nu = random_density(grid, rng)
            exact = node_w1(mu, nu)
            res = sinkhorn(mu, nu, reg=1e-3 * grid.diameter)
            assert res.value >= exact - 1e-9  # rounded plan is feasible
            assert abs(res.debiased - exact) <= 0.02 * max(exact, 1e-6)

    def test_reg_must_be_positive(self):
        grid = grid8()
        m = random_density(grid, np.random.default_rng(2))
        with pytest.raises(ConfigurationError):
            sinkhorn(m, m, reg=0.0)

    def test_converges_to_exact_as_reg_shrinks(self):
        grid = grid8()
        rng = np.random.default_rng(11)
        mu = random_density(grid, rng)
        nu = random_density(grid, rng)
        exact = node_w1(mu, nu)
        errs = [abs(sinkhorn(mu, nu, reg=r * grid.diameter).value - exact)
                for r in (3e-2, 3e-3)]
        assert errs[1] <= errs[0] + 1e-12


class TestGridDistance:
    def test_zero_for_identical(self):
        grid = Grid2D(-2, 2, -2, 2, 24, 24)
        m = random_density(grid, np.random.default_rng(0))
        gd = GridDistance(grid)
        assert gd.distance(m.values, m.values) == 0.0

    def test_tracks_exact_on_small_grid(self):
        grid = Grid2D(-2, 2, -2, 2, 16, 16)
        rng = np.random.default_rng(5)
        mu = random_density(grid, rng)
        nu = random_density(grid, rng)
        gd = GridDistance(grid)
        approx = gd.distance(mu.values, nu.values)
        exact = node_w1(mu, nu)
        assert GridDistance(grid).block == 1
        assert abs(approx - exact) <= 1e-9

    @pytest.mark.parametrize("max_points", [0, -1])
    def test_support_size_must_be_positive(self, max_points):
        # -1 made the block search loop forever; 0 gave one point per slice
        with pytest.raises(ConfigurationError, match="max_points must be >= 1"):
            GridDistance(default_grid(n1=32, n2=32), max_points)


class TestHolder:
    def test_static_path(self):
        grid = Grid2D(-2, 2, -2, 2, 12, 12)
        m = random_density(grid, np.random.default_rng(0))
        vals = np.repeat(m.values[None], 9, axis=0)
        path = DensityPath(grid, 0.125, vals)
        est = holder_halftime_estimate(path)
        assert est.max_ratio == 0.0
        assert np.isnan(est.slope)

    def test_too_few_pairs(self):
        grid = Grid2D(-2, 2, -2, 2, 12, 12)
        m = random_density(grid, np.random.default_rng(0))
        vals = np.repeat(m.values[None], 2, axis=0)
        path = DensityPath(grid, 0.5, vals)
        with pytest.raises(ConfigurationError):
            holder_halftime_estimate(path)

    def test_heat_kernel_path_ratio_stable(self):
        # pure diffusion: d1(m_s, m_t) ~ C |s-t|^(1/2); the max ratio should
        # be finite and stable when the time mesh is refined
        grid = Grid2D(-4, 4, -4, 4, 24, 24)
        x1g, x2g = grid.meshgrid()

        def gaussian_path(nt, T):
            vals = []
            for k in range(nt):
                v = 0.3 + 0.5 * (k / (nt - 1)) * T
                dens = np.exp(-(x1g ** 2 + x2g ** 2) / (2 * v))
                dens /= grid.integrate(dens)
                vals.append(dens)
            return DensityPath(grid, T / (nt - 1), np.array(vals))

        ratios = []
        for nt in (9, 17):
            est = holder_halftime_estimate(gaussian_path(nt, 1.0))
            assert np.isfinite(est.max_ratio)
            ratios.append(est.max_ratio)
        assert abs(ratios[1] - ratios[0]) <= 0.5 * max(ratios)
