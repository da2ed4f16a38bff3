"""Tests for the Monte Carlo path simulator and value estimator."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from degmfg.coupling import CouplingSpec, builtin_coupling
from degmfg.dynamics import dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.grid import Grid2D, Stencil, ValuePath, truncated_gaussian
from degmfg.hjb import HjbConfig, solve_hjb_backward
from degmfg.operators import degenerate_gradient
from degmfg import sde
from references import const_coupling, constant_path, default_grid, \
    kde_bandwidth, per_block_euler_maruyama, reflect_full_modulo, trajectory


def _const_u_path(grid, nt, T, value=0.0):
    return ValuePath(grid, T / (nt - 1), np.full((nt,) + grid.shape, value))


def _const_m_path(grid, nt, T):
    return constant_path(truncated_gaussian(grid), T / (nt - 1), nt)


def _bilinear_reference(grid, values, pts):
    """The bilinear formula with 2-D gathers, clamped to the box."""
    f1 = np.clip((pts[:, 0] - grid.x1_min) / grid.dx1, 0.0, grid.n1 - 1.0)
    f2 = np.clip((pts[:, 1] - grid.x2_min) / grid.dx2, 0.0, grid.n2 - 1.0)
    i1 = np.minimum(f1.astype(int), grid.n1 - 2)
    i2 = np.minimum(f2.astype(int), grid.n2 - 2)
    t1 = f1 - i1
    t2 = f2 - i2
    v00 = values[i1, i2]
    v10 = values[i1 + 1, i2]
    v01 = values[i1, i2 + 1]
    v11 = values[i1 + 1, i2 + 1]
    return ((1 - t1) * (1 - t2) * v00 + t1 * (1 - t2) * v10
            + (1 - t1) * t2 * v01 + t1 * t2 * v11)


def _kde_reference(pts, grid):
    """The Gaussian KDE as the direct 2-D sum over nodes and particles, in
    chunks of 2000 particles, with Silverman's per-axis bandwidths."""
    n = pts.shape[0]
    sig = np.std(pts, axis=0, ddof=1) if n > 1 else np.array([0.0, 0.0])
    sig = np.maximum(sig, 1e-3 * min(grid.dx1, grid.dx2))
    bw = sig * n ** (-1.0 / 6.0)
    x1g, x2g = grid.meshgrid()
    vals = np.zeros(grid.shape)
    chunk = 2000
    for lo in range(0, n, chunk):
        p = pts[lo:lo + chunk]
        d1 = (x1g.ravel()[:, None] - p[None, :, 0]) / bw[0]
        d2 = (x2g.ravel()[:, None] - p[None, :, 1]) / bw[1]
        vals += np.exp(-0.5 * (d1 ** 2 + d2 ** 2)).sum(axis=1).reshape(grid.shape)
    return vals / grid.integrate(vals)


GRID = default_grid(n1=33, n2=33)
NT = 11
T = 1.0


class TestSimulatePaths:
    def test_zero_dynamics_constant_value_freezes_particles(self):
        # [TRIVIAL] no noise, no feedback gradient -> particles never move
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T, value=1.0)
        cfg = sde.EnsembleConfig(n_particles=200, seed=7, dt_sde=0.1)
        final = sde.simulate_paths(dyn, up, (0.3, -0.2), 0.0, cfg)
        assert np.max(np.abs(final - np.array([0.3, -0.2]))) < 1e-14

    def test_bit_identical_reproducibility(self):
        dyn = dynamics_preset("zero", epsilon=0.05)
        up = _const_u_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=300, seed=42, dt_sde=0.05)
        a = trajectory(dyn, up, (0.0, 0.0), 0.0, cfg)
        b = trajectory(dyn, up, (0.0, 0.0), 0.0, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(a[-1],
                              sde.simulate_paths(dyn, up, (0.0, 0.0), 0.0, cfg))

    def test_seed_changes_paths(self):
        dyn = dynamics_preset("zero", epsilon=0.05)
        up = _const_u_path(GRID, NT, T)
        a = trajectory(dyn, up, (0.0, 0.0), 0.0,
                       sde.EnsembleConfig(200, seed=1, dt_sde=0.05))
        b = trajectory(dyn, up, (0.0, 0.0), 0.0,
                       sde.EnsembleConfig(200, seed=2, dt_sde=0.05))
        assert not np.array_equal(a, b)

    def test_dead_x2_mean_is_martingale(self):
        # h == 0 kills the x2 drift; with eps > 0 the x2 mean stays put
        # within three standard errors.
        dyn = dynamics_preset("fully_degenerate_x2", epsilon=0.05)
        x1g, x2g = GRID.meshgrid()
        up = ValuePath(GRID, T / (NT - 1),
                       np.tile(0.5 * x2g ** 2, (NT, 1, 1)))
        cfg = sde.EnsembleConfig(n_particles=20_000, seed=3, dt_sde=0.05)
        x2_final = sde.simulate_paths(dyn, up, (0.0, 0.4), 0.0, cfg)[:, 1]
        se = np.std(x2_final, ddof=1) / np.sqrt(cfg.n_particles)
        assert abs(np.mean(x2_final) - 0.4) < 3 * se

    def test_pure_viscosity_variance_growth(self):
        # [DERIVED] eps > 0, sigma = 0, constant u: each coordinate is a
        # Brownian motion with variance 2*eps*t.
        eps = 0.05
        dyn = dynamics_preset("zero", epsilon=eps)
        up = _const_u_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=20_000, seed=1, dt_sde=0.05)
        final = sde.simulate_paths(dyn, up, (0.0, 0.0), 0.0, cfg)
        target = 2 * eps * T
        for axis in range(2):
            v = np.var(final[:, axis], ddof=1)
            # variance of the sample variance ~ 2*target^2/n
            se = target * np.sqrt(2.0 / cfg.n_particles)
            assert abs(v - target) < 4 * se

    def test_paths_stay_in_box(self):
        dyn = dynamics_preset("grushin_exp", epsilon=0.2)
        up = _const_u_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=2_000, seed=5, dt_sde=0.05)
        positions = trajectory(dyn, up, (4.9, 4.9), 0.0, cfg)
        assert np.all(positions[..., 0] >= GRID.x1_min)
        assert np.all(positions[..., 0] <= GRID.x1_max)
        assert np.all(positions[..., 1] >= GRID.x2_min)
        assert np.all(positions[..., 1] <= GRID.x2_max)

    def test_linear_value_drives_constant_drift(self):
        # u = c * x1 gives feedback alpha1 = -c: the x1 mean moves -c*T.
        c = 0.7
        x1g, _ = GRID.meshgrid()
        up = ValuePath(GRID, T / (NT - 1), np.tile(c * x1g, (NT, 1, 1)))
        dyn = dynamics_preset("zero")
        cfg = sde.EnsembleConfig(n_particles=100, seed=0, dt_sde=0.05)
        final = sde.simulate_paths(dyn, up, (0.5, 0.0), 0.0, cfg)
        assert np.allclose(final[:, 0], 0.5 - c * T, atol=1e-10)

    def test_coarse_sde_step_rejected(self):
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)  # dt = 0.1
        cfg = sde.EnsembleConfig(n_particles=10, seed=0, dt_sde=0.2)
        with pytest.raises(ConfigurationError):
            sde.simulate_paths(dyn, up, (0.0, 0.0), 0.0, cfg)

    def test_t0_out_of_range_rejected(self):
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=10, seed=0, dt_sde=0.1)
        with pytest.raises(ConfigurationError):
            sde.simulate_paths(dyn, up, (0.0, 0.0), T, cfg)

    @pytest.mark.parametrize("x0", [
        (0.1, 0.2, 0.3), (0.1,), (np.nan, 0.0), (0.0, np.inf),
        np.zeros((10, 3)), np.zeros((9, 2)), np.full((10, 2), np.nan)],
        ids=["three", "one", "nan", "inf", "n_by_3", "too_few", "nan_array"])
    def test_malformed_start_rejected(self, x0):
        # a finite point (2,) or a finite (n_particles, 2) array, else the
        # documented ConfigurationError before the kernel runs
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=10, seed=0, dt_sde=0.1)
        with pytest.raises(ConfigurationError, match="x0"):
            sde.step_count(up.horizon, up.dt, x0, 0.0, cfg)
        with pytest.raises(ConfigurationError, match="x0"):
            sde.simulate_paths(dyn, up, x0, 0.0, cfg)

    def test_bad_ensemble_config_rejected(self):
        with pytest.raises(ConfigurationError):
            sde.EnsembleConfig(n_particles=0)
        with pytest.raises(ConfigurationError):
            sde.EnsembleConfig(dt_sde=-0.1)

    def test_feedback_equals_per_slice_gradient(self):
        # the kernel's feedback is minus the degenerate gradient of each
        # slice, linear in time between slices
        grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
        rng = np.random.default_rng(2)
        up = ValuePath(grid, 0.1, rng.normal(size=(11,) + grid.shape))
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        cfg = sde.EnsembleConfig(n_particles=50, seed=3, dt_sde=0.05)
        seen = []
        sde._euler_maruyama(dyn, up, (0.2, -0.1), 0.0, cfg, 20,
                            lambda lo, hi, step, t, x, a1, a2:
                            seen.append((t, x.copy(), a1, a2)))
        slopes = [degenerate_gradient(v, grid, dyn) for v in up.values]
        alpha1, alpha2 = (sde._SlicedField(up.dt, -np.array(p))
                          for p in zip(*slopes))
        for t, x, a1, a2 in seen:
            assert np.array_equal(a1, alpha1.gather(Stencil(grid, x), t))
            assert np.array_equal(a2, alpha2.gather(Stencil(grid, x), t))

    def test_fields_read_from_the_step_stencil(self):
        # extra fields reach visit after the feedback, each equal to its
        # own bilinear-in-space, linear-in-time interpolant
        grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
        rng = np.random.default_rng(5)
        up = ValuePath(grid, 0.1, rng.normal(size=(11,) + grid.shape))
        f = sde._SlicedField(0.1, rng.normal(size=(11,) + grid.shape))
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        cfg = sde.EnsembleConfig(n_particles=50, seed=4, dt_sde=0.05)
        seen = []
        sde._euler_maruyama(dyn, up, (0.2, -0.1), 0.0, cfg, 20,
                            lambda lo, hi, step, t, x, a1, a2, fx:
                            seen.append((t, x.copy(), fx)), fields=(f,))
        assert len(seen) == 20
        for t, x, fx in seen:
            assert np.array_equal(fx, f.gather(Stencil(grid, x), t))

    def test_noise_is_each_blocks_philox_stream_in_step_order(self):
        # drawn step by step, a block's normals are its one-shot
        # (n_steps, nb, 2) draw from Philox key seed * 2**20 + block
        eps, seed, n_steps = 0.05, 9, 4
        dyn = dynamics_preset("zero", epsilon=eps)
        up = _const_u_path(GRID, NT, T)
        n = sde.PARTICLE_BLOCK + 5
        cfg = sde.EnsembleConfig(n_particles=n, seed=seed, dt_sde=0.05)
        final = sde._euler_maruyama(dyn, up, (0.1, -0.3), 0.0, cfg, n_steps,
                                    lambda lo, hi, step, t, x, a1, a2: None)
        for blk, (lo, hi) in enumerate([(0, sde.PARTICLE_BLOCK),
                                        (sde.PARTICLE_BLOCK, n)]):
            noise = np.random.Generator(np.random.Philox(
                key=(seed << 20) + blk)).standard_normal((n_steps, hi - lo, 2))
            x = np.tile([0.1, -0.3], (hi - lo, 1))
            for step in range(n_steps):
                x = x + np.sqrt(2.0 * eps) * noise[step] * np.sqrt(cfg.dt_sde)
                x = np.column_stack([sde._reflect(x[:, 0], -5.0, 5.0),
                                     sde._reflect(x[:, 1], -5.0, 5.0)])
            assert np.array_equal(final[lo:hi], x)

    def test_seed_range(self):
        # a block's Philox key is seed * 2**20 + block in 64 bits: 2**44
        # would wrap onto seed 0's stream
        sde.EnsembleConfig(seed=2 ** 44 - 1)
        assert not np.array_equal(
            sde._block_generator(2 ** 44 - 1, 0).standard_normal(3),
            sde._block_generator(0, 0).standard_normal(3))
        with pytest.raises(ConfigurationError, match=r"seed must be < 2\*\*44"):
            sde.EnsembleConfig(seed=2 ** 44)


class TestChunkedKernel:
    """The kernel steps a chunk of blocks as one set of arrays; positions,
    feedback and field values are those of the per-block reference."""

    N = 5 * sde.PARTICLE_BLOCK + 3

    @pytest.mark.parametrize("preset", ["grushin_exp", "sin_sigma"])
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("start", ["point", "array"])
    def test_equals_the_per_block_reference(self, monkeypatch, preset,
                                            substeps, start):
        # two blocks a chunk: the chunks are blocks 0-1, 2-3 and 4-5, the
        # last block 3 particles; dt_sde = dt puts every step on a mesh time
        monkeypatch.setattr(sde, "CHUNK_BLOCKS", 2)
        grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
        rng = np.random.default_rng(8)
        up = ValuePath(grid, 0.1, rng.normal(size=(5,) + grid.shape))
        f = sde._SlicedField(0.1, rng.normal(size=(5,) + grid.shape))
        dyn = dynamics_preset(preset, epsilon=0.3)
        n, n_steps = self.N, 4 * substeps
        cfg = sde.EnsembleConfig(n_particles=n, seed=6,
                                 dt_sde=up.dt / substeps)
        x0 = (0.2, -0.1) if start == "point" else np.column_stack(
            [rng.uniform(-3.0, 3.0, n), rng.uniform(-2.0, 2.0, n)])
        runs = []
        for kernel in (sde._euler_maruyama, per_block_euler_maruyama):
            calls = []  # the arrays as handed over, kept and not copied
            final = kernel(dyn, up, x0, 0.0, cfg, n_steps,
                           lambda *args: calls.append(args), fields=(f,))
            runs.append((final, calls))
        (final, calls), (ref_final, ref_calls) = runs
        assert np.array_equal(final, ref_final)
        chunk = 2 * sde.PARTICLE_BLOCK
        assert sorted({args[:2] for args in calls}) == \
            [(0, chunk), (chunk, 2 * chunk), (2 * chunk, n)]
        assert len(calls) == 3 * n_steps
        # x, a1, a2 and F over all steps and particles, read after the run:
        # an array written after its visit would differ from the reference
        for got, ref in zip(*(self._assemble(c, n, n_steps)
                              for c in (calls, ref_calls))):
            assert np.array_equal(got, ref)

    @staticmethod
    def _assemble(calls, n, n_steps):
        times = np.full(n_steps, np.nan)
        out = [np.full((n_steps, n, 2), np.nan)] \
            + [np.full((n_steps, n), np.nan) for _ in range(3)]
        for lo, hi, step, t, *arrays in calls:
            times[step] = t
            for o, a in zip(out, arrays):
                o[step, lo:hi] = a
        return [times] + out

    def test_every_step_reads_one_slice_on_the_mesh(self):
        # dt_sde = dt on [0, 1]: t / dt lands on the slice index at every
        # step of the shipped and benchmarked meshes, so each step reads
        # one slice
        for nt in (33, 64, 128, 256):
            f = sde._SlicedField(1.0 / (nt - 1), np.zeros((nt, 3, 3)))
            reads = []
            st = SimpleNamespace(gather=lambda flat: reads.append(1) or 0.0)
            for step in range(nt - 1):
                f.gather(st, step * f.dt)
            assert len(reads) == nt - 1


class TestStencil:
    GRID = Grid2D(-3.0, 2.0, -1.5, 2.5, 13, 7)

    def _points(self):
        g = self.GRID
        rng = np.random.default_rng(11)
        inside = np.column_stack([rng.uniform(g.x1_min, g.x1_max, 200),
                                  rng.uniform(g.x2_min, g.x2_max, 200)])
        edges = np.array([[g.x1_max, g.x2_max], [g.x1_max, 0.3],
                          [-0.7, g.x2_max], [g.x1_min, g.x2_min],
                          [g.x1_min, g.x2_max], [g.x1_max, g.x2_min],
                          [g.x1[5], g.x2[3]]])
        outside = np.array([[g.x1_max + 0.4, 0.1], [g.x1_min - 2.0, 0.1],
                            [0.2, g.x2_max + 1.0], [0.2, g.x2_min - 0.3],
                            [9.0, -9.0], [-9.0, 9.0]])
        return np.concatenate([inside, edges, outside])

    def test_flat_gather_equals_the_bilinear_formula(self):
        g = self.GRID
        values = np.random.default_rng(12).normal(size=g.shape)
        pts = self._points()
        ref = _bilinear_reference(g, values, pts)
        st = Stencil(g, pts)
        assert np.array_equal(st.gather(values.ravel()), ref)

    def test_stack_gather_equals_the_per_slice_gather(self):
        g = self.GRID
        stack = np.random.default_rng(14).normal(size=(3,) + g.shape)
        pts = self._points()
        st = Stencil(g, pts)
        out = st.gather(stack.reshape(3, -1))
        assert out.shape == (3, len(pts))
        for k in range(3):
            assert np.array_equal(out[k],
                                  _bilinear_reference(g, stack[k], pts))

    def test_upper_edges_use_the_last_cell_at_full_weight(self):
        g = self.GRID
        st = Stencil(g, np.array([[g.x1_max, g.x2_max],
                                  [g.x1_max + 1.0, g.x2_max + 1.0]]))
        last = (g.n1 - 2) * g.n2 + g.n2 - 2
        assert np.array_equal(st.corners[0], [last, last])
        assert np.array_equal(st.weights[:, 0], [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(st.weights[:, 1], [0.0, 0.0, 0.0, 1.0])

    def test_sliced_field_equals_per_slice_formula(self):
        g = self.GRID
        slices = np.random.default_rng(13).normal(size=(5,) + g.shape)
        f = sde._SlicedField(0.25, slices)
        pts = self._points()
        for t in (0.0, 0.3, 0.75, 1.0):
            k = min(int(t / 0.25), 3)
            w = t / 0.25 - k
            ref = ((1 - w) * _bilinear_reference(g, slices[k], pts)
                   + w * _bilinear_reference(g, slices[k + 1], pts))
            assert np.array_equal(f.gather(Stencil(g, pts), t), ref)


class TestReflect:
    @pytest.mark.parametrize("lo, hi", [(-5.0, 5.0), (-1.5, 2.5),
                                        (0.0, 1.0), (0.3, 0.7)])
    def test_positions_equal_the_full_modulo(self, lo, hi):
        span = hi - lo
        rng = np.random.default_rng(31)
        inside = np.concatenate([
            rng.uniform(lo, hi, 250),
            0.5 * (lo + hi) + 0.49 * span * np.sin(rng.normal(size=250))])
        edges = np.array([lo, hi, np.nextafter(lo, -np.inf),
                          np.nextafter(hi, np.inf), lo - 1e-17, hi + 1e-17,
                          lo + 2.0 * span, lo - 2.0 * span, -0.0, 0.0])
        outside = np.concatenate([
            lo - rng.uniform(0.0, span, 50), hi + rng.uniform(0.0, span, 50),
            rng.uniform(lo - 7.0 * span, lo - span, 50),
            rng.uniform(hi + span, hi + 7.0 * span, 50),
            lo + np.arange(-6, 7) * span])
        x = np.concatenate([inside, edges, outside])
        out = sde._reflect(x, lo, hi)
        assert out.tobytes() == reflect_full_modulo(x, lo, hi).tobytes()
        assert np.all((out >= lo) & (out <= hi))

    def test_inside_points_keep_the_offset_round_trip(self):
        # lo + (x - lo) is not always x in floating point: 0.1 in [-5, 5]
        # comes back as 0.09999999999999964, and so must it stay
        x = np.array([0.1])
        assert -5.0 + (x - -5.0) != x
        assert sde._reflect(x, -5.0, 5.0)[0] == -5.0 + (0.1 + 5.0)


class TestMcValue:
    def test_constant_terminal_cost_exact(self):
        # [TRIVIAL] F = 0, G = c, zero dynamics, zero feedback: the cost is
        # exactly c for every particle (zero variance).
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)
        mp = _const_m_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=50, seed=0, dt_sde=0.1)
        est = sde.mc_value(dyn, const_coupling(g=2.5), mp, up,
                           (0.1, 0.1), 0.0, cfg)
        assert est.mean == pytest.approx(2.5, abs=1e-14)
        assert est.std_error == 0.0
        assert est.n == 50

    def test_unit_running_cost_gives_time_to_go(self):
        # [TRIVIAL] F = 1, G = 0, no noise: the cost is exactly T - t0.
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)
        mp = _const_m_path(GRID, NT, T)
        cfg = sde.EnsembleConfig(n_particles=20, seed=0, dt_sde=0.05)
        est = sde.mc_value(dyn, const_coupling(f=1.0), mp, up,
                           (0.1, 0.1), 0.4, cfg)
        assert est.mean == pytest.approx(T - 0.4, abs=1e-12)
        assert est.std_error < 1e-15

    def test_matches_pde_value_in_deterministic_control_case(self):
        # [DERIVED] zero dynamics, smooth terminal cost: the PDE solution is
        # the inf-convolution of G, and the feedback-path cost must agree
        # with u(x0, t0) within 3*SE plus the discretization error.
        grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 65, 65)
        nt = 65
        dyn = dynamics_preset("zero")
        x1g, x2g = grid.meshgrid()

        def g_fun(x1, x2, m):
            return 0.5 * (x1 ** 2 + x2 ** 2) / (1.0 + 0.25 * (x1 ** 2 + x2 ** 2))

        coupling = CouplingSpec(F=lambda a, b, m: 0.0 * a, G=g_fun,
                                monotone=True, name="quad_sat")
        m0 = truncated_gaussian(grid)
        mp = constant_path(m0, T / (nt - 1), nt)
        cfg_h = HjbConfig(T=T, nt=nt)
        up = solve_hjb_backward(dyn, coupling, mp, cfg_h)

        x0, t0 = (0.8, -0.5), 0.0
        est = sde.mc_value(dyn, coupling, mp, up, x0, t0,
                           sde.EnsembleConfig(n_particles=200, seed=11,
                                              dt_sde=up.dt))
        i1 = int(round((x0[0] - grid.x1_min) / grid.dx1))
        i2 = int(round((x0[1] - grid.x2_min) / grid.dx2))
        pde_val = up.slice(0).values[i1, i2]
        tol = 3 * est.std_error + 3.0 * (grid.dx1 + up.dt)
        assert abs(est.mean - pde_val) < tol

    def test_weak_convergence_under_step_refinement(self):
        # [DERIVED] u = |x|^2/2 gives the Ornstein-Uhlenbeck drift -X, so
        # E[X1_T] = x0 * exp(-T) while Euler produces x0 * (1 - dt)^(T/dt).
        # Halving dt must roughly halve that bias (weak order one); we test
        # the known closed-form Euler mean against the sample mean, and the
        # coarse bias against the fine one.
        grid = Grid2D(-4.0, 4.0, -4.0, 4.0, 65, 65)
        nt = 49
        dyn = dynamics_preset("zero", epsilon=0.05)
        x1g, x2g = grid.meshgrid()
        up = ValuePath(grid, T / (nt - 1),
                       np.tile(0.5 * (x1g ** 2 + x2g ** 2), (nt, 1, 1)))
        x0 = (1.0, 0.0)
        exact = x0[0] * np.exp(-T)
        n = 200_000
        biases = {}
        for steps in (48, 96):
            x1_final = sde.simulate_paths(
                dyn, up, x0, 0.0,
                sde.EnsembleConfig(n, seed=4, dt_sde=T / steps))[:, 0]
            mean = np.mean(x1_final)
            se = np.std(x1_final, ddof=1) / np.sqrt(n)
            euler_mean = x0[0] * (1.0 - T / steps) ** steps
            # the sample mean must match the Euler chain's exact mean
            assert abs(mean - euler_mean) < 4 * se
            biases[steps] = abs(mean - exact)
        # bias ratio near 2 (allow slack for Monte Carlo noise)
        assert biases[48] > 1.4 * biases[96]

    def test_pass_rule(self):
        est = sde.McEstimate(mean=1.0, std_error=0.01, n=100)
        assert est.agrees_with(1.079) and est.agrees_with(0.921)
        assert not est.agrees_with(1.081)

    def test_same_paths_as_simulate_paths(self):
        # no feedback and G = x1: the value estimate is the mean final x1 of
        # the very paths simulate_paths draws for the same seed
        dyn = dynamics_preset("zero", epsilon=0.05)
        up = _const_u_path(GRID, NT, T)
        coupling = CouplingSpec(F=lambda x1, x2, m: 0.0 * x1,
                                G=lambda x1, x2, m: x1 + 0.0 * x2,
                                monotone=True)
        cfg = sde.EnsembleConfig(n_particles=5000, seed=4, dt_sde=0.05)
        est = sde.mc_value(dyn, coupling, _const_m_path(GRID, NT, T), up,
                           (0.3, -0.2), 0.0, cfg)
        final = sde.simulate_paths(dyn, up, (0.3, -0.2), 0.0, cfg)
        assert abs(est.mean - np.mean(final[:, 0])) < 1e-12

    def test_mesh_mismatch_rejected(self):
        dyn = dynamics_preset("zero")
        up = _const_u_path(GRID, NT, T)
        other = default_grid(n1=17, n2=17)
        mp = _const_m_path(other, NT, T)
        with pytest.raises(ConfigurationError):
            sde.mc_value(dyn, const_coupling(), mp, up, (0.0, 0.0), 0.0,
                         sde.EnsembleConfig(10, seed=0, dt_sde=0.1))


class TestPeakMemory:
    def test_particles_hold_one_step_at_64_squared(self):
        # 10^4 particles over 127 steps on a 64^2 x 128 path: the feedback
        # (and F) are path-sized, the particles only step-sized, so no
        # (steps, particles, 2) trajectory or noise array is ever held
        grid = default_grid(n1=64, n2=64)
        nt = 128
        x1g, x2g = grid.meshgrid()
        up = ValuePath(grid, T / (nt - 1),
                       np.tile(np.sin(x1g) * np.cos(0.5 * x2g), (nt, 1, 1)))
        mp = constant_path(truncated_gaussian(grid), up.dt, nt)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("nonlocal_smooth")
        cfg = sde.EnsembleConfig(n_particles=10_000, seed=0, dt_sde=up.dt)
        peaks = []
        for run in (lambda: sde.simulate_paths(dyn, up, (0.3, -0.2), 0.0, cfg),
                    lambda: sde.mc_value(dyn, coupling, mp, up, (0.3, -0.2),
                                         0.0, cfg)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1]
                             / up.values.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 4.5, peaks

    def test_a_chunk_bounds_the_step_arrays(self):
        # 3 * 10^5 particles, over nineteen chunks, on a small path: beyond
        # the (n, 2) result the kernel holds one chunk's step arrays (about
        # 24 float64 words a particle), not the whole ensemble's
        grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
        up = ValuePath(grid, 0.25, np.random.default_rng(4).normal(
            size=(5,) + grid.shape))
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        n = 300_000
        cfg = sde.EnsembleConfig(n_particles=n, seed=0, dt_sde=up.dt)
        tracemalloc.start()
        try:
            sde.simulate_paths(dyn, up, (0.3, -0.2), 0.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sde.CHUNK_BLOCKS * sde.PARTICLE_BLOCK <= 16_384
        assert peak - 16 * n <= 32 * 8 * 16_384, peak


class TestEmpiricalDensity:
    def test_unit_mass_and_nonnegative(self):
        dyn = dynamics_preset("zero", epsilon=0.05)
        up = _const_u_path(GRID, NT, T)
        final = sde.simulate_paths(dyn, up, (0.0, 0.0), 0.0,
                                   sde.EnsembleConfig(2_000, seed=9,
                                                      dt_sde=0.1))
        d = sde.empirical_density(final, GRID)
        assert GRID.integrate(d.values) == pytest.approx(1.0, abs=1e-9)
        assert np.min(d.values) >= 0.0

    def test_kde_tracks_known_gaussian(self):
        # Brownian cloud at time T is N(0, 2*eps*T I); the KDE should land
        # within a loose L1 distance of that density.
        eps = 0.1
        dyn = dynamics_preset("zero", epsilon=eps)
        up = _const_u_path(GRID, NT, T)
        final = sde.simulate_paths(dyn, up, (0.0, 0.0), 0.0,
                                   sde.EnsembleConfig(20_000, seed=2,
                                                      dt_sde=0.05))
        d = sde.empirical_density(final, GRID)
        var = 2 * eps * T
        x1g, x2g = GRID.meshgrid()
        ref = np.exp(-(x1g ** 2 + x2g ** 2) / (2 * var)) / (2 * np.pi * var)
        ref /= GRID.integrate(ref)
        l1 = GRID.integrate(np.abs(d.values - ref))
        assert l1 < 0.15

    def test_equals_the_direct_sum(self):
        # non-square grid, unequal spacings and a particle count that is
        # not a multiple of the reference's chunk: a swapped axis shows
        grid = Grid2D(-3.0, 2.0, -1.0, 3.0, 41, 23)
        rng = np.random.default_rng(21)
        pts = np.column_stack([rng.normal(-0.6, 0.9, 4321),
                               rng.normal(1.2, 0.4, 4321)])
        d = sde.empirical_density(pts, grid)
        ref = _kde_reference(pts, grid)
        assert np.max(np.abs(d.values - ref)) <= 1e-12 * np.max(ref)

    def test_peak_memory_at_64_squared(self):
        # the axis factors are (64, 10000) each: a few MB, where the
        # direct sum over nodes x particles peaks at about 250 MB
        grid = default_grid(n1=64, n2=64)
        pts = np.random.default_rng(22).normal(size=(10_000, 2))
        tracemalloc.start()
        try:
            sde.empirical_density(pts, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak

    def test_bandwidth_is_silverman_on_the_widest_axis(self):
        pts = np.random.default_rng(23).normal(size=(3001, 2)) * [0.5, 1.5]
        sig = np.std(pts, axis=0, ddof=1)
        assert kde_bandwidth(pts) == \
            float(np.max(sig) * 3001 ** (-1.0 / 6.0))

    def test_coincident_particles_named(self):
        # zero spread: the bandwidth is the 1e-3 dx floor and every kernel
        # value at the nodes underflows to 0
        grid = Grid2D(-3.0, 2.0, -1.0, 3.0, 41, 23)
        pts = np.tile([0.1, 0.1], (50, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match="every kernel value underflowed at "
                                     "bandwidth h=.*the particles coincide"):
                sde.empirical_density(pts, grid)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            sde.empirical_density(np.empty((0, 2)), GRID)
