"""Acceptance criteria for the laboratory, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture so the
lines appear in the live log) and then asserts. Shared heavy artifacts —
the viscosity sweep on the shipped default config and the per-config
forward solves — are module-scoped fixtures.
"""

import glob
import os
import sys

import numpy as np
import pytest

from degmfg import sde
from degmfg.config import load_config
from degmfg.coupling import CouplingSpec, builtin_coupling
from degmfg.dynamics import dynamics_preset
from degmfg.fixed_point import eps_sweep, picard_solve
from degmfg.fpe import FpeReport, solve_fpe_forward
from degmfg.grid import DensityField, DensityPath, Grid2D, ValuePath, \
    truncated_gaussian
from degmfg.hjb import HjbConfig, solve_hjb_backward
from degmfg.measures import GridDistance, holder_halftime_estimate, \
    sinkhorn_points
from degmfg.operators import interior_box, sup_norm
from degmfg.verify import AXES_AND_DIAGONALS, ae_residual_report, \
    lipschitz_estimate, semiconcavity_estimate, time_lipschitz_estimate
from references import centered_flux_fpe, constant_path, default_grid, \
    hopf_lax_oracle, kde_bandwidth, mincost_flow_reference, node_support, \
    node_w1, trajectory

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


_CAPMAN = [None]


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    _CAPMAN[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num, desc, passed, detail=""):
    line = "ACCEPTANCE %02d %s: %s%s" % (
        num, desc, "PASS" if passed else "FAIL",
        " (%s)" % detail if detail else "")
    capman = _CAPMAN[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def _band_dev(values):
    """Worst relative deviation from the cross-level mean.

    'Stable within X% across eps' is operationalized as: every level lies
    within X% of the mean over levels.
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    return float(np.max(np.abs(values - mean)) / mean)


@pytest.fixture(scope="module")
def shipped_runs():
    """Forward solve (HJB on frozen density, then FPE) per shipped config."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        cfg = load_config(path)
        dyn = cfg.make_dynamics()
        coupling = cfg.make_coupling()
        hjb = cfg.make_hjb_config()
        m0 = cfg.make_initial_density()
        m_path0 = constant_path(m0, hjb.dt, hjb.nt, validate_slices=False)
        u = solve_hjb_backward(dyn, coupling, m_path0, hjb)
        report = FpeReport()
        m = solve_fpe_forward(m0, u, dyn, hjb, report=report)
        runs[os.path.basename(path)] = dict(cfg=cfg, dyn=dyn,
                                            coupling=coupling, u=u, m=m,
                                            report=report, m0=m0)
    return runs


@pytest.fixture(scope="module")
def sweep():
    """Vanishing-viscosity sweep of the shipped default configuration."""
    cfg = load_config(os.path.join(CONFIG_DIR, "grushin_default.json"))
    res = eps_sweep(cfg.make_dynamics(), cfg.make_coupling(),
                    cfg.make_initial_density(), cfg.make_hjb_config(),
                    cfg.make_fixed_point())
    assert not res.aborted, "viscosity sweep did not converge"
    return cfg, res


def _level(sweep_result, eps):
    for lv in sweep_result.levels:
        if lv.epsilon == eps:
            return lv
    raise AssertionError("missing eps level %g" % eps)


def test_criterion_01_mass_conservation(shipped_runs):
    worst_slice = 0.0
    worst_drift = 0.0
    for name, run in shipped_runs.items():
        m = run["m"]
        for k in range(m.nt):
            worst_slice = max(worst_slice,
                              abs(m.grid.integrate(m.values[k]) - 1.0))
        worst_drift = max(worst_drift, run["report"].mass_drift_max)
    ok = worst_slice <= 1e-8 and worst_drift <= 1e-10
    _report(1, "mass conservation", ok,
            "max slice defect %.2e, max step drift %.2e"
            % (worst_slice, worst_drift))


def test_criterion_02_positivity(shipped_runs):
    worst = min(run["report"].min_density for run in shipped_runs.values())
    _report(2, "positivity pre-clamp", worst >= -1e-12,
            "min pre-clamp density %.2e" % worst)


def test_criterion_03_uniform_lipschitz(sweep):
    _, res = sweep
    spatial, temporal = [], []
    for lv in res.levels:
        if lv.epsilon == 0.0:
            continue
        u = lv.solution.u
        spatial.append(lipschitz_estimate(
            u.values[::max(1, u.nt // 8)], u.grid, boundary_frame=0.1))
        temporal.append(time_lipschitz_estimate(u, boundary_frame=0.1))
    finite = all(np.isfinite(spatial)) and all(np.isfinite(temporal))
    sp_dev = _band_dev(spatial)
    tm_dev = _band_dev(temporal)
    ok = finite and sp_dev < 0.2 and tm_dev < 0.2
    _report(3, "uniform Lipschitz across eps", ok,
            "spatial %.3f..%.3f (dev %.1f%%), temporal %.3f..%.3f "
            "(dev %.1f%%)" % (min(spatial), max(spatial), 100 * sp_dev,
                              min(temporal), max(temporal), 100 * tm_dev))


def test_criterion_04_uniform_semiconcavity(sweep):
    _, res = sweep
    estimates = []
    for lv in res.levels:
        if lv.epsilon == 0.0:
            continue
        u = lv.solution.u
        sampled = u.values[::max(1, u.nt // 8)]
        estimates.append(max(
            semiconcavity_estimate(sampled, u.grid, offset,
                                   boundary_frame=0.1)
            for offset in AXES_AND_DIAGONALS))
    dev = _band_dev(estimates)
    ok = all(np.isfinite(estimates)) and dev < 0.3
    _report(4, "uniform semiconcavity across eps", ok,
            "estimates %.3f..%.3f (dev %.1f%%)"
            % (min(estimates), max(estimates), 100 * dev))


def test_criterion_05_vanishing_viscosity(sweep):
    cfg, res = sweep
    deltas = res.sup_norm_deltas
    # strict decrease applies within the halving schedule; the final step
    # (eps_min -> 0) repeats the previous gap size and is instead bounded
    # by the measured eps = 0 refinement error below
    sched = deltas[:-1]
    decreasing = all(b < a for a, b in zip(sched, sched[1:]))

    # measured eps=0 refinement error: re-solve at the nested refinement
    # (2n-1 nodes per axis, 2nt-1 time slices) and compare on shared nodes
    g = cfg.make_grid()
    fine_grid = Grid2D(g.x1_min, g.x1_max, g.x2_min, g.x2_max,
                       2 * g.n1 - 1, 2 * g.n2 - 1)
    hjb = cfg.make_hjb_config()
    fine_hjb = HjbConfig(T=hjb.T, nt=2 * hjb.nt - 1)
    fp = cfg.make_fixed_point()
    fine_sol = picard_solve(dynamics_preset(cfg.dynamics.preset, 0.0),
                            cfg.make_coupling(),
                            truncated_gaussian(
                                fine_grid,
                                center=tuple(cfg.initial_density.center),
                                variance=cfg.initial_density.variance),
                            fine_hjb, fp)
    assert fine_sol.converged
    coarse_u = _level(res, 0.0).solution.u.values
    fine_on_coarse = fine_sol.u.values[::2, ::2, ::2]
    refine_err = float(np.max(np.abs(fine_on_coarse - coarse_u)))
    ok = decreasing and deltas[-1] <= 3.0 * refine_err
    _report(5, "vanishing viscosity contraction", ok,
            "deltas %s, last %.3e vs 3x refinement error %.3e"
            % (["%.3e" % d for d in deltas], deltas[-1], 3 * refine_err))


def test_criterion_06_w1_holder_in_time(sweep):
    _, res = sweep
    ratios, slopes = [], []
    for lv in res.levels:
        if lv.epsilon == 0.0:
            continue
        est = holder_halftime_estimate(lv.solution.m)
        ratios.append(est.max_ratio)
        slopes.append(est.slope)
    dev = _band_dev(ratios)
    ok = (all(np.isfinite(ratios)) and dev < 0.3
          and all(s >= 0.45 for s in slopes))
    _report(6, "W1 time-Holder regularity", ok,
            "max ratios %.3f..%.3f (dev %.1f%%), slopes %s"
            % (min(ratios), max(ratios), 100 * dev,
               ["%.2f" % s for s in slopes]))


def test_criterion_07_second_moments(shipped_runs, sweep):
    _, res = sweep
    worst = 0.0
    paths = [(run["m"], run["m0"]) for run in shipped_runs.values()]
    paths += [(lv.solution.m, lv.solution.m.slice(0)) for lv in res.levels]
    for m, m0 in paths:
        bound = 3.0 * (m0.grid.second_moment(m0.values) + 1.0)
        sup = max(m.grid.second_moment(v) for v in m.values)
        worst = max(worst, sup / bound)
    _report(7, "second moment bound", worst <= 1.0,
            "worst sup-moment / bound = %.3f" % worst)


def test_criterion_08_hopf_lax_oracle():
    # zero-diffusion quadratic-control case against the inf-convolution
    # formula, on a tighter box so corner boundary pollution stays outside
    # the excluded frame
    grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 128, 128)
    T, nt = 1.0, 256
    dyn = dynamics_preset("zero")
    a = np.array([1.0, 0.0])

    def g_fun(x1, x2, m):
        return 0.5 * np.minimum((x1 - a[0]) ** 2 + (x2 - a[1]) ** 2,
                                (x1 + a[0]) ** 2 + (x2 + a[1]) ** 2)

    coupling = CouplingSpec(F=lambda x1, x2, m: 0.0 * x1, G=g_fun,
                            monotone=True, name="two_well")
    cfg = HjbConfig(T=T, nt=nt)
    m0 = truncated_gaussian(grid)
    m_path = constant_path(m0, cfg.dt, nt, validate_slices=False)
    u = solve_hjb_backward(dyn, coupling, m_path, cfg)
    g_term = u.slice(nt - 1)
    err = 0.0
    interior, _ = interior_box(grid, 0.1)
    for k in range(0, nt - 1, 32):
        oracle = hopf_lax_oracle(g_term, k * cfg.dt, T)
        err = max(err, sup_norm((u.values[k] - oracle.values)[interior]))
    _report(8, "Hopf-Lax oracle agreement", err <= 5e-2,
            "sup error %.3e at 128^2 x 256" % err)


def test_criterion_09_heat_kernel_oracle():
    eps, s, v0 = 0.05, 0.5, 0.25
    grid = default_grid(n1=128, n2=128)
    cfg = HjbConfig(T=1.0, nt=256)
    dyn = dynamics_preset("grushin_exp", epsilon=eps)  # sigma = s constant
    u = ValuePath(grid, cfg.dt, np.zeros((cfg.nt,) + grid.shape))
    m0 = truncated_gaussian(grid, variance=v0)
    report = FpeReport()
    m = solve_fpe_forward(m0, u, dyn, cfg, report=report)
    var = v0 + (2 * eps + s ** 2) * cfg.T
    x1g, x2g = grid.meshgrid()
    ref = np.exp(-(x1g ** 2 + x2g ** 2) / (2 * var)) / (2 * np.pi * var)
    ref /= grid.integrate(ref)
    l1 = grid.integrate(np.abs(m.values[-1] - ref))
    bmass = grid.boundary_mass(m.values[-1])
    ok = l1 <= 2e-2 and bmass <= 1e-6
    _report(9, "heat kernel oracle", ok,
            "L1 error %.3e, boundary mass %.2e" % (l1, bmass))


def test_criterion_10_mc_cross_validation(sweep):
    cfg, res = sweep
    sol = _level(res, cfg.dynamics.epsilon).solution
    grid = sol.u.grid
    dyn = cfg.make_dynamics()
    coupling = cfg.make_coupling()
    probes = [(grid.n1 // 2, grid.n2 // 2),
              (grid.n1 // 4, grid.n2 // 2),
              (3 * grid.n1 // 4, grid.n2 // 2),
              (grid.n1 // 2, grid.n2 // 4),
              (grid.n1 // 2, 3 * grid.n2 // 4)]
    details = []
    ok = True
    for i, (i1, i2) in enumerate(probes):
        x0 = (float(grid.x1[i1]), float(grid.x2[i2]))
        est = sde.mc_value(dyn, coupling, sol.m, sol.u, x0, 0.0,
                           sde.EnsembleConfig(n_particles=100_000, seed=10 + i,
                                              dt_sde=sol.u.dt))
        pde = float(sol.u.values[0, i1, i2])
        diff = abs(est.mean - pde)
        tol = 3 * est.std_error + 0.05
        ok = ok and diff <= tol
        details.append("%.3f<=%.3f" % (diff, tol))
    _report(10, "MC value cross-validation", ok, ", ".join(details))


def test_criterion_11_sde_fpe_consistency(sweep):
    cfg, res = sweep
    sol = _level(res, cfg.dynamics.epsilon).solution
    grid = sol.u.grid
    dyn = cfg.make_dynamics()
    n = 10_000
    x0 = sde.sample_density(sol.m.slice(0), n, seed=77)
    nt_sde = sol.u.nt - 1  # one SDE step per PDE step
    positions = trajectory(dyn, sol.u, x0, 0.0,
                           sde.EnsembleConfig(n_particles=n, seed=78,
                                              dt_sde=sol.u.dt))
    gd = GridDistance(grid)
    rng = np.random.default_rng(79)
    ok = True
    details = []
    for frac in (0.25, 0.5, 1.0):
        step = int(round(frac * nt_sde))
        pts = positions[step]
        kde = sde.empirical_density(pts, grid)
        bw = kde_bandwidth(pts)
        target = sol.m.values[step]
        d = gd.distance(kde.values, target)
        boots = []
        for _ in range(6):
            idx = rng.integers(0, n, size=n)
            boots.append(gd.distance(
                sde.empirical_density(pts[idx], grid).values, target))
        boot_err = float(np.std(boots, ddof=1))
        tol = bw + 3 * boot_err
        ok = ok and d <= tol
        details.append("t=%.2f: %.4f<=%.4f" % (frac * sol.u.horizon, d, tol))
    _report(11, "SDE/FPE marginal consistency", ok, ", ".join(details))


def test_criterion_12_fixed_point_uniqueness(sweep):
    cfg, res = sweep
    eps = cfg.dynamics.epsilon
    base = _level(res, eps).solution
    grid = base.m.grid
    hjb = cfg.make_hjb_config()
    fp = cfg.make_fixed_point()
    m0 = cfg.make_initial_density()
    target = truncated_gaussian(grid, center=(1.0, -1.0)).values
    w = np.linspace(0.0, 1.0, hjb.nt)[:, None, None]
    other_start = DensityPath(grid, hjb.dt,
                              (1.0 - w) * m0.values[None] + w * target[None],
                              validate_slices=False)
    sol_b = picard_solve(cfg.make_dynamics(), cfg.make_coupling(), m0, hjb,
                         fp, initial_path=other_start)
    assert sol_b.converged
    gd = GridDistance(grid)
    idx = np.unique(np.linspace(0, hjb.nt - 1, fp.n_check_slices)
                    .round().astype(int))
    d = max(gd.distance(sol_b.m.values[k], base.m.values[k]) for k in idx)
    _report(12, "fixed point uniqueness", d <= 2 * fp.tol_d1,
            "max d1 between runs %.3e <= %.3e" % (d, 2 * fp.tol_d1))


def test_criterion_13_w1_engine_trust():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
    rng = np.random.default_rng(2024)
    max_rel = 0.0
    max_lp_mcf = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 1.0, g.shape)
        a /= g.integrate(a)
        b = rng.uniform(0.1, 1.0, g.shape)
        b /= g.integrate(b)
        da, db = DensityField(g, a), DensityField(g, b)
        lp = node_w1(da, db)
        mcf = mincost_flow_reference(da, db)
        xs, wa = node_support(da)
        ys, wb = node_support(db)
        sk = sinkhorn_points(xs, wa, ys, wb, reg=0.008, iters=6000,
                             tol=1e-7).debiased
        max_rel = max(max_rel, abs(sk - lp) / lp)
        max_lp_mcf = max(max_lp_mcf, abs(lp - mcf))
    ok = max_rel <= 0.02 and max_lp_mcf <= 1e-9
    _report(13, "W1 engine trust", ok,
            "sinkhorn rel err %.4f, LP vs min-cost-flow %.2e"
            % (max_rel, max_lp_mcf))


def test_criterion_14_ae_regularity():
    fractions = {}
    for n, nt in ((64, 128), (128, 256)):
        grid = default_grid(n1=n, n2=n)
        cfg = HjbConfig(T=1.0, nt=nt)
        m0 = truncated_gaussian(grid)
        m_path = constant_path(m0, cfg.dt, nt, validate_slices=False)
        dyn = dynamics_preset("grushin_exp", epsilon=0.05)
        coupling = builtin_coupling("nonlocal_smooth")
        u = solve_hjb_backward(dyn, coupling, m_path, cfg)
        fractions[n] = ae_residual_report(u, dyn, coupling,
                                          m_path).fraction_below_tol
    ok = fractions[128] >= 0.99 and fractions[128] + 1e-12 >= fractions[64]
    _report(14, "a.e. regularity of the value", ok,
            "fraction 64^2=%.4f, 128^2=%.4f" % (fractions[64], fractions[128]))


def test_criterion_15_negative_control():
    cfg = load_config(os.path.join(CONFIG_DIR, "advection_stress.json"))
    dyn = cfg.make_dynamics()
    hjb = cfg.make_hjb_config()
    m0 = cfg.make_initial_density()
    m_path0 = constant_path(m0, hjb.dt, hjb.nt, validate_slices=False)
    u = solve_hjb_backward(dyn, cfg.make_coupling(), m_path0, hjb)
    m, min_density = centered_flux_fpe(m0, u, dyn, hjb)
    mass_defect = max(abs(m.grid.integrate(m.values[k]) - 1.0)
                      for k in range(m.nt))
    broken = min_density < -1e-12 or mass_defect > 1e-8
    _report(15, "negative control (sabotaged upwind)", broken,
            "min density %.2e, worst mass defect %.2e"
            % (min_density, mass_defect))
