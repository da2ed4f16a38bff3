"""What the tests share and compare the package against, none of it on a
command's path: grid, path and coupling fixtures, the exact W1 on node
supports, particle trajectories, and independent references (one-sided
differences, Hopf-Lax, the per-block Euler-Maruyama kernel, a
min-cost-flow W1, the only user of networkx, the transport LP through
scipy's linprog, a C^2 check of the dynamics, the KDE bandwidth), and the
negative control of the FPE march: the same step with a centered flux."""

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from degmfg import sde
from degmfg.coupling import CouplingSpec
from degmfg.errors import ConfigurationError
from degmfg.fpe import flux_transpose
from degmfg.grid import DensityField, DensityPath, Grid2D, ScalarField, \
    Stencil
from degmfg.hjb import check_cfl, implicit_diffusion, upwind_slopes
from degmfg.measures import GridDistance, _cost_matrix, wasserstein1_points
from degmfg.operators import degenerate_gradient


def default_grid(box_half_width=5.0, n1=64, n2=64):
    return Grid2D(-box_half_width, box_half_width,
                  -box_half_width, box_half_width, n1, n2)


def uniform_density(grid):
    v = np.ones(grid.shape)
    v /= grid.integrate(v)
    return DensityField(grid, v)


def constant_path(m0, dt, nt, validate_slices=True):
    """The density m0 held over nt slices dt apart."""
    return DensityPath(m0.grid, dt, np.repeat(m0.values[None], nt, axis=0),
                       validate_slices=validate_slices)


def centered_flux_fpe(m0, u_path, dyn, cfg):
    """The negative control of ``fpe.solve_fpe_forward``: its march with the
    centered parts p/2 of the slopes in place of the upwind ones, and no
    mass or sign check, clamp or renormalization. Returns the path,
    admitted unvalidated, and its most negative value."""
    grid = m0.grid
    _, solve = implicit_diffusion(grid, dyn, cfg.dt)
    hg = np.abs(dyn.h_grid(grid))
    w = grid.cell_weights()
    values = np.empty((cfg.nt,) + grid.shape)
    values[0] = m0.values
    for k in range(cfg.nt - 1):
        s = solve(values[k].ravel()).reshape(grid.shape)
        p1, p2 = upwind_slopes(u_path.values[k + 1], grid, hg)
        check_cfl((p1, p2), grid, hg, cfg.dt, "FPE")
        parts = (0.5 * p1, 0.5 * p1, 0.5 * p2, 0.5 * p2)
        values[k + 1] = s - cfg.dt * flux_transpose(w * s, parts, grid, hg) / w
    return (DensityPath(grid, cfg.dt, values, validate_slices=False),
            float(values.min()))


def const_coupling(f=0.0, g=0.0):
    """The monotone coupling F == f, G == g."""
    return CouplingSpec(F=lambda x1, x2, m: np.full_like(x1, f),
                        G=lambda x1, x2, m: np.full_like(x1, g), monotone=True)


def node_support(m):
    """(points, weights) of every node of positive mass of a DensityField."""
    return GridDistance(m.grid, max_points=m.grid.n_nodes).coarsen(m.values)


def node_w1(mu, nu):
    """Exact W1 between two grid measures: the LP on their node supports."""
    return wasserstein1_points(*node_support(mu), *node_support(nu))


def hopf_lax_oracle(g_terminal, t, T):
    """Hopf-Lax value u(x,t) = min_y [G(y) + |x-y|^2 / (2(T-t))] over grid
    nodes, the value for zero diffusion, h == 1 and F == 0. The quadratic
    separates, so the minimum is two 1-D passes: over y2, then over y1."""
    if t >= T:
        raise ConfigurationError("hopf_lax_oracle requires t < T")
    grid = g_terminal.grid
    scale = 0.5 / (T - t)
    q1 = scale * (grid.x1[:, None] - grid.x1[None, :]) ** 2  # (x1, y1)
    q2 = scale * (grid.x2[:, None] - grid.x2[None, :]) ** 2  # (x2, y2)
    inner = np.min(g_terminal.values[:, None, :] + q2[None], axis=2)  # (y1, x2)
    out = np.min(inner[None, :, :] + q1[:, :, None], axis=1)          # (x1, x2)
    return ScalarField(grid, out)


def mincost_flow_reference(mu, nu, scale=10 ** 12):
    """W1 by network simplex on masses scaled by scale*1e3 and costs by
    scale, rounded to integers: an error far below 1e-9 on unit boxes."""
    import networkx as nx

    xs, a = node_support(mu)
    ys, b = node_support(nu)
    mass_scale = scale * 1000
    ai = np.round(a * mass_scale).astype(object)
    bi = np.round(b * mass_scale).astype(object)
    # repair rounding so supplies and demands balance exactly
    ai[int(np.argmax(a))] += int(mass_scale) - int(ai.sum())
    bi[int(np.argmax(b))] += int(mass_scale) - int(bi.sum())
    g = nx.DiGraph()
    for i, s in enumerate(ai):
        g.add_node(("s", i), demand=-int(s))
    for j, d in enumerate(bi):
        g.add_node(("t", j), demand=int(d))
    cost = _cost_matrix(xs, ys)
    for i in range(len(ai)):
        for j in range(len(bi)):
            g.add_edge(("s", i), ("t", j), weight=int(round(cost[i, j] * scale)))
    flow_cost, _ = nx.network_simplex(g)
    return flow_cost / (scale * float(mass_scale))


def _linprog_transport(cost, a, b, rows, cols):
    """The transport LP over the pairs (rows, cols) through linprog's HiGHS
    route, presolve off and the redundant last sink row dropped."""
    n, m = len(a), len(b)
    var = np.arange(len(rows))
    A = sparse.coo_matrix(
        (np.ones(2 * len(var)),
         (np.concatenate([rows, n + cols]), np.concatenate([var, var]))),
        shape=(n + m, len(var))).tocsr()[:-1]
    res = linprog(cost[rows, cols], A_eq=A, b_eq=np.concatenate([a, b])[:-1],
                  bounds=(0, None), method="highs",
                  options={"presolve": False})
    assert res.success, res.message
    return res


def dense_transport_lp(xs, a, ys, b):
    """Oracle: the transport LP over all n*m pairs, one HiGHS solve."""
    n, m = len(a), len(b)
    rows, cols = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    return _linprog_transport(_cost_matrix(xs, ys), a, b, rows, cols).fun


def linprog_restricted_lp(cost, a, b, rows, cols):
    """A stand-in for ``measures._restricted_lp`` built on linprog:
    (optimum, row duals) of the LP over the pairs (rows, cols)."""
    res = _linprog_transport(cost, a, b, rows, cols)
    return res.fun, res.eqlin.marginals


def check_regularity(dyn, grid, bound=1e6):
    """The largest |value| of sigma1, sigma2, h and of their first and second
    difference quotients on the grid (sigma along both axes, h along x1);
    a ConfigurationError if one exceeds ``bound``."""
    x1g, x2g = grid.meshgrid()

    def on_grid(f):  # sigma itself: |sigma| has kinks where sigma = 0
        return np.broadcast_to(np.asarray(f(x1g, x2g), dtype=float),
                               x1g.shape)

    worst = 0.0
    problems = []
    for name, vals, steps in (
        ("sigma1", on_grid(dyn.sigma1), (grid.dx1, grid.dx2)),
        ("sigma2", on_grid(dyn.sigma2), (grid.dx1, grid.dx2)),
        ("h", dyn.h_values(grid.x1), (grid.dx1,)),
    ):
        if not np.all(np.isfinite(vals)):
            problems.append("%s is non-finite on the grid" % name)
            continue
        m = np.abs(vals).max()
        for axis, dx in enumerate(steps):
            d1 = np.diff(vals, axis=axis) / dx
            d2 = np.diff(vals, n=2, axis=axis) / dx ** 2
            m = max(m, np.abs(d1).max(), np.abs(d2).max())
        worst = max(worst, m)
        if m > bound:
            problems.append(
                "%s violates the C2 bound: measured %g > %g" % (name, m, bound))
    if problems:
        raise ConfigurationError(problems)
    return worst


def kde_bandwidth(pts):
    """The Silverman bandwidth scale used by empirical_density (max axis)."""
    return float(np.max(sde._silverman(pts)))


def reflect_full_modulo(x, lo, hi):
    """Mirror reflection into [lo, hi] with the modulo applied to every
    coordinate."""
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lo + y


def per_block_euler_maruyama(dyn, u_path, x0, t0, cfg, n_steps, visit,
                             fields=()):
    """The reference of ``sde._euler_maruyama``: one PARTICLE_BLOCK block at
    a time, all its steps before the next block, each step reading both
    time slices of every field and stacking the (nb, 2) update. Calls
    ``visit`` once per block and step; returns the final positions."""
    grid = u_path.grid

    def in_time(flat):  # (nt, n_nodes) slices, linear in time
        def at(st, t):
            s = min(max(t / u_path.dt, 0.0), len(flat) - 1.0)
            k = min(int(s), len(flat) - 2)
            w = s - k
            return (1 - w) * st.gather(flat[k]) + w * st.gather(flat[k + 1])
        return at

    alpha1, alpha2 = (in_time(-p.reshape(len(p), -1)) for p in
                      degenerate_gradient(u_path.values, grid, dyn))
    values = [in_time(f.flat) for f in fields]
    sq_dt = math.sqrt(cfg.dt_sde)
    x0 = np.asarray(x0, dtype=float)
    final = np.empty((cfg.n_particles, 2))
    n_blocks = -(-cfg.n_particles // sde.PARTICLE_BLOCK)
    for blk in range(n_blocks):
        lo = blk * sde.PARTICLE_BLOCK
        hi = min(lo + sde.PARTICLE_BLOCK, cfg.n_particles)
        nb = hi - lo
        rng = np.random.Generator(np.random.Philox(
            key=(np.uint64(cfg.seed) << np.uint64(20)) + np.uint64(blk)))
        x = np.tile(x0, (nb, 1)) if x0.ndim == 1 else x0[lo:hi].copy()
        for step in range(n_steps):
            t = t0 + step * cfg.dt_sde
            st = Stencil(grid, x)
            a1, a2 = alpha1(st, t), alpha2(st, t)
            visit(lo, hi, step, t, x, a1, a2, *(f(st, t) for f in values))
            hx = dyn.h_values(x[:, 0])
            s1 = np.sqrt(2.0 * dyn.epsilon + dyn.sigma1_sq(x[:, 0], x[:, 1]))
            s2 = np.sqrt(2.0 * dyn.epsilon + dyn.sigma2_sq(x[:, 0], x[:, 1]))
            noise = rng.standard_normal((nb, 2))
            x = x + np.stack([a1, a2 * hx], axis=1) * cfg.dt_sde \
                + np.stack([s1 * noise[:, 0], s2 * noise[:, 1]],
                           axis=1) * sq_dt
            x[:, 0] = reflect_full_modulo(x[:, 0], grid.x1_min, grid.x1_max)
            x[:, 1] = reflect_full_modulo(x[:, 1], grid.x2_min, grid.x2_max)
        final[lo:hi] = x
    return final


def trajectory(dyn, u_path, x0, t0, cfg):
    """Every particle's position at every SDE step, the start included:
    shape (n_steps + 1, n_particles, 2), read through the kernel's visit
    hook and ending in what ``simulate_paths`` returns."""
    n_steps = sde.step_count(u_path.horizon, u_path.dt, x0, t0, cfg)
    out = np.empty((n_steps + 1, cfg.n_particles, 2))

    def keep(lo, hi, step, t, x, a1, a2):
        out[step, lo:hi] = x

    out[-1] = sde._euler_maruyama(dyn, u_path, x0, t0, cfg, n_steps, keep)
    return out


def one_sided(v, dx, axis):
    """(backward, forward) differences of v along ``axis``, zero past either
    end: the zero-slope (Neumann) extension."""
    d = np.diff(v, axis=axis) / dx
    zero = np.zeros_like(np.take(v, [0], axis=axis))
    return (np.concatenate([zero, d], axis=axis),
            np.concatenate([d, zero], axis=axis))
