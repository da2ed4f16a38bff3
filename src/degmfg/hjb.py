"""Backward-in-time solver for the degenerate Hamilton-Jacobi equation.

IMEX time stepping: the diffusion part (epsilon * Laplace + L) is implicit
(unconditionally stable, uniformly in epsilon), the Hamiltonian is explicit
through a monotone numerical flux. The x2 slope is multiplied by h(x1)
*before* squaring, so transport in x2 switches off wherever h vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .coupling import CouplingSpec
from .dynamics import DynamicsSpec
from .errors import ConfigurationError, SolverError
from .grid import DensityPath, Grid2D, ScalarField, ValuePath
from .operators import apply_L, degenerate_gradient, diff2, hamiltonian, \
    lipschitz_estimate

FLUXES = ("godunov", "engquist_osher")


@dataclass(frozen=True)
class HjbConfig:
    T: float
    nt: int
    flux: str = "godunov"

    def __post_init__(self):
        problems = []
        if self.T <= 0:
            problems.append("time horizon T must be > 0")
        if self.nt < 2:
            problems.append("nt must be >= 2")
        if self.flux not in FLUXES:
            problems.append("flux must be one of %s" % (FLUXES,))
        if problems:
            raise ConfigurationError(problems)

    @property
    def dt(self) -> float:
        return self.T / (self.nt - 1)


def _neumann_second_difference(n, dx):
    """1D second-difference matrix with reflecting ghost nodes (row sums 0)."""
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    a = sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    a[0, 1] = 2.0
    a[-1, -2] = 2.0
    return sparse.csr_matrix(a) / dx ** 2


def assemble_diffusion(grid: Grid2D, dyn: DynamicsSpec) -> sparse.csr_matrix:
    """epsilon*(d11 + d22) + (1/2)(sigma1^2 d11 + sigma2^2 d22), Neumann BC."""
    x1g, x2g = grid.meshgrid()
    c1 = dyn.epsilon + 0.5 * dyn.sigma1_sq(x1g, x2g)
    c2 = dyn.epsilon + 0.5 * dyn.sigma2_sq(x1g, x2g)
    d1 = _neumann_second_difference(grid.n1, grid.dx1)
    d2 = _neumann_second_difference(grid.n2, grid.dx2)
    eye1 = sparse.identity(grid.n1, format="csr")
    eye2 = sparse.identity(grid.n2, format="csr")
    op1 = sparse.kron(d1, eye2, format="csr")
    op2 = sparse.kron(eye1, d2, format="csr")
    return (sparse.diags(c1.ravel()) @ op1
            + sparse.diags(c2.ravel()) @ op2).tocsr()


def implicit_diffusion(grid: Grid2D, dyn: DynamicsSpec, dt: float):
    """(hjb_solve, fpe_solve) of the implicit diffusion step, one LU of I - dt A.

    hjb_solve solves (I - dt A) u = r; fpe_solve solves its W-adjoint
    W^-1 (I - dt A)^T W m = r (W the trapezoid cell weights) by the transposed
    solve. A 1 = 0 gives <w, m> = <w, r>, and the inverse of the transposed
    M-matrix is nonnegative. Without diffusion both return their input.
    """
    diff = assemble_diffusion(grid, dyn)
    if not abs(diff).sum() > 0:
        return (lambda r: r), (lambda r: r)
    lu = splu(sparse.csc_matrix(sparse.identity(grid.n_nodes) - dt * diff))
    w = grid.cell_weights().ravel()
    return lu.solve, lambda r: lu.solve(w * r, trans="T") / w


def _one_sided_slopes(u, dx, axis):
    """(backward, forward) slopes with zero-slope (Neumann) extension."""
    v = np.moveaxis(u, axis, 0)
    pad = np.concatenate([v[:1], v, v[-1:]], axis=0)
    backward = (pad[1:-1] - pad[:-2]) / dx
    forward = (pad[2:] - pad[1:-1]) / dx
    return np.moveaxis(backward, 0, axis), np.moveaxis(forward, 0, axis)


def numerical_hamiltonian(u: np.ndarray, grid: Grid2D, dyn: DynamicsSpec,
                          flux: str) -> np.ndarray:
    """Monotone flux for H(x, p) = (1/2)|p|^2, p = (d1 u, h(x1) d2 u)."""
    b1, f1 = _one_sided_slopes(u, grid.dx1, axis=0)
    b2, f2 = _one_sided_slopes(u, grid.dx2, axis=1)
    hg = dyn.h_grid(grid)
    q2m, q2p = hg * b2, hg * f2
    if flux == "godunov":
        h1 = np.maximum(np.maximum(b1, 0.0) ** 2, np.minimum(f1, 0.0) ** 2)
        h2 = np.maximum(np.maximum(q2m, 0.0) ** 2, np.minimum(q2p, 0.0) ** 2)
    else:  # engquist_osher
        h1 = np.maximum(b1, 0.0) ** 2 + np.minimum(f1, 0.0) ** 2
        h2 = np.maximum(q2m, 0.0) ** 2 + np.minimum(q2p, 0.0) ** 2
    return 0.5 * (h1 + h2)


def _lip_bound(values, grid):
    return lipschitz_estimate(ScalarField(grid, values))


def transport_speed_bound(grid: Grid2D, dyn: DynamicsSpec, g_vals, f_max_lip,
                          T: float) -> float:
    """A-priori slope bound: Lip(G) + T * Lip(F) (value-function estimate)."""
    return _lip_bound(g_vals, grid) + T * f_max_lip


def check_hjb_cfl(grid: Grid2D, dyn: DynamicsSpec, cfg: HjbConfig,
                  lip_bound: float):
    """Transport CFL of the explicit Hamiltonian step (diffusion is implicit)."""
    hmax = float(np.abs(dyn.h_values(grid.x1)).max())
    speed = lip_bound / grid.dx1 + hmax ** 2 * lip_bound / grid.dx2
    if speed > 0 and cfg.dt * speed > 1.0 + 1e-12:
        raise ConfigurationError(
            "transport CFL violated: dt=%.4g exceeds 1/(Lip/dx1 + h^2 Lip/dx2)"
            "=%.4g with a-priori Lipschitz bound %.4g"
            % (cfg.dt, 1.0 / speed, lip_bound))


def solve_hjb_backward(dyn: DynamicsSpec, coupling: CouplingSpec,
                       m_path: DensityPath, cfg: HjbConfig) -> ValuePath:
    """Solve the HJE backward from u(., T) = G(., m_T) with the measure frozen."""
    grid = m_path.grid
    if m_path.nt != cfg.nt or abs(m_path.dt - cfg.dt) > 1e-12 * max(cfg.dt, 1.0):
        raise ConfigurationError(
            "measure path time mesh (nt=%d, dt=%g) does not match config "
            "(nt=%d, dt=%g)" % (m_path.nt, m_path.dt, cfg.nt, cfg.dt))
    dt = cfg.dt
    f_slices = np.array([coupling.running_cost(m_path.slice(k)).values
                         for k in range(cfg.nt)])
    g_vals = coupling.terminal_cost(m_path.slice(cfg.nt - 1)).values
    f_max_lip = max(_lip_bound(f_slices[k], grid) for k in range(cfg.nt))
    lip = transport_speed_bound(grid, dyn, g_vals, f_max_lip, cfg.T)
    check_hjb_cfl(grid, dyn, cfg, lip)

    solve, _ = implicit_diffusion(grid, dyn, dt)
    u = np.empty((cfg.nt,) + grid.shape)
    u[-1] = g_vals
    for k in range(cfg.nt - 2, -1, -1):
        ham = numerical_hamiltonian(u[k + 1], grid, dyn, cfg.flux)
        rhs = u[k + 1] - dt * ham + dt * f_slices[k]
        u[k] = solve(rhs.ravel()).reshape(grid.shape)
        if not np.all(np.isfinite(u[k])):
            raise SolverError("HJB backward step %d produced non-finite values" % k)

    bound = np.abs(g_vals).max() + cfg.T * np.abs(f_slices).max() + 1e-6
    sup = np.abs(u).max()
    if sup > bound:
        raise SolverError(
            "maximum-principle bound violated: ||u||=%.6g > %.6g" % (sup, bound))
    return ValuePath(grid, dt, u)


def hopf_lax_oracle(g_terminal: ScalarField, t: float, T: float) -> ScalarField:
    """Hopf-Lax value u(x,t) = min_y [G(y) + |x-y|^2 / (2(T-t))] over grid nodes.

    Valid oracle for the zero-diffusion, h == 1, F == 0 case. The quadratic
    separates, so the minimum over all nodes is taken in two 1-D passes:
    over y2 for every (y1, x2), then over y1 for every (x1, x2).
    """
    if t >= T:
        raise ConfigurationError("hopf_lax_oracle requires t < T")
    grid = g_terminal.grid
    scale = 0.5 / (T - t)
    q1 = scale * (grid.x1[:, None] - grid.x1[None, :]) ** 2  # (x1, y1)
    q2 = scale * (grid.x2[:, None] - grid.x2[None, :]) ** 2  # (x2, y2)
    inner = np.min(g_terminal.values[:, None, :] + q2[None], axis=2)  # (y1, x2)
    out = np.min(inner[None, :, :] + q1[:, :, None], axis=1)          # (x1, x2)
    return ScalarField(grid, out)


def pde_residual(u: ValuePath, dyn: DynamicsSpec, coupling: CouplingSpec,
                 m_path: DensityPath) -> list[ScalarField]:
    """Pointwise HJE residual at interior time slices (centered in time)."""
    if u.nt < 3:
        raise ConfigurationError("pde_residual needs at least 3 time slices")
    grid = u.grid
    out = []
    for k in range(1, u.nt - 1):
        slice_k = u.slice(k)
        dudt = (u.values[k + 1] - u.values[k - 1]) / (2.0 * u.dt)
        # epsilon multiplies the full (nondegenerate) Laplacian
        lap = diff2(u.values[k], grid.dx1, 0) + diff2(u.values[k], grid.dx2, 1)
        ham = hamiltonian(degenerate_gradient(slice_k, dyn)).values
        lu = apply_L(slice_k, dyn).values
        f_k = coupling.running_cost(m_path.slice(k)).values
        res = -dudt - dyn.epsilon * lap - lu + ham - f_k
        out.append(ScalarField(grid, res))
    return out
