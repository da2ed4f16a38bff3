"""Backward-in-time solver for the degenerate Hamilton-Jacobi equation.

IMEX time stepping: the diffusion part (epsilon * Laplace + L) is implicit
(unconditionally stable, uniformly in epsilon), the Hamiltonian is explicit
through the Godunov flux, the one numerical flux. ``check_cfl`` checks at
every step that the Courant number of the step's own slopes is at most 1,
so the step is monotone and the scheme converges to the viscosity solution
(Barles & Souganidis). No a-priori slope bound would do: H is not coercive,
and its x1-derivative h h' p2^2 steepens u in x1. The x2 slope is
multiplied by h(x1) *before* squaring, so transport in x2 switches off
wherever h vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .coupling import CouplingSpec
from .dynamics import DynamicsSpec
from .errors import ConfigurationError, SolverError
from .grid import DensityPath, Grid2D, ValuePath, require_mesh
from .operators import apply_L, diff1, diff2, half_sigma_sq, hamiltonian, \
    sup_norm


@dataclass(frozen=True)
class HjbConfig:
    T: float
    nt: int

    def __post_init__(self):
        problems = []
        if self.T <= 0:
            problems.append("time horizon T must be > 0")
        if self.nt < 2:
            problems.append("nt must be >= 2")
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


@lru_cache(maxsize=1)
def implicit_diffusion(grid: Grid2D, dyn: DynamicsSpec, dt: float):
    """(hjb_solve, fpe_solve) of the implicit diffusion step, one LU of I - dt A.

    hjb_solve solves (I - dt A) u = r; fpe_solve solves its W-adjoint
    W^-1 (I - dt A)^T W m = r (W the trapezoid cell weights) by the transposed
    solve. A 1 = 0 gives <w, m> = <w, r>, and the inverse of the transposed
    M-matrix is nonnegative. Without diffusion both return their input.

    The 5-point matrix is structurally symmetric, so the LU's columns are
    ordered by minimum degree on A + A^T (George & Liu, SIAM Review 31,
    1989) rather than SuperLU's default COLAMD: at 128^2 that halves the
    fill (1.22M -> 0.66M nonzeros in L + U) and with it the cost of both
    solves.

    The last factorization is kept, keyed on (grid, dyn, dt), so the HJB
    solve and the FPE solve after it share one LU; the FPE solve releases
    it when its march ends.
    """
    diff = assemble_diffusion(grid, dyn)
    if not abs(diff).sum() > 0:
        return (lambda r: r), (lambda r: r)
    lu = splu(sparse.csc_matrix(sparse.identity(grid.n_nodes) - dt * diff),
              permc_spec="MMD_AT_PLUS_A")
    w = grid.cell_weights().ravel()
    return lu.solve, lambda r: lu.solve(w * r, trans="T") / w


def _godunov(backward, forward):
    """The larger active one-sided slope, signed; 0 where neither is active."""
    pb, pf = np.maximum(backward, 0.0), np.minimum(forward, 0.0)
    return np.where(pb >= -pf, pb, pf)


def upwind_slopes(u: np.ndarray, grid: Grid2D, hg: np.ndarray):
    """Signed Godunov slopes (p1, p2) of u, p2 weighted by h.

    p > 0: the backward difference is active; p < 0: the forward one;
    p = 0 at a local minimum. The Godunov flux of H(x, p) = (1/2)|p|^2 at
    u is ``hamiltonian((p1, p2))``, and its derivative at u is
    J v = p1+ D1- v + p1- D1+ v + h (p2+ D2- v + p2- D2+ v), with
    p+ = max(p, 0) and p- = min(p, 0). One minus dt times its diagonal,
    1 - dt (|p1|/dx1 + h |p2|/dx2), is the monotonicity margin of the step
    that ``check_cfl`` checks.
    """
    # one difference per node pair and axis, between a zero at each end:
    # node i's backward slope is entry i, its forward slope entry i + 1,
    # the zero-slope (Neumann) extension
    n1, n2 = u.shape
    z1 = np.zeros((n1 + 1, n2))
    np.subtract(u[1:], u[:-1], out=z1[1:-1])
    z1[1:-1] /= grid.dx1
    z2 = np.zeros((n1, n2 + 1))
    np.subtract(u[:, 1:], u[:, :-1], out=z2[:, 1:-1])
    z2[:, 1:-1] /= grid.dx2
    return (_godunov(z1[:-1], z1[1:]),
            _godunov(hg * z2[:, :-1], hg * z2[:, 1:]))


def check_cfl(p, grid: Grid2D, hg: np.ndarray, dt: float, solver: str):
    """Raise unless dt max(|p1|/dx1 + h |p2|/dx2), the Courant number of the
    slopes p of ``upwind_slopes``, is at most 1 (to 1e-12): the HJB step's
    monotonicity rule and the FPE step's nonnegativity rule."""
    p1, p2 = p
    courant = dt * float(np.max(np.abs(p1) / grid.dx1
                                + hg * np.abs(p2) / grid.dx2))
    if courant > 1.0 + 1e-12:
        raise ConfigurationError(
            "%s transport CFL violated: Courant number dt*max(|p1|/dx1 + "
            "h|p2|/dx2) = %.4g > 1; reduce dt" % (solver, courant))


def solve_hjb_backward(dyn: DynamicsSpec, coupling: CouplingSpec,
                       m_path: DensityPath, cfg: HjbConfig) -> ValuePath:
    """Solve the HJE backward from u(., T) = G(., m_T) with the measure frozen."""
    grid = m_path.grid
    require_mesh("m_path", m_path, grid, cfg.nt, cfg.dt)
    dt = cfg.dt
    f = coupling.running_cost(m_path)
    g_vals = coupling.terminal_cost(m_path.slice(cfg.nt - 1)).values

    solve, _ = implicit_diffusion(grid, dyn, dt)
    hg = np.abs(dyn.h_grid(grid))  # H reads h only through h^2
    u = np.empty((cfg.nt,) + grid.shape)
    u[-1] = g_vals
    for k in range(cfg.nt - 2, -1, -1):
        p = upwind_slopes(u[k + 1], grid, hg)
        check_cfl(p, grid, hg, dt, "HJB")
        rhs = u[k + 1] - dt * hamiltonian(p) + dt * f[k]
        u[k] = solve(rhs.ravel()).reshape(grid.shape)
        if not np.all(np.isfinite(u[k])):
            raise SolverError("HJB backward step %d produced non-finite values" % k)

    bound = sup_norm(g_vals) + cfg.T * sup_norm(f) + 1e-6
    del f  # ValuePath copies u; two path-sized arrays at a time
    sup = sup_norm(u)
    if sup > bound:
        raise SolverError(
            "maximum-principle bound violated: ||u||=%.6g > %.6g" % (sup, bound))
    return ValuePath(grid, dt, u)


_RESIDUAL_BLOCK = 4  # time slices per step of pde_residual


def pde_residual(u: ValuePath, dyn: DynamicsSpec, coupling: CouplingSpec,
                 m_path: DensityPath) -> np.ndarray:
    """Pointwise HJE residual at the interior time slices 1..nt-2 (centered
    in time), one (nt-2, n1, n2) array.

    The slices are taken ``_RESIDUAL_BLOCK`` at a time. The sigma^2 and h
    tables are built once, L and the epsilon-Laplacian share one ``diff2``
    per axis, and each block of the residual is written over its slices of
    F, so the call holds one path-sized array. Every slice equals the
    per-slice formula bit for bit.
    """
    if u.nt < 3:
        raise ConfigurationError("pde_residual needs at least 3 time slices")
    grid = u.grid
    coef = half_sigma_sq(grid, dyn)
    hg = dyn.h_grid(grid)
    res = coupling.running_cost(m_path)  # F, overwritten block by block
    for s in range(1, u.nt - 1, _RESIDUAL_BLOCK):
        e = min(s + _RESIDUAL_BLOCK, u.nt - 1)
        v = u.values[s:e]
        r = u.values[s + 1:e + 1] - u.values[s - 1:e - 1]
        r /= 2.0 * u.dt
        np.negative(r, out=r)  # -du/dt
        d2 = diff2(v, grid.dx1, -2), diff2(v, grid.dx2, -1)
        # epsilon multiplies the full (nondegenerate) Laplacian
        lap = d2[0] + d2[1]
        lap *= dyn.epsilon
        r -= lap
        r -= apply_L(v, grid, dyn, d2=d2, coef=coef)
        p2 = diff1(v, grid.dx2, -1)
        p2 *= hg
        r += hamiltonian((diff1(v, grid.dx1, -2), p2))
        np.subtract(r, res[s:e], out=res[s:e])
    return res[1:-1]
