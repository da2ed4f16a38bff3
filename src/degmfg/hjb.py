"""Backward-in-time solver for the degenerate Hamilton-Jacobi equation.

IMEX time stepping: the diffusion part A = A1 + A2 (epsilon * Laplace + L,
A_i its part along axis i) is implicit (unconditionally stable, uniformly
in epsilon), the Hamiltonian is explicit through the Godunov flux, the one
numerical flux.

The implicit step is split by axis, the locally one-dimensional step
S^-1 = (I - dt A1)^-1 (I - dt A2)^-1 (Yanenko, *The Method of Fractional
Steps*, 1971; Hundsdorfer & Verwer, 2003, ch. IV). Since
S = I - dt A + dt^2 A2 A1, the split adds dt^2 A2 A1 to each step, an
error of first order in dt over the march, the order of the scheme. Each
factor is a batch of independent lines, held as their dense inverses
(``line_inverses``): >= 0 with unit row sums, so the step keeps the
maximum principle, and its W-adjoint, the FPE's step, keeps mass and sign.
When the coefficients of an axis are the same on every line, as for every
preset, the axis holds one (n, n) matrix and a solve is one gemm per axis.
A ``DynamicsSpec`` whose sigma varies across lines holds one matrix per
line, 2 L n^2 doubles for L lines of n nodes: 32 MiB at 128^2, 256 MiB at
256^2, all of it read by every solve. Each march builds its own step: at
128^2 that takes about 2 ms, or 50 ms with a matrix per line.

``check_cfl`` checks at every step that the Courant number of the step's
own slopes is at most 1, so the step is monotone and the scheme converges
to the viscosity solution (Barles & Souganidis). No a-priori slope bound
would do: H is not coercive, and its x1-derivative h h' p2^2 steepens u in
x1. The x2 slope is multiplied by h(x1) *before* squaring, so transport in
x2 switches off wherever h vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu  # noqa: F401 unused; bench/tracer.py wraps it

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


def _diffusion_coefficients(grid: Grid2D, dyn: DynamicsSpec):
    """(c1, c2) = epsilon + sigma_i^2 / 2 on the grid, shape (n1, n2) each."""
    return tuple(dyn.epsilon + c for c in half_sigma_sq(grid, dyn))


def assemble_diffusion(grid: Grid2D, dyn: DynamicsSpec) -> sparse.csr_matrix:
    """epsilon*(d11 + d22) + (1/2)(sigma1^2 d11 + sigma2^2 d22), Neumann BC.

    The march never builds it (its step holds the line inverses of
    ``implicit_diffusion``); it is the reference the tests check against."""
    c1, c2 = _diffusion_coefficients(grid, dyn)
    d1 = _neumann_second_difference(grid.n1, grid.dx1)
    d2 = _neumann_second_difference(grid.n2, grid.dx2)
    eye1 = sparse.identity(grid.n1, format="csr")
    eye2 = sparse.identity(grid.n2, format="csr")
    op1 = sparse.kron(d1, eye2, format="csr")
    op2 = sparse.kron(eye1, d2, format="csr")
    return (sparse.diags(c1.ravel()) @ op1
            + sparse.diags(c2.ravel()) @ op2).tocsr()


def line_inverses(c: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """The dense inverses, shape (L, n, n), of I - dt diag(c_l) D for the
    lines c_l of the (lines, n) table c, D the reflecting second difference
    of ``_neumann_second_difference``; L = 1 when every line is the same.

    I - dt diag(c) D has diagonal 1 + a_k + b_k, a_k >= 0 and b_k >= 0 the
    negated entries left and right of it, and unit row sums. Thomas
    elimination without pivoting, on the identity and over all lines at
    once, then forms every number by adding a nonnegative term: the row
    sums of the reduced matrix are s_k = 1 + g_k s_{k-1} with
    g_k = a_k / p_{k-1}, and its pivots p_k = s_k + b_k >= 1. So the
    inverse is >= 0 entrywise in floating point, and its rows sum to 1.
    """
    if np.all(c == c[:1]):
        c = c[:1]
    r = dt / dx ** 2 * c
    left, right = r.copy(), r.copy()
    left[:, 0], right[:, -1] = 0.0, 0.0
    left[:, -1] *= 2.0  # the reflecting ends couple to one neighbour, twice
    right[:, 0] *= 2.0
    lines, n = c.shape
    k = np.broadcast_to(np.eye(n), (lines, n, n)).copy()
    pivot = np.empty((lines, n))
    pivot[:, 0] = 1.0 + right[:, 0]
    row_sum = np.ones(lines)
    for i in range(1, n):
        g = left[:, i] / pivot[:, i - 1]
        k[:, i] += g[:, None] * k[:, i - 1]
        row_sum = 1.0 + g * row_sum
        pivot[:, i] = row_sum + right[:, i]
    k[:, -1] /= pivot[:, -1, None]
    for i in range(n - 2, -1, -1):
        k[:, i] += right[:, i, None] * k[:, i + 1]
        k[:, i] /= pivot[:, i, None]
    return k


def _columns(k, x):
    """k[j] times column j of the (n, m) array x; k[0] times every column
    when L = 1, one gemm."""
    n, m = x.shape
    return (k @ x.reshape(n, len(k), -1).transpose(1, 0, 2)
            ).transpose(1, 0, 2).reshape(n, m)


def _rows(x, k):
    """Row i of the (n, m) array x times k[i]; every row times k[0] when
    L = 1, one gemm."""
    return (x.reshape(len(k), -1, x.shape[1]) @ k).reshape(x.shape)


def implicit_diffusion(grid: Grid2D, dyn: DynamicsSpec, dt: float):
    """(hjb_solve, fpe_solve) of the implicit diffusion step, split by axis.

    hjb_solve(r) = K1 (r K2^T) solves (I - dt A2)(I - dt A1) u = r on the
    (n1, n2) slice, K1 and K2 the ``line_inverses`` of the lines x2 = const
    and x1 = const; fpe_solve(r) = W^-1 (K1^T (W r)) K2 is its W-adjoint
    (W the trapezoid cell weights). r holds a slice, flat or (n1, n2), and
    the result has its shape. Where c1 and c2 are 0 both return their input.
    """
    c1, c2 = _diffusion_coefficients(grid, dyn)
    if np.all(c1 == 0) and np.all(c2 == 0):  # False for a NaN coefficient
        return (lambda r: r), (lambda r: r)
    k1 = line_inverses(c1.T, grid.dx1, dt)
    k2 = line_inverses(c2, grid.dx2, dt)
    k1t, k2t = k1.transpose(0, 2, 1), k2.transpose(0, 2, 1)
    w = grid.cell_weights()

    def hjb_solve(r):
        return _columns(k1, _rows(np.reshape(r, grid.shape), k2t)
                        ).reshape(np.shape(r))

    def fpe_solve(r):
        return (_rows(_columns(k1t, w * np.reshape(r, grid.shape)), k2)
                / w).reshape(np.shape(r))

    return hjb_solve, fpe_solve


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
        u[k] = solve(rhs)
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
