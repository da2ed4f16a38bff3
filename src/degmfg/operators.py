"""Degenerate differential operators on grid fields.

Interior nodes use centered differences, boundary nodes second-order
one-sided differences. The x2 direction is weighted by h(x1) (gradient,
divergence) or h^2(x1) (laplacian). The dual diffusion operator is
discretized in flux-conservative form so that discrete mass is a
structural invariant. The difference-quotient Lipschitz estimate lives here
too, below both the HJB solver (its a-priori CFL bound) and the property
suite.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import Grid2D, ScalarField, VectorField, DensityField

DEFAULT_BOUNDARY_FRAME = 0.1


def diff1(values: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Second-order first derivative: centered interior, one-sided ends."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return np.moveaxis(out, 0, axis)


def diff2(values: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Second-order second derivative: centered interior, one-sided ends."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx ** 2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dx ** 2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dx ** 2
    return np.moveaxis(out, 0, axis)


def conservative_diff2(g: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Flux-form second derivative of g with zero boundary fluxes.

    Interior nodes own cells of width dx, boundary nodes dx/2; the weighted
    sum of the output telescopes to the (zero) boundary fluxes, so discrete
    mass of dx^2-integrable inputs is conserved exactly.
    """
    g = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
    flux = (g[1:] - g[:-1]) / dx  # flux at interior faces
    out = np.empty_like(g)
    out[1:-1] = (flux[1:] - flux[:-1]) / dx
    out[0] = flux[0] / (0.5 * dx)
    out[-1] = -flux[-1] / (0.5 * dx)
    return np.moveaxis(out, 0, axis)


def degenerate_gradient(u: ScalarField, dyn: DynamicsSpec) -> VectorField:
    """(d/dx1 u, h(x1) d/dx2 u)."""
    grid = u.grid
    p1 = diff1(u.values, grid.dx1, axis=0)
    p2 = dyn.h_grid(grid) * diff1(u.values, grid.dx2, axis=1)
    return VectorField(grid, p1, p2)


def degenerate_divergence(v: VectorField, dyn: DynamicsSpec) -> ScalarField:
    """d/dx1 v1 + h(x1) d/dx2 v2."""
    grid = v.grid
    d = diff1(v.v1, grid.dx1, axis=0) + dyn.h_grid(grid) * diff1(v.v2, grid.dx2, axis=1)
    return ScalarField(grid, d)


def degenerate_laplacian(u: ScalarField, dyn: DynamicsSpec) -> ScalarField:
    """d^2/dx1^2 u + h^2(x1) d^2/dx2^2 u."""
    grid = u.grid
    lap = diff2(u.values, grid.dx1, axis=0) \
        + dyn.h_grid(grid) ** 2 * diff2(u.values, grid.dx2, axis=1)
    return ScalarField(grid, lap)


def apply_L(u: ScalarField, dyn: DynamicsSpec) -> ScalarField:
    """(1/2)(sigma1^2 d^2/dx1^2 + sigma2^2 d^2/dx2^2) u (diagonal sigma)."""
    grid = u.grid
    x1g, x2g = grid.meshgrid()
    out = 0.5 * dyn.sigma1_sq(x1g, x2g) * diff2(u.values, grid.dx1, axis=0) \
        + 0.5 * dyn.sigma2_sq(x1g, x2g) * diff2(u.values, grid.dx2, axis=1)
    return ScalarField(grid, out)


def apply_L_star(m: DensityField, dyn: DynamicsSpec) -> ScalarField:
    """Dual diffusion operator in divergence form: (1/2) sum_i d^2(sigma_i^2 m)."""
    grid = m.grid
    x1g, x2g = grid.meshgrid()
    out = 0.5 * conservative_diff2(dyn.sigma1_sq(x1g, x2g) * m.values,
                                   grid.dx1, axis=0) \
        + 0.5 * conservative_diff2(dyn.sigma2_sq(x1g, x2g) * m.values,
                                   grid.dx2, axis=1)
    return ScalarField(grid, out)


def hamiltonian(p: VectorField) -> ScalarField:
    """Pointwise (1/2)|p|^2."""
    return ScalarField(p.grid, 0.5 * (p.v1 ** 2 + p.v2 ** 2))


def optimal_feedback(u: ScalarField, dyn: DynamicsSpec) -> VectorField:
    """Minimizer of the conjugate Hamiltonian: minus the degenerate gradient."""
    p = degenerate_gradient(u, dyn)
    return VectorField(u.grid, -p.v1, -p.v2)


def duality_defect(u: ScalarField, v: VectorField, dyn: DynamicsSpec):
    """Discrete gradient/divergence duality test.

    Returns (defect, correction) where
        defect = <D_G u, v> + <u, div_G v>
    with the trapezoidal inner product, and correction is the discrete
    commutator of h with the x2 difference (h depends only on x1, so the
    commutator image vanishes identically; it is computed, not assumed).
    For fields vanishing near the boundary |defect - correction| is at
    roundoff level.
    """
    grid = u.grid
    w = grid.cell_weights()
    p = degenerate_gradient(u, dyn)
    div = degenerate_divergence(v, dyn)
    defect = float(np.sum(w * (p.v1 * v.v1 + p.v2 * v.v2))
                   + np.sum(w * u.values * div.values))
    hg = dyn.h_grid(grid)
    commutator = diff1(hg * v.v2, grid.dx2, axis=1) - hg * diff1(v.v2, grid.dx2, axis=1)
    correction = float(np.sum(w * u.values * commutator))
    return defect, correction


def interior_restrict(u: ScalarField, frame: float = DEFAULT_BOUNDARY_FRAME) -> ScalarField:
    """Restrict a field to the sub-box obtained by trimming a boundary frame.

    ``frame`` is the fraction of each axis removed on each side; 0 is a
    no-op. Restriction can only shrink sup-type estimates.
    """
    if not 0.0 <= frame < 0.5:
        raise ConfigurationError("boundary frame must lie in [0, 0.5)")
    g = u.grid
    k1 = int(round(frame * g.n1))
    k2 = int(round(frame * g.n2))
    if k1 == 0 and k2 == 0:
        return u
    if g.n1 - 2 * k1 < 4 or g.n2 - 2 * k2 < 4:
        raise ConfigurationError("boundary frame leaves fewer than 4 nodes per axis")
    x1 = g.x1[k1:g.n1 - k1]
    x2 = g.x2[k2:g.n2 - k2]
    sub = Grid2D(x1[0], x1[-1], x2[0], x2[-1], len(x1), len(x2))
    return ScalarField(sub, u.values[k1:g.n1 - k1, k2:g.n2 - k2])


def lipschitz_estimate(u: ScalarField, boundary_frame: float = 0.0) -> float:
    """Max |u(x)-u(y)|/|x-y| over adjacent node pairs, axes and diagonals."""
    if boundary_frame > 0.0:
        u = interior_restrict(u, boundary_frame)
    v = u.values
    dx1, dx2 = u.grid.dx1, u.grid.dx2
    ddiag = math.hypot(dx1, dx2)
    best = 0.0
    if v.shape[0] > 1:
        best = max(best, float(np.abs(np.diff(v, axis=0)).max()) / dx1)
    if v.shape[1] > 1:
        best = max(best, float(np.abs(np.diff(v, axis=1)).max()) / dx2)
    if v.shape[0] > 1 and v.shape[1] > 1:
        best = max(best, float(np.abs(v[1:, 1:] - v[:-1, :-1]).max()) / ddiag)
        best = max(best, float(np.abs(v[1:, :-1] - v[:-1, 1:]).max()) / ddiag)
    return best
