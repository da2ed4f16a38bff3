"""Degenerate differential operators on grid fields.

Interior nodes use centered differences, boundary nodes second-order
one-sided differences. The x2 derivative of the gradient is weighted by
h(x1). These are the pointwise operators of the residual check, the
feedback and the property suite; the solvers' stencils live in ``hjb``
(the FPE uses their W-adjoints). The difference-quotient Lipschitz
estimate lives here too, below both the HJB solver (its a-priori CFL
bound) and the property suite.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import Grid2D, ScalarField

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


def degenerate_gradient(u: ScalarField, dyn: DynamicsSpec):
    """The pair of arrays (d/dx1 u, h(x1) d/dx2 u)."""
    grid = u.grid
    p1 = diff1(u.values, grid.dx1, axis=0)
    p2 = dyn.h_grid(grid) * diff1(u.values, grid.dx2, axis=1)
    return p1, p2


def apply_L(u: ScalarField, dyn: DynamicsSpec) -> ScalarField:
    """(1/2)(sigma1^2 d^2/dx1^2 + sigma2^2 d^2/dx2^2) u (diagonal sigma)."""
    grid = u.grid
    x1g, x2g = grid.meshgrid()
    out = 0.5 * dyn.sigma1_sq(x1g, x2g) * diff2(u.values, grid.dx1, axis=0) \
        + 0.5 * dyn.sigma2_sq(x1g, x2g) * diff2(u.values, grid.dx2, axis=1)
    return ScalarField(grid, out)


def hamiltonian(p) -> np.ndarray:
    """Pointwise (1/2)|p|^2 of a pair of arrays p = (p1, p2)."""
    p1, p2 = p
    return 0.5 * (p1 * p1 + p2 * p2)


def check_boundary_frame(frame: float):
    """A boundary frame, the fraction of each axis trimmed on each side,
    lies in [0, 0.5)."""
    if not 0.0 <= frame < 0.5:
        raise ConfigurationError(
            "boundary_frame must lie in [0, 0.5) (got %r)" % frame)


def interior_restrict(u: ScalarField, frame: float = DEFAULT_BOUNDARY_FRAME) -> ScalarField:
    """Restrict a field to the sub-box obtained by trimming a boundary frame.

    ``frame`` is the fraction of each axis removed on each side; 0 is a
    no-op. Restriction can only shrink sup-type estimates.
    """
    check_boundary_frame(frame)
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
