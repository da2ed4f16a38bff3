"""Degenerate differential operators on the trailing (n1, n2) axes of an
array, so that one call serves a slice or a whole (nt, n1, n2) path.

Interior nodes use centered differences, boundary nodes second-order
one-sided differences. The x2 derivative of the gradient is weighted by
h(x1). These are the pointwise operators of the residual check, the
feedback and the property suite; the solvers' stencils live in ``hjb``
(the FPE uses their W-adjoints). The boundary-frame rule and the
difference-quotient Lipschitz estimate live here too, below both the HJB
solver (its a-priori CFL bound) and the property suite.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import Grid2D

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


def degenerate_gradient(u: np.ndarray, grid: Grid2D, dyn: DynamicsSpec):
    """The pair of arrays (d/dx1 u, h(x1) d/dx2 u)."""
    p2 = diff1(u, grid.dx2, axis=-1)
    p2 *= dyn.h_grid(grid)
    return diff1(u, grid.dx1, axis=-2), p2


def half_sigma_sq(grid: Grid2D, dyn: DynamicsSpec):
    """The coefficient tables (sigma1^2 / 2, sigma2^2 / 2) of L on the grid."""
    x1g, x2g = grid.meshgrid()
    return 0.5 * dyn.sigma1_sq(x1g, x2g), 0.5 * dyn.sigma2_sq(x1g, x2g)


def apply_L(u: np.ndarray, grid: Grid2D, dyn: DynamicsSpec, *,
            d2=None, coef=None) -> np.ndarray:
    """(1/2)(sigma1^2 d^2/dx1^2 + sigma2^2 d^2/dx2^2) u (diagonal sigma).

    A caller that already holds the second differences ``d2`` = (d11 u,
    d22 u) of ``diff2`` or the tables ``coef`` of ``half_sigma_sq`` passes
    them in; the result is the same, bit for bit.
    """
    d11, d22 = d2 if d2 is not None else (diff2(u, grid.dx1, axis=-2),
                                          diff2(u, grid.dx2, axis=-1))
    a1, a2 = coef if coef is not None else half_sigma_sq(grid, dyn)
    return a1 * d11 + a2 * d22


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


def interior_box(grid: Grid2D, frame: float):
    """``(index, sub_grid)`` of the nodes left when a boundary frame, the
    fraction ``frame`` of each axis on each side, is trimmed: ``index``
    selects them on the trailing axes. At least 4 nodes per axis remain.
    """
    check_boundary_frame(frame)
    k1 = int(round(frame * grid.n1))
    k2 = int(round(frame * grid.n2))
    if grid.n1 - 2 * k1 < 4 or grid.n2 - 2 * k2 < 4:
        raise ConfigurationError("boundary frame leaves fewer than 4 nodes per axis")
    rows, cols = slice(k1, grid.n1 - k1), slice(k2, grid.n2 - k2)
    x1, x2 = grid.x1[rows], grid.x2[cols]
    sub = Grid2D(x1[0], x1[-1], x2[0], x2[-1], len(x1), len(x2))
    return (..., rows, cols), sub


def sup_norm(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return float(max(a.max(), -a.min()))


def lipschitz_estimate(u: np.ndarray, grid: Grid2D,
                       boundary_frame: float = 0.0) -> float:
    """Max |u(x)-u(y)|/|x-y| over adjacent node pairs, axes and diagonals,
    of one slice or of every slice of a path."""
    index, sub = interior_box(grid, boundary_frame)
    v = np.asarray(u)[index]
    ddiag = math.hypot(sub.dx1, sub.dx2)
    # one difference array is alive at a time
    return max(sup_norm(np.diff(v, axis=-2)) / sub.dx1,
               sup_norm(np.diff(v, axis=-1)) / sub.dx2,
               sup_norm(v[..., 1:, 1:] - v[..., :-1, :-1]) / ddiag,
               sup_norm(v[..., 1:, :-1] - v[..., :-1, 1:]) / ddiag)
