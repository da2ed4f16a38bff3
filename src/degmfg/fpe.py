"""Forward-in-time conservative solver for the degenerate Fokker-Planck
equation driven by a value path.

Each step is the W-adjoint (W the trapezoid cell weights) of the HJB step
u^k = S^-1 (u^{k+1} - dt H(u^{k+1}) + dt F^k) linearized at u^{k+1}:
the implicit diffusion is the W-weighted transposed solve of S = I - dt A
(``hjb.implicit_diffusion``), the transport is W^-1 J^T W with J the
derivative of the HJB's Godunov flux (``hjb.upwind_slopes``). Both PDEs
read one set of slopes and one CFL rule, ``hjb.check_cfl``, called at
every step of both marches: 1 - dt times the diagonal of J is the HJB
step's monotonicity margin and the transport step's nonnegativity margin.
Each face flux leaves one cell and enters its neighbour, so discrete mass
is a telescoping identity. Every step is checked: a mass drift beyond 1e-8
or a value below -1e-12 is a SolverError, and values in [-1e-12, 0) are
clamped and the slice renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu  # noqa: F401 unused; bench/tracer.py wraps it

from .dynamics import DynamicsSpec
from .errors import SolverError
from .grid import MASS_TOL, NEGATIVITY_TOL, DensityField, DensityPath, \
    Grid2D, ValuePath, require_mesh
from .hjb import HjbConfig, assemble_diffusion, check_cfl, implicit_diffusion, \
    upwind_slopes


@dataclass
class FpeReport:
    mass_drift_max: float = 0.0
    min_density: float = 0.0          # most negative pre-clamp value seen
    renormalization_max: float = 0.0


def assemble_dual_diffusion(grid: Grid2D, dyn: DynamicsSpec) -> sparse.csr_matrix:
    """W-adjoint of the HJB diffusion: W^-1 A^T W, W the trapezoid weights.

    A = epsilon*Laplace + L with reflecting ends (``hjb.assemble_diffusion``),
    so this is the flux form of epsilon*Laplace + (1/2) sum d^2(sigma_i^2 .)
    with zero boundary fluxes. The solver never builds it (it solves with
    the transposed HJB matrix); it is the reference the tests check against.
    """
    w = grid.cell_weights().ravel()
    return (sparse.diags(1.0 / w) @ assemble_diffusion(grid, dyn).T
            @ sparse.diags(w)).tocsr()


def flux_transpose(y: np.ndarray, p, grid: Grid2D, hg: np.ndarray) -> np.ndarray:
    """J^T y for J v = p1b D1- v + p1f D1+ v + h p2b D2- v + h p2f D2+ v.

    J is the derivative at u of the HJB's Godunov flux
    ``hamiltonian(hjb.upwind_slopes(u, grid, hg))`` when
    p = (p1b, p1f, p2b, p2f) holds the parts max(p_i, 0) and min(p_i, 0)
    of those slopes. Each face carries one flux, added to one neighbour and
    taken from the other, so the entries of J^T y sum to zero.
    """
    p1b, p1f, p2b, p2f = p
    out = np.zeros_like(y)
    face1 = (y[1:] * p1b[1:] + y[:-1] * p1f[:-1]) / grid.dx1
    out[1:] += face1
    out[:-1] -= face1
    yh = y * hg
    face2 = (yh[:, 1:] * p2b[:, 1:] + yh[:, :-1] * p2f[:, :-1]) / grid.dx2
    out[:, 1:] += face2
    out[:, :-1] -= face2
    return out


def solve_fpe_forward(m0: DensityField, u_path: ValuePath, dyn: DynamicsSpec,
                      cfg: HjbConfig, report: FpeReport | None = None
                      ) -> DensityPath:
    """March m forward from m0 under drift D_G u and (regularized)
    diffusion; the path returned meets the density rule."""
    grid = m0.grid
    require_mesh("u_path", u_path, grid, cfg.nt, cfg.dt)
    dt = cfg.dt
    if report is None:
        report = FpeReport()

    _, solve = implicit_diffusion(grid, dyn, dt)
    hg = np.abs(dyn.h_grid(grid))  # H reads h only through h^2
    w = grid.cell_weights()
    m = m0.values.copy()
    values = np.empty((cfg.nt,) + grid.shape)
    values[0] = m
    report.min_density = float(m.min())
    for k in range(cfg.nt - 1):
        # W-adjoint of the HJB step S^-1 (I - dt J) linearized at u^{k+1}
        s = solve(m.ravel()).reshape(grid.shape)
        p1, p2 = upwind_slopes(u_path.values[k + 1], grid, hg)
        check_cfl((p1, p2), grid, hg, dt, "FPE")
        parts = (np.maximum(p1, 0.0), np.minimum(p1, 0.0),
                 np.maximum(p2, 0.0), np.minimum(p2, 0.0))
        m_new = s - dt * flux_transpose(w * s, parts, grid, hg) / w
        pre_min = float(m_new.min())
        report.min_density = min(report.min_density, pre_min)
        mass = grid.integrate(m_new)
        drift = abs(mass - 1.0)
        report.mass_drift_max = max(report.mass_drift_max, drift)
        if drift > MASS_TOL:
            raise SolverError(
                "FPE mass drift %.3g at step %d exceeds 1e-8; the conservative "
                "scheme is structurally broken" % (drift, k + 1))
        if pre_min < -NEGATIVITY_TOL:
            raise SolverError(
                "FPE negativity %.3g at step %d below the -1e-12 clamp floor"
                % (pre_min, k + 1))
        if pre_min < 0.0:
            m_new = np.clip(m_new, 0.0, None)
            new_mass = grid.integrate(m_new)
            report.renormalization_max = max(report.renormalization_max,
                                             abs(new_mass - mass))
            m_new /= new_mass
        m = m_new
        values[k + 1] = m
    # the LU came from the HJB solve of this step (or was made here); held
    # on past this pair it fragments the heap: +47 MB peak RSS at 128^2
    implicit_diffusion.cache_clear()
    return DensityPath(grid, dt, values)
