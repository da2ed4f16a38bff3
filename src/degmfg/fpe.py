"""Forward-in-time conservative solver for the degenerate Fokker-Planck
equation driven by a value path.

Finite-volume form on trapezoidal cells (interior width dx, boundary dx/2)
with zero boundary fluxes: discrete mass is a telescoping identity. The
transport flux is upwinded per face from the face-averaged velocity, which
preserves nonnegativity under the CFL condition. Diffusion is implicit via
the adjoint of the HJB diffusion matrix in the trapezoid-weighted inner
product, an M-matrix, which also preserves nonnegativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .dynamics import DynamicsSpec
from .errors import ConfigurationError, SolverError
from .grid import DensityField, DensityPath, Grid2D, ValuePath
from .hjb import HjbConfig, assemble_diffusion
from .operators import degenerate_gradient

MASS_DRIFT_HARD = 1e-8
CLAMP_FLOOR = -1e-12


@dataclass
class FpeReport:
    mass_drift_max: float = 0.0
    min_density: float = 0.0          # most negative pre-clamp value seen
    second_moments: list = field(default_factory=list)
    renormalization_max: float = 0.0


def assemble_dual_diffusion(grid: Grid2D, dyn: DynamicsSpec) -> sparse.csr_matrix:
    """W-adjoint of the HJB diffusion: W^-1 A^T W, W the trapezoid weights.

    A = epsilon*Laplace + L with reflecting ends (``hjb.assemble_diffusion``),
    so this is the flux form of epsilon*Laplace + (1/2) sum d^2(sigma_i^2 .)
    with zero boundary fluxes. The rows of A sum to zero, hence the
    W-weighted column sums of the adjoint vanish and the implicit step
    conserves trapezoidal mass structurally.
    """
    w = grid.cell_weights().ravel()
    return (sparse.diags(1.0 / w) @ assemble_diffusion(grid, dyn).T
            @ sparse.diags(w)).tocsr()


def _face_velocities(v1eff, v2eff):
    """Advection velocity a = -v_eff averaged onto the x1 and x2 faces."""
    a1 = -0.5 * (v1eff[1:, :] + v1eff[:-1, :])   # x1 faces, shape (n1-1, n2)
    a2 = -0.5 * (v2eff[:, 1:] + v2eff[:, :-1])   # x2 faces, shape (n1, n2-1)
    return a1, a2


def _upwind_transport(m, v1eff, v2eff, grid, sabotage=False):
    """Finite-volume update increment for + div(m v_eff) with upwind fluxes.

    The PDE term is +div_G(m D_G u); characteristics move with velocity
    -v_eff, so the upwind side is taken accordingly.
    """
    w1, w2 = grid.axis_widths()
    w1, w2 = w1[:, None], w2[None, :]
    a1, a2 = _face_velocities(v1eff, v2eff)
    if sabotage:
        flux1 = a1 * 0.5 * (m[1:, :] + m[:-1, :])
        flux2 = a2 * 0.5 * (m[:, 1:] + m[:, :-1])
    else:
        flux1 = np.maximum(a1, 0.0) * m[:-1, :] + np.minimum(a1, 0.0) * m[1:, :]
        flux2 = np.maximum(a2, 0.0) * m[:, :-1] + np.minimum(a2, 0.0) * m[:, 1:]
    out = np.zeros_like(m)
    out[:-1, :] -= flux1 / w1[:-1]
    out[1:, :] += flux1 / w1[1:]
    out[:, :-1] -= flux2 / w2[:, :-1]
    out[:, 1:] += flux2 / w2[:, 1:]
    return out


def solve_fpe_forward(m0: DensityField, u_path: ValuePath, dyn: DynamicsSpec,
                      cfg: HjbConfig, sabotage_upwind: bool = False,
                      report: FpeReport | None = None) -> DensityPath:
    """March m forward from m0 under drift D_G u and (regularized) diffusion."""
    grid = m0.grid
    if u_path.grid != grid:
        raise ConfigurationError("u_path and m0 live on different grids")
    if u_path.nt != cfg.nt or abs(u_path.dt - cfg.dt) > 1e-12 * max(cfg.dt, 1.0):
        raise ConfigurationError("u_path time mesh does not match config")
    dt = cfg.dt
    if report is None:
        report = FpeReport()

    hg = dyn.h_grid(grid)
    w1, w2 = grid.axis_widths()
    w1, w2 = w1[:, None], w2[None, :]
    # effective velocities: term is d1(m b1) + h d2(m b2) = div of (m b1, m h b2)
    vel = []
    cfl = 0.0
    for k in range(cfg.nt):
        b = degenerate_gradient(u_path.slice(k), dyn)
        v1 = b.v1
        v2 = hg * b.v2
        vel.append((v1, v2))
        # per-cell outflow coefficient of the explicit upwind step
        a1, a2 = _face_velocities(v1, v2)
        out = np.zeros(grid.shape)
        out[:-1, :] += np.maximum(a1, 0.0)
        out[1:, :] += np.maximum(-a1, 0.0)
        out = out / w1
        tmp = np.zeros(grid.shape)
        tmp[:, :-1] += np.maximum(a2, 0.0)
        tmp[:, 1:] += np.maximum(-a2, 0.0)
        out += tmp / w2
        cfl = max(cfl, dt * float(out.max()))
    if cfl > 1.0 + 1e-12:
        raise ConfigurationError(
            "FPE transport CFL violated: max cell outflow coefficient %.4g > 1; "
            "reduce dt or refine the value path" % cfl)

    diff = assemble_dual_diffusion(grid, dyn)
    solver = None
    if abs(diff).sum() > 0:
        solver = splu(sparse.csc_matrix(
            sparse.identity(grid.n_nodes) - dt * diff))

    w = grid.cell_weights()
    x1g, x2g = grid.meshgrid()
    sqnorm = x1g ** 2 + x2g ** 2
    m = m0.values.copy()
    values = np.empty((cfg.nt,) + grid.shape)
    values[0] = m
    report.min_density = float(m.min())
    report.second_moments = [m0.second_moment()]
    for k in range(cfg.nt - 1):
        v1, v2 = vel[k]
        star = m + dt * _upwind_transport(m, v1, v2, grid, sabotage=sabotage_upwind)
        if solver is not None:
            m_new = solver.solve(star.ravel()).reshape(grid.shape)
        else:
            m_new = star
        pre_min = float(m_new.min())
        report.min_density = min(report.min_density, pre_min)
        mass = float(np.sum(w * m_new))
        drift = abs(mass - 1.0)
        report.mass_drift_max = max(report.mass_drift_max, drift)
        if not sabotage_upwind:
            if drift > MASS_DRIFT_HARD:
                raise SolverError(
                    "FPE mass drift %.3g at step %d exceeds 1e-8; the conservative "
                    "scheme is structurally broken" % (drift, k + 1))
            if pre_min < CLAMP_FLOOR:
                raise SolverError(
                    "FPE negativity %.3g at step %d below the -1e-12 clamp floor"
                    % (pre_min, k + 1))
            if pre_min < 0.0:
                m_new = np.clip(m_new, 0.0, None)
                new_mass = float(np.sum(w * m_new))
                report.renormalization_max = max(report.renormalization_max,
                                                 abs(new_mass - mass))
                m_new /= new_mass
        m = m_new
        values[k + 1] = m
        report.second_moments.append(float(np.sum(w * m * sqnorm)))
    # the sabotaged (centered-flux) variant is a negative control: it must
    # reach the verify suite unclamped so the positivity check can fail on it
    return DensityPath(grid, dt, values, validate_slices=not sabotage_upwind)

