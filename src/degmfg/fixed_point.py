"""Picard iteration for the coupled backward/forward system and the
vanishing-viscosity sweep.

One application of the map psi solves the backward HJE with a frozen density
path and then pushes the initial density forward through the FPE with the
resulting feedback. A fixed point of psi is a solution of the coupled
system. The iteration takes the full step m <- psi(m) while the stopping
residual contracts; once a full step fails to contract it damps every
further step by ``theta`` (full steps can cycle under a strong coupling).
The stopping metric is max-over-time d1 between consecutive paths: the
exact transport LP between slices block-coarsened by ``GridDistance`` to at
most 320 support points (256 on the 32x32 default grid). At the final
iterate the same LP is solved again on supports coarsened to at most
``lp_check_points`` (120) points. Both are exact values, at two
resolutions, so their gap (7.0e-4 vs 9.5e-4 on grushin_default) measures
the coarsening, not the error of an approximate solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingSpec
from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .fpe import solve_fpe_forward
from .grid import DensityField, DensityPath, ValuePath, constant_path
from .hjb import HjbConfig, solve_hjb_backward
from .measures import GridDistance
# bench/tracer.py wraps this binding by name as "measures.lp"; the final
# cross-check's LPs now run inside GridDistance.distance ("measures.distance")
from .measures import wasserstein1_points  # noqa: F401


@dataclass(frozen=True)
class FixedPointConfig:
    theta: float = 0.5  # fallback damping, once a full step fails to contract
    tol_d1: float = 1e-3
    max_outer_iters: int = 30
    eps_schedule: tuple = (0.1, 0.05, 0.025, 0.0125)
    n_check_slices: int = 7   # time slices at which the d1 residual is measured
    lp_check_points: int = 120  # coarsened support size for the final LP check

    def __post_init__(self):
        problems = []
        if not 0.0 < self.theta <= 1.0:
            problems.append("damping theta must lie in (0, 1]")
        if self.tol_d1 <= 0.0:
            problems.append("tol_d1 must be positive")
        if self.max_outer_iters < 1:
            problems.append("max_outer_iters must be >= 1")
        sched = tuple(self.eps_schedule)
        if any(e <= 0 for e in sched):
            problems.append("eps_schedule values must be > 0; the sweep "
                            "appends eps = 0 itself")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            problems.append("eps_schedule must be strictly decreasing")
        if self.n_check_slices < 2:
            problems.append("n_check_slices must be >= 2")
        if self.lp_check_points < 1:
            problems.append("lp_check_points must be >= 1")
        if problems:
            raise ConfigurationError(problems)


@dataclass
class MfgSolution:
    u: ValuePath
    m: DensityPath
    residual_history: list
    epsilon: float
    converged: bool
    iterations: int = 0
    steps: list = field(default_factory=list)  # step taken at each iteration
    lp_residual: float = float("nan")  # final residual at the LP-check resolution


def _check_indices(nt: int, n_check: int):
    return np.unique(np.linspace(0, nt - 1, n_check).round().astype(int))


def psi_map(mu: DensityPath, dyn: DynamicsSpec, coupling: CouplingSpec,
            cfg: HjbConfig):
    """One application of the fixed-point map: HJE backward, then FPE forward.

    Returns (u, m_new); the new density path starts from mu's initial slice.
    """
    u = solve_hjb_backward(dyn, coupling, mu, cfg)
    m_new = solve_fpe_forward(mu.slice(0), u, dyn, cfg)
    return u, m_new


def _path_residual(a: DensityPath, b: DensityPath, gd: GridDistance, idx):
    return max(gd.distance(a.values[k], b.values[k]) for k in idx)


def picard_solve(dyn: DynamicsSpec, coupling: CouplingSpec, m0: DensityField,
                 cfg: HjbConfig, fp: FixedPointConfig,
                 initial_path: DensityPath | None = None) -> MfgSolution:
    """Safeguarded Picard iteration m^{k+1} = (1-s_k) m^k + s_k psi(m^k).

    The step s_k is 1 while the residual r_k = d1(m^{k+1}, m^k) decreases;
    from the first k > 0 with r_k >= r_{k-1} on, every later step is
    ``fp.theta`` (with theta = 1 every step is full). ``steps`` records s_k.
    The initial guess is psi applied to the time-constant extension of m0
    (so a decoupled system converges in exactly one further iteration). On
    convergence the exact-LP distance between the last two iterates at the
    coarser ``lp_check_points`` resolution is recorded as ``lp_residual``.
    """
    if not coupling.monotone:
        import warnings
        warnings.warn("coupling is not declared monotone; the fixed point "
                      "may not be unique", stacklevel=2)
    grid = m0.grid
    gd = GridDistance(grid)
    idx = _check_indices(cfg.nt, fp.n_check_slices)

    if initial_path is None:
        initial_path = constant_path(m0, cfg.dt, cfg.nt)
    u, mu = psi_map(initial_path, dyn, coupling, cfg)

    history, steps = [], []
    step = 1.0
    converged = False
    for k in range(fp.max_outer_iters):
        u, m_raw = psi_map(mu, dyn, coupling, cfg)
        if step == 1.0:
            m_next = m_raw
        else:
            m_next = DensityPath(
                grid, cfg.dt, (1.0 - step) * mu.values + step * m_raw.values)
        residual = _path_residual(m_next, mu, gd, idx)
        history.append(residual)
        steps.append(step)
        prev = mu
        mu = m_next
        if residual <= fp.tol_d1:
            converged = True
            break
        if step == 1.0 and k > 0 and residual >= history[-2]:
            step = float(fp.theta)

    lp_res = float("nan")
    if converged:
        # resolution check of the stopping metric: the same exact LP on
        # supports coarsened to at most lp_check_points points instead of
        # the stopping metric's finer ones; the gap is the coarsening error
        lp_res = _path_residual(
            prev, mu, GridDistance(grid, max_points=fp.lp_check_points), idx)
    return MfgSolution(u=u, m=mu, residual_history=history, epsilon=dyn.epsilon,
                       converged=converged, iterations=len(history),
                       steps=steps, lp_residual=lp_res)


@dataclass
class SweepLevel:
    epsilon: float
    solution: MfgSolution
    sup_norm_delta: float = float("nan")  # ||u^{eps_i} - u^{eps_{i+1}}||_inf
    d1_delta: float = float("nan")        # max-over-checked-t d1 between paths


@dataclass
class SweepResult:
    levels: list
    aborted: bool = False

    @property
    def sup_norm_deltas(self):
        return [lv.sup_norm_delta for lv in self.levels[1:]]

    @property
    def d1_deltas(self):
        return [lv.d1_delta for lv in self.levels[1:]]


def eps_sweep(dyn: DynamicsSpec, coupling: CouplingSpec, m0: DensityField,
              cfg: HjbConfig, fp: FixedPointConfig) -> SweepResult:
    """Solve the coupled system along the decreasing eps schedule plus eps=0.

    Each level reports the sup-norm distance of its value path and the d1
    distance of its density path to the previous (larger-eps) level. A level
    that fails to converge aborts the sweep; the partial results are kept.
    """
    schedule = list(fp.eps_schedule) + [0.0]
    gd = GridDistance(m0.grid)
    idx = _check_indices(cfg.nt, fp.n_check_slices)
    result = SweepResult(levels=[])
    prev = None
    for eps in schedule:
        sol = picard_solve(dyn.with_epsilon(eps), coupling, m0, cfg, fp)
        level = SweepLevel(epsilon=eps, solution=sol)
        if prev is not None:
            level.sup_norm_delta = float(
                np.abs(sol.u.values - prev.u.values).max())
            level.d1_delta = _path_residual(sol.m, prev.m, gd, idx)
        result.levels.append(level)
        if not sol.converged:
            result.aborted = True
            break
        prev = sol
    return result
