"""Named, runnable property checks on solved fields.

Each estimator measures a regularity constant (spatial/temporal Lipschitz,
directional semiconcavity, a.e. PDE residual) and the
suite aggregates them into a machine-readable pass/fail report against
config-visible thresholds. Sup-type estimators exclude a boundary frame
(default 10% of each axis) because artificial-boundary effects are not part
of the properties under test.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import MASS_TOL, NEGATIVITY_TOL, DensityPath, Direction, Grid2D, \
    Stencil, ValuePath
from .operators import DEFAULT_BOUNDARY_FRAME, check_boundary_frame, \
    interior_box, lipschitz_estimate, sup_norm

AXES_AND_DIAGONALS = (
    Direction(1.0, 0.0),
    Direction(0.0, 1.0),
    Direction(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    Direction(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
)


def time_lipschitz_estimate(u: ValuePath, boundary_frame: float = 0.0) -> float:
    """Max over nodes and adjacent time slices of |u_{k+1}-u_k|/dt."""
    vals = u.values[interior_box(u.grid, boundary_frame)[0]]
    return sup_norm(np.diff(vals, axis=0)) / u.dt


def _lattice_vector(eta: Direction, grid: Grid2D):
    """Integer node offset (p, q) whose physical direction equals eta, if any.

    Axes and (on square-spacing grids) diagonals align with the lattice, so
    shifted samples are exact node values and the difference quotients carry
    no interpolation error.
    """
    for p, q in ((1, 0), (-1, 0), (0, 1), (0, -1),
                 (1, 1), (1, -1), (-1, 1), (-1, -1)):
        d = np.array([p * grid.dx1, q * grid.dx2])
        d /= np.linalg.norm(d)
        if abs(d[0] - eta.eta1) < 1e-12 and abs(d[1] - eta.eta2) < 1e-12:
            return p, q
    return None


def _second_differences(v: np.ndarray, grid: Grid2D, eta: Direction):
    """Yield (s, u(x + s eta) - 2 u(x) + u(x - s eta)) for s = j dx, j = 1, 2,
    on the trailing (n1, n2) axes of ``v``, at the nodes x whose span
    x +- 2 s eta stays inside the box.

    Along the lattice the shifted samples are node values read by index
    shift; along other directions they are read from the bilinear stencil.
    """
    flat = v.reshape(v.shape[:-2] + (-1,))
    i1, i2 = np.indices(grid.shape).reshape(2, -1)
    x = np.stack([grid.x1[i1], grid.x2[i2]], axis=1)
    lo, hi = (grid.x1_min, grid.x2_min), (grid.x1_max, grid.x2_max)
    lattice = _lattice_vector(eta, grid)
    for j in (1, 2):
        if lattice is not None:
            p, q = lattice
            s = j * math.hypot(p * grid.dx1, q * grid.dx2)
            r1, r2 = 2 * j * abs(p), 2 * j * abs(q)
            at = np.flatnonzero((i1 >= r1) & (i1 < grid.n1 - r1)
                                & (i2 >= r2) & (i2 < grid.n2 - r2))
            shift = j * (p * grid.n2 + q)
            minus, plus = flat[..., at - shift], flat[..., at + shift]
        else:
            s = j * min(grid.dx1, grid.dx2)
            step = s * eta.as_array()
            ends = (x - 2 * step, x + 2 * step)
            at = np.flatnonzero(np.all([(y >= lo) & (y <= hi) for y in ends],
                                       axis=(0, 2)))
            minus, plus = (Stencil(grid, x[at] + k * step).gather(flat)
                           for k in (-1, 1))
        if not at.size:
            raise ConfigurationError(
                "direction stencil leaves the domain everywhere")
        yield s, plus - 2.0 * flat[..., at] + minus


def semiconcavity_estimate(u: np.ndarray, grid: Grid2D, eta: Direction,
                           boundary_frame: float = 0.0) -> float:
    """Max centered second difference quotient along eta for s in {dx, 2dx},
    of one slice or of every slice of a path.

    An upper bound C here certifies the one-sided inequality
    lam*u(x) + (1-lam)*u(y) - u(lam x + (1-lam) y) <= C lam (1-lam) |x-y|^2
    along the sampled direction.
    """
    index, sub = interior_box(grid, boundary_frame)
    v = np.asarray(u)[index]
    return max(float((d2 / s ** 2).max())
               for s, d2 in _second_differences(v, sub, eta))


@dataclass(frozen=True)
class ResidualReport:
    fraction_below_tol: float
    tol: float
    quantiles: tuple  # (50%, 90%, 99%)
    n_nodes: int


def ae_residual_report(u: ValuePath, dyn: DynamicsSpec, coupling, m_path: DensityPath,
                       tol: float | None = None,
                       boundary_frame: float = DEFAULT_BOUNDARY_FRAME) -> ResidualReport:
    """Fraction of interior space-time nodes where the HJE residual is small.

    Default tolerance is 5*(dx+dt), the first-order consistency scale of the
    scheme, so the fraction is meaningfully comparable across refinements.
    """
    from .hjb import pde_residual

    g = u.grid
    if tol is None:
        tol = 5.0 * (max(g.dx1, g.dx2) + u.dt)
    allv = np.abs(pde_residual(u, dyn, coupling, m_path)
                  [interior_box(g, boundary_frame)[0]]).ravel()
    q = np.quantile(allv, [0.5, 0.9, 0.99])
    return ResidualReport(
        fraction_below_tol=float(np.mean(allv <= tol)),
        tol=float(tol),
        quantiles=(float(q[0]), float(q[1]), float(q[2])),
        n_nodes=int(allv.size),
    )


@dataclass(frozen=True)
class VerifyThresholds:
    """Pass/fail thresholds for the property suite; all config-visible."""
    lipschitz_max: float = 50.0
    time_lipschitz_max: float = 100.0
    semiconcavity_max: float = 100.0
    negativity_floor: float = -NEGATIVITY_TOL
    mass_drift_max: float = MASS_TOL
    second_moment_factor: float = 3.0
    residual_fraction_min: float = 0.9
    boundary_frame: float = DEFAULT_BOUNDARY_FRAME
    boundary_mass_budget: float = 1e-6

    def __post_init__(self):
        check_boundary_frame(self.boundary_frame)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


def property_checks(u: ValuePath, m: DensityPath, dyn: DynamicsSpec, coupling,
                    thresholds: VerifyThresholds | None = None) -> list[PropertyResult]:
    """Run the regularity and conservation property checks on a solved pair (u, m)."""
    th = thresholds or VerifyThresholds()
    frame = th.boundary_frame
    results = []

    lip = lipschitz_estimate(u.values, u.grid, frame)
    results.append(PropertyResult(
        "spatial_lipschitz", lip <= th.lipschitz_max and math.isfinite(lip),
        lip, th.lipschitz_max, "max over time slices"))

    tlip = time_lipschitz_estimate(u, frame)
    results.append(PropertyResult(
        "time_lipschitz", tlip <= th.time_lipschitz_max and math.isfinite(tlip),
        tlip, th.time_lipschitz_max))

    sampled = u.values[::max(1, u.nt // 8)]
    semi = max(semiconcavity_estimate(sampled, u.grid, eta, frame)
               for eta in AXES_AND_DIAGONALS)
    results.append(PropertyResult(
        "semiconcavity", semi <= th.semiconcavity_max and math.isfinite(semi),
        semi, th.semiconcavity_max, "axes and diagonals, subsampled in time"))

    min_density = float(m.values.min())
    results.append(PropertyResult(
        "positivity", min_density >= th.negativity_floor,
        min_density, th.negativity_floor))

    g = m.grid
    masses = np.array([g.integrate(v) for v in m.values])
    drift = float(np.abs(masses - 1.0).max())
    results.append(PropertyResult(
        "mass_conservation", drift <= th.mass_drift_max, drift, th.mass_drift_max))

    moments = np.array([g.second_moment(v) for v in m.values])
    bound = th.second_moment_factor * (moments[0] + 1.0)
    results.append(PropertyResult(
        "second_moment_bound", float(moments.max()) <= bound,
        float(moments.max()), bound))

    # uniform continuity of u in t up to the horizon: ||u_t - u_T|| <= C (T - t)
    times = u.times()
    terminal = u.values[-1]
    ratios = [float(np.abs(u.values[k] - terminal).max()) / (times[-1] - times[k])
              for k in range(u.nt - 1)]
    c1 = max(ratios) if ratios else 0.0
    results.append(PropertyResult(
        "terminal_time_shift", math.isfinite(c1) and c1 <= th.time_lipschitz_max,
        c1, th.time_lipschitz_max, "sup_t ||u_t - u_T|| / (T - t)"))

    if u.nt >= 3:
        try:
            rep = ae_residual_report(u, dyn, coupling, m, boundary_frame=frame)
            results.append(PropertyResult(
                "ae_residual_fraction",
                rep.fraction_below_tol >= th.residual_fraction_min,
                rep.fraction_below_tol, th.residual_fraction_min,
                "tol=%.3g, quantiles=%s" % (rep.tol, list(rep.quantiles))))
        except (ConfigurationError,) as exc:
            # a path admitted unvalidated (validate_slices=False) that
            # breaks the density rule: F runs the rule and refuses it
            results.append(PropertyResult(
                "ae_residual_fraction", False, 0.0,
                th.residual_fraction_min, "not evaluable: %s" % exc))

    bmass = max(g.boundary_mass(v) for v in m.values)
    results.append(PropertyResult(
        "boundary_mass", bmass <= th.boundary_mass_budget,
        bmass, th.boundary_mass_budget, "max over time of mass on edge nodes"))

    return results


def report_to_dict(results: list[PropertyResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "properties": [asdict(r) for r in results],
    }
