"""Named, runnable property checks on solved fields.

Each estimator measures a regularity constant (spatial/temporal Lipschitz,
semiconcavity along node offsets, a.e. PDE residual) and the
suite aggregates them into a machine-readable pass/fail report against
config-visible thresholds. Sup-type estimators exclude a boundary frame
(default 10% of each axis) because artificial-boundary effects are not part
of the properties under test. Every estimator reads node values only: the
semiconcavity quotients step along the axes and the lattice diagonals
(dx1, +-dx2), on square and non-square spacing alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import MASS_TOL, NEGATIVITY_TOL, DensityPath, Grid2D, ValuePath
from .operators import DEFAULT_BOUNDARY_FRAME, check_boundary_frame, \
    interior_box, lipschitz_estimate, sup_norm

AXES_AND_DIAGONALS = ((1, 0), (0, 1), (1, 1), (1, -1))


def time_lipschitz_estimate(u: ValuePath, boundary_frame: float = 0.0) -> float:
    """Max over nodes and adjacent time slices of |u_{k+1}-u_k|/dt."""
    vals = u.values[interior_box(u.grid, boundary_frame)[0]]
    return sup_norm(np.diff(vals, axis=0)) / u.dt


def semiconcavity_estimate(u: np.ndarray, grid: Grid2D, offset: tuple,
                           boundary_frame: float = 0.0) -> float:
    """Max centered second difference quotient
    (u(x + j h) - 2 u(x) + u(x - j h)) / |j h|^2 along the node offset
    ``offset`` = (p, q), h = (p dx1, q dx2), for j = 1, 2, of one slice or
    of every slice of a path.

    The samples are node values read by index shift. Scale j reads the
    nodes x whose span x +- 2 j h stays inside the frame; a scale that no
    node fits is skipped, and an offset that no scale fits (fewer than 5
    nodes inside the frame on an axis it moves along) raises.

    An upper bound C here certifies the one-sided inequality
    lam*u(x) + (1-lam)*u(y) - u(lam x + (1-lam) y) <= C lam (1-lam) |x-y|^2
    along h.
    """
    index, sub = interior_box(grid, boundary_frame)
    v = np.asarray(u)[index]
    flat = v.reshape(v.shape[:-2] + (-1,))
    i1, i2 = np.indices(sub.shape).reshape(2, -1)
    p, q = offset
    quotients = []
    for j in (1, 2):
        r1, r2 = 2 * j * abs(p), 2 * j * abs(q)
        at = np.flatnonzero((i1 >= r1) & (i1 < sub.n1 - r1)
                            & (i2 >= r2) & (i2 < sub.n2 - r2))
        if at.size:
            shift = j * (p * sub.n2 + q)
            d2 = flat[..., at + shift] - 2.0 * flat[..., at] \
                + flat[..., at - shift]
            s = j * math.hypot(p * sub.dx1, q * sub.dx2)
            quotients.append(float((d2 / s ** 2).max()))
    if not quotients:
        raise ConfigurationError(
            "semiconcavity along offset (%d, %d) needs at least 5 nodes per "
            "axis inside the boundary frame, which leaves %d x %d"
            % (p, q, sub.n1, sub.n2))
    return max(quotients)


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
    semi = max(semiconcavity_estimate(sampled, u.grid, offset, frame)
               for offset in AXES_AND_DIAGONALS)
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
