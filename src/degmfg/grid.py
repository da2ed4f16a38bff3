"""Grids, field containers and space-time paths.

All fields are vertex-centered on a uniform rectangular grid. Densities are
interpreted w.r.t. Lebesgue measure; their discrete mass is the trapezoidal
quadrature of the values, which coincides with a finite-volume sum over cells
of width dx (interior) and dx/2 (boundary). Off-node reads go through one
bilinear ``Stencil``; ``require_mesh`` is the one space-time mesh rule.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

NEGATIVITY_TOL = 1e-12
MASS_TOL = 1e-8


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular discretization of the truncated domain.

    The node coordinates and the quadrature tables are computed once per
    grid and are read-only.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        problems = []
        if not self.x1_min < self.x1_max:
            problems.append("x1_min < x1_max violated")
        if not self.x2_min < self.x2_max:
            problems.append("x2_min < x2_max violated")
        if self.n1 < 4:
            problems.append("n1 >= 4 violated (got %d)" % self.n1)
        if self.n2 < 4:
            problems.append("n2 >= 4 violated (got %d)" % self.n2)
        if problems:
            raise ConfigurationError(problems)

    @property
    def dx1(self) -> float:
        return (self.x1_max - self.x1_min) / (self.n1 - 1)

    @property
    def dx2(self) -> float:
        return (self.x2_max - self.x2_min) / (self.n2 - 1)

    @cached_property
    def x1(self) -> np.ndarray:
        return _read_only(np.linspace(self.x1_min, self.x1_max, self.n1))

    @cached_property
    def x2(self) -> np.ndarray:
        return _read_only(np.linspace(self.x2_min, self.x2_max, self.n2))

    def meshgrid(self):
        """(X1, X2) arrays of shape (n1, n2), axis 0 is x1."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @property
    def shape(self):
        return (self.n1, self.n2)

    @property
    def n_nodes(self) -> int:
        return self.n1 * self.n2

    def axis_widths(self):
        """Trapezoidal cell widths per axis: dx inside, dx/2 at both ends."""
        w1 = np.full(self.n1, self.dx1)
        w1[[0, -1]] = 0.5 * self.dx1
        w2 = np.full(self.n2, self.dx2)
        w2[[0, -1]] = 0.5 * self.dx2
        return w1, w2

    @cached_property
    def _cell_weights(self) -> np.ndarray:
        return _read_only(np.outer(*self.axis_widths()))

    @cached_property
    def _square_radius(self) -> np.ndarray:
        return _read_only(np.add.outer(self.x1 ** 2, self.x2 ** 2))

    @cached_property
    def _edge(self) -> np.ndarray:
        edge = np.ones(self.shape, dtype=bool)
        edge[1:-1, 1:-1] = False
        return _read_only(edge)

    def cell_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, shape (n1, n2), read-only."""
        return self._cell_weights

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoidal integral of a sampled function over the box; of a
        density, its mass."""
        return float(np.sum(self._cell_weights * values))

    def second_moment(self, values: np.ndarray) -> float:
        """Trapezoidal integral of |x|^2 times a density."""
        return float(np.sum(self._cell_weights * values * self._square_radius))

    def boundary_mass(self, values: np.ndarray) -> float:
        """Mass of a density on the outermost node layer (truncation
        diagnostic)."""
        return float(np.sum((self._cell_weights * values)[self._edge]))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.x1_max - self.x1_min, self.x2_max - self.x2_min))


class Stencil:
    """The bilinear stencil of points (n, 2) on a grid, clamped to the box:
    the flat indices of each point's four cell corners, shape (4, n), and
    their weights (1-t1)(1-t2), t1(1-t2), (1-t1)t2, t1 t2."""

    def __init__(self, grid: Grid2D, pts: np.ndarray):
        f1 = np.clip((pts[:, 0] - grid.x1_min) / grid.dx1, 0.0, grid.n1 - 1.0)
        f2 = np.clip((pts[:, 1] - grid.x2_min) / grid.dx2, 0.0, grid.n2 - 1.0)
        i1 = np.minimum(f1.astype(int), grid.n1 - 2)
        i2 = np.minimum(f2.astype(int), grid.n2 - 2)
        t1 = f1 - i1
        t2 = f2 - i2
        self.corners = (i1 * grid.n2 + i2
                        + np.array([0, grid.n2, 1, grid.n2 + 1])[:, None])
        self.weights = np.stack([(1 - t1) * (1 - t2), t1 * (1 - t2),
                                 (1 - t1) * t2, t1 * t2])

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """The interpolant at the points of a raveled slice (n1*n2,), or of
        each row of a stack (k, n1*n2)."""
        p = self.weights * flat.take(self.corners, axis=-1)
        return p[..., 0, :] + p[..., 1, :] + p[..., 2, :] + p[..., 3, :]


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("%s contains non-finite values" % what)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def density_rule(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """The density invariants of one slice (n1, n2) or of each slice of a
    stack (nt, n1, n2): no value below -1e-12 and, once clipped at 0, unit
    trapezoid mass within 1e-8. Returns the clipped copy; raises on the
    first slice that breaks a rule.
    """
    out = np.clip(values, 0.0, None)
    stack = out.reshape((-1,) + grid.shape)
    lows = values.reshape(stack.shape).min(axis=(1, 2))
    for low, v in zip(lows, stack):
        if low < -NEGATIVITY_TOL:
            raise ConfigurationError(
                "density has negativity %g below the -1e-12 tolerance" % low)
        mass = grid.integrate(v)
        if abs(mass - 1.0) > MASS_TOL:
            raise ConfigurationError(
                "density mass %.12g differs from 1 beyond 1e-8" % mass)
    return out


@dataclass(frozen=True)
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ConfigurationError(
                "%s shape %s does not match grid %s"
                % (type(self).__name__, v.shape, self.grid.shape))
        _check_finite(v, type(self).__name__)
        object.__setattr__(self, "values", _read_only(self._admit(v)))

    def _admit(self, v: np.ndarray) -> np.ndarray:
        return v.copy()


@dataclass(frozen=True)
class DensityField(ScalarField):
    """Nonnegative unit-mass grid measure (density w.r.t. Lebesgue)."""

    def _admit(self, v: np.ndarray) -> np.ndarray:
        return density_rule(self.grid, v)


@dataclass(frozen=True)
class ValuePath:
    """Time-stacked scalar field u(., t_k), t_k = k*dt, t_{nt-1} = T."""

    grid: Grid2D
    dt: float
    values: np.ndarray  # (nt, n1, n2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        what = type(self).__name__
        if v.ndim != 3 or v.shape[1:] != self.grid.shape:
            raise ConfigurationError("%s values must be (nt, n1, n2)" % what)
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        _check_finite(v, what)
        object.__setattr__(self, "values", _read_only(self._admit(v)))

    def _admit(self, v: np.ndarray) -> np.ndarray:
        return v.copy()

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> float:
        return self.dt * (self.nt - 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def slice(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.values[k])


@dataclass(frozen=True)
class DensityPath(ValuePath):
    """Time-stacked density m(., t_k); every slice obeys the density rule.

    ``validate_slices=False`` admits the values unchecked and unclipped,
    for a caller that hands the property suite a path as it is (a negative
    control); no path the package builds or reads takes it.
    """

    validate_slices: bool = field(default=True, compare=False)

    def _admit(self, v: np.ndarray) -> np.ndarray:
        return density_rule(self.grid, v) if self.validate_slices else v.copy()

    def slice(self, k: int) -> DensityField:
        return DensityField(self.grid, self.values[k])


def constant_path(m0: DensityField, dt: float, nt: int) -> DensityPath:
    """m0 held over nt slices dt apart, a validated path, so that no
    consumer re-runs the density rule on it."""
    return DensityPath(m0.grid, dt, np.repeat(m0.values[None], nt, axis=0))


def require_mesh(name: str, path: ValuePath, grid: Grid2D, nt: int,
                 dt: float):
    """The time-mesh rule: ``path`` must lie on ``grid`` with ``nt`` slices
    ``dt`` apart, dt equal up to 1e-12 * max(dt, 1). Raises a
    ConfigurationError that names the path and both meshes."""
    if (path.grid != grid or path.nt != nt
            or abs(path.dt - dt) > 1e-12 * max(dt, 1.0)):
        mesh = "[%g, %g] x [%g, %g] at %dx%d nodes with nt=%d, dt=%r"
        raise ConfigurationError("%s lies on %s, not on %s" % (
            name, mesh % (astuple(path.grid) + (path.nt, float(path.dt))),
            mesh % (astuple(grid) + (nt, float(dt)))))


def truncated_gaussian(grid: Grid2D, center=(0.0, 0.0), variance=0.25) -> DensityField:
    """Gaussian density truncated to the box and renormalized (default m0)."""
    problems = []
    if len(tuple(center)) != 2:
        problems.append("center must have two entries")
    if not variance > 0:
        problems.append("variance must be positive")
    if problems:
        raise ConfigurationError(problems)
    x1g, x2g = grid.meshgrid()
    v = np.exp(-((x1g - center[0]) ** 2 + (x2g - center[1]) ** 2) / (2.0 * variance))
    v /= grid.integrate(v)
    return DensityField(grid, v)
