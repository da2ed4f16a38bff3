"""Monte Carlo simulation of the controlled dynamics and value estimation.

Particles follow Euler-Maruyama under the optimal feedback read off a solved
value path: drift (alpha_1, alpha_2 * h(X_1)) with alpha = minus the
degenerate gradient of u, bilinear in space and linear in time; diffusion
diag(sqrt(2*eps + sigma_i^2)). Paths reflect at the box boundary, mirroring
the Neumann truncation of the PDE solvers. Each step builds one bilinear
``grid.Stencil`` of the particle positions and gathers every grid field
from it: both feedback components and, for value estimates, the running
cost, each at the two time slices around the step's time, or at the one
slice when the step falls on a mesh time (every step when dt_sde = dt).
The kernel holds positions for one step, never a trajectory: it reports
each step's positions to a visitor and returns the final positions. A
step advances a chunk of up to CHUNK_BLOCKS particle blocks as one set of
arrays. Randomness is counter-based: each block of particles draws from
its own Philox stream keyed by (seed, block index), one (block, 2) array
of normals per step into its rows of the chunk's noise, so ensembles are
bit-identical whatever the chunking, and sums use numpy's pairwise
reduction.

The empirical density is a product-kernel Gaussian KDE with Silverman's
per-axis bandwidths: the 2-D kernel factors over the axes, so the estimate
on the grid is one matrix product of two (nodes, particles) factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingSpec
from .dynamics import DynamicsSpec
from .errors import ConfigurationError
from .grid import DensityField, DensityPath, Grid2D, Stencil, ValuePath, \
    require_mesh
from .operators import degenerate_gradient

PARTICLE_BLOCK = 4096
# blocks one step advances together (16 384 particles): 8 or 16 run no
# faster at 2 * 10^5 particles and hold 2 or 4 times the step arrays
CHUNK_BLOCKS = 4
SEED_LIMIT = 2 ** 44  # a block's Philox key is seed * 2**20 + block, in 64 bits
MC_SLACK = 0.05  # absolute slack of the Monte Carlo pass rule (discretization bias)


@dataclass(frozen=True)
class EnsembleConfig:
    n_particles: int = 10_000
    seed: int = 0
    dt_sde: float = 1e-2

    def __post_init__(self):
        problems = []
        if self.n_particles < 1:
            problems.append("n_particles must be >= 1")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.seed >= SEED_LIMIT:
            problems.append("seed must be < 2**44 (got %d)" % self.seed)
        if self.dt_sde <= 0:
            problems.append("dt_sde must be positive")
        if problems:
            raise ConfigurationError(problems)

    def check_step(self, dt: float):
        """The SDE step must not exceed the value-path mesh dt."""
        if self.dt_sde > dt + 1e-12:
            raise ConfigurationError(
                "dt_sde=%g exceeds the value-path mesh dt=%g: the feedback "
                "control would be stale" % (self.dt_sde, dt))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float  # sample std / sqrt(n)
    n: int

    def agrees_with(self, value: float) -> bool:
        """The Monte Carlo pass rule: |mean - value| <= 3 stderr + MC_SLACK."""
        return bool(abs(self.mean - value) <= 3 * self.std_error + MC_SLACK)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    """The counter-based normal source of one particle block."""
    return np.random.Generator(np.random.Philox(
        key=(np.uint64(seed) << np.uint64(20)) + np.uint64(block)))


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold positions back into [lo, hi] by mirror reflection; the offset
    x - lo is reduced modulo 2 span only where it lies outside [0, 2 span)."""
    span = hi - lo
    y = x - lo
    np.mod(y, 2.0 * span, out=y, where=(y < 0.0) | (y >= 2.0 * span))
    y = np.where(y > span, 2.0 * span - y, y)
    return lo + y


class _SlicedField:
    """A stack of grid slices on the time mesh: bilinear in space, linear in
    time. At a mesh time only that one slice is read."""

    def __init__(self, dt: float, slices: np.ndarray):
        self.dt = dt
        self.nt = len(slices)
        self.flat = slices.reshape(self.nt, -1)

    def gather(self, stencil: Stencil, t: float) -> np.ndarray:
        s = min(max(t / self.dt, 0.0), self.nt - 1.0)
        k = min(int(s), self.nt - 2)
        w = s - k
        if w == 0.0:
            return stencil.gather(self.flat[k])
        return ((1 - w) * stencil.gather(self.flat[k])
                + w * stencil.gather(self.flat[k + 1]))


def sample_density(m: DensityField, n: int, seed: int) -> np.ndarray:
    """Draw n points from a grid density: categorical over trapezoid cells,
    uniform jitter within each cell. Returns an (n, 2) array."""
    grid = m.grid
    w = (grid.cell_weights() * m.values).ravel()
    w = np.maximum(w, 0.0)
    w /= w.sum()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    idx = rng.choice(w.size, size=n, p=w)
    i1, i2 = np.unravel_index(idx, grid.shape)
    jitter = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.stack([grid.x1[i1] + jitter[:, 0] * grid.dx1,
                    grid.x2[i2] + jitter[:, 1] * grid.dx2], axis=1)
    pts[:, 0] = np.clip(pts[:, 0], grid.x1_min, grid.x1_max)
    pts[:, 1] = np.clip(pts[:, 1], grid.x2_min, grid.x2_max)
    return pts


def step_count(T: float, dt: float, x0, t0: float, cfg: EnsembleConfig) -> int:
    """Check the start of a simulation on a value path with horizon T and
    mesh dt; return the number of SDE steps."""
    if not 0.0 <= t0 < T:
        raise ConfigurationError("t0 must lie in [0, T)")
    cfg.check_step(dt)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((2,), (cfg.n_particles, 2)):
        raise ConfigurationError(
            "x0 must be a point of shape (2,) or an array of shape "
            "(n_particles, 2) = (%d, 2), got shape %s"
            % (cfg.n_particles, x0.shape))
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("x0 contains non-finite values")
    n = (T - t0) / cfg.dt_sde
    n_steps = int(round(n))
    if n_steps < 1 or abs(n - n_steps) > 1e-9:
        raise ConfigurationError(
            "dt_sde=%g must tile the interval [%g, %g] with a whole number "
            "of steps" % (cfg.dt_sde, t0, T))
    return n_steps


def _euler_maruyama(dyn: DynamicsSpec, u_path: ValuePath, x0, t0: float,
                    cfg: EnsembleConfig, n_steps: int, visit,
                    fields=()) -> np.ndarray:
    """Euler-Maruyama under the optimal feedback; reflecting boundary.

    Particles run in blocks of PARTICLE_BLOCK, block ``b`` on the Philox
    stream keyed by (seed, b), which yields the block's (nb, 2) normals
    step by step. Each step advances a chunk of up to CHUNK_BLOCKS blocks
    as one set of arrays, each block's normals drawn into its own rows of
    the chunk's noise buffer, so the draws are those of a block run alone.
    Before every step the kernel calls
    ``visit(lo, hi, step, t, x, alpha1, alpha2, *values)`` with the chunk's
    particle range, the (hi - lo, 2) positions, the feedback there and the
    values there of each ``_SlicedField`` in ``fields``, all read from one
    stencil; no array handed to ``visit`` is written afterwards.
    Returns the final positions, shape (n_particles, 2).
    """
    grid = u_path.grid
    # the feedback -(p1, p2), negated in place: two path-sized arrays
    alpha1, alpha2 = (_SlicedField(u_path.dt, np.negative(p, out=p))
                      for p in degenerate_gradient(u_path.values, grid, dyn))
    dt, sq_dt = cfg.dt_sde, math.sqrt(cfg.dt_sde)
    x0 = np.asarray(x0, dtype=float)
    n = cfg.n_particles
    final = np.empty((n, 2))
    n_blocks = -(-n // PARTICLE_BLOCK)
    for first in range(0, n_blocks, CHUNK_BLOCKS):
        blocks = range(first, min(first + CHUNK_BLOCKS, n_blocks))
        lo = first * PARTICLE_BLOCK
        hi = min(blocks.stop * PARTICLE_BLOCK, n)
        draws = [(_block_generator(cfg.seed, b),
                  slice(b * PARTICLE_BLOCK - lo,
                        min((b + 1) * PARTICLE_BLOCK, n) - lo))
                 for b in blocks]
        noise = np.empty((hi - lo, 2))
        x = np.empty((2, hi - lo))  # one contiguous row per coordinate
        x[:] = x0[:, None] if x0.ndim == 1 else x0[lo:hi].T
        for step in range(n_steps):
            t = t0 + step * dt
            st = Stencil(grid, x.T)
            a1, a2 = alpha1.gather(st, t), alpha2.gather(st, t)
            visit(lo, hi, step, t, x.T, a1, a2,
                  *(f.gather(st, t) for f in fields))
            s1 = np.sqrt(2.0 * dyn.epsilon + dyn.sigma1_sq(x[0], x[1]))
            s2 = np.sqrt(2.0 * dyn.epsilon + dyn.sigma2_sq(x[0], x[1]))
            for rng, rows in draws:
                rng.standard_normal(out=noise[rows])
            moved = np.empty_like(x)
            moved[0] = _reflect(x[0] + a1 * dt + s1 * noise[:, 0] * sq_dt,
                                grid.x1_min, grid.x1_max)
            moved[1] = _reflect(
                x[1] + a2 * dyn.h_values(x[0]) * dt + s2 * noise[:, 1] * sq_dt,
                grid.x2_min, grid.x2_max)
            x = moved
            # the chunk's peak is a stencil build: free this step's arrays
            del st, a1, a2, s1, s2
        final[lo:hi] = x.T
    return final


def simulate_paths(dyn: DynamicsSpec, u_path: ValuePath, x0, t0: float,
                   cfg: EnsembleConfig) -> np.ndarray:
    """Euler-Maruyama under the optimal feedback; reflecting boundary.

    ``x0`` is either a single point (every particle starts there) or an
    (n_particles, 2) array of initial positions. Returns the positions at
    the horizon, shape (n_particles, 2).
    """
    n_steps = step_count(u_path.horizon, u_path.dt, x0, t0, cfg)
    return _euler_maruyama(dyn, u_path, x0, t0, cfg, n_steps,
                           lambda lo, hi, step, t, x, a1, a2: None)


def mc_value(dyn: DynamicsSpec, coupling: CouplingSpec, m_path: DensityPath,
             u_path: ValuePath, x0, t0: float, cfg: EnsembleConfig) -> McEstimate:
    """Estimate the control cost along feedback paths started at (x0, t0).

    The estimate approximates u(x0, t0): running cost 1/2 |alpha|^2 + F,
    terminal cost G, with F and G evaluated on the grid and interpolated at
    the particle positions.
    """
    require_mesh("m_path", m_path, u_path.grid, u_path.nt, u_path.dt)
    n_steps = step_count(u_path.horizon, u_path.dt, x0, t0, cfg)
    f = _SlicedField(u_path.dt, coupling.running_cost(m_path))
    g_vals = coupling.terminal_cost(m_path.slice(m_path.nt - 1)).values
    run = np.zeros(cfg.n_particles)

    def accumulate(lo, hi, step, t, x, a1, a2, fx):
        run[lo:hi] += (0.5 * (a1 ** 2 + a2 ** 2) + fx) * cfg.dt_sde

    final = _euler_maruyama(dyn, u_path, x0, t0, cfg, n_steps, accumulate,
                            fields=(f,))
    costs = run + Stencil(u_path.grid, final).gather(g_vals.ravel())
    mean = float(np.mean(costs))
    std_error = float(np.std(costs, ddof=1) / math.sqrt(cfg.n_particles)) \
        if cfg.n_particles > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, n=cfg.n_particles)


def _silverman(pts: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Silverman's rule per axis in 2-D: h_i = max(sigma_i, floor) * n^(-1/6),
    sigma_i the sample standard deviation (0 for a single point)."""
    n = pts.shape[0]
    sig = np.std(pts, axis=0, ddof=1) if n > 1 else np.array([0.0, 0.0])
    return np.maximum(sig, floor) * n ** (-1.0 / 6.0)


def _axis_kernel(nodes: np.ndarray, coords: np.ndarray, bw: float) -> np.ndarray:
    """exp(-d^2 / 2), d = (node - coord) / bw: shape (nodes, particles)."""
    d = np.subtract.outer(nodes, coords)
    d /= bw
    np.square(d, out=d)
    d *= -0.5
    return np.exp(d, out=d)


def empirical_density(pts: np.ndarray, grid: Grid2D) -> DensityField:
    """Gaussian KDE of the (n, 2) particle positions ``pts``, renormalized
    on the grid.

    The bandwidth is Silverman's rule per axis. The kernel is a product
    over the axes, exp(-(d1^2 + d2^2)/2) = exp(-d1^2/2) exp(-d2^2/2), so the
    sum over particles at every node is E1 @ E2.T with E_i the (n_i,
    particles) kernel factor on axis i: n (n1 + n2) exponentials and one
    matrix product. Returns a DensityField, so the usual invariants
    (nonnegative, unit trapezoidal mass) hold.
    """
    if pts.shape[0] == 0:
        raise ConfigurationError("ensemble is empty")
    bw = _silverman(pts, floor=1e-3 * min(grid.dx1, grid.dx2))
    vals = (_axis_kernel(grid.x1, pts[:, 0], bw[0])
            @ _axis_kernel(grid.x2, pts[:, 1], bw[1]).T)
    mass = grid.integrate(vals)
    if not mass > 0.0:
        raise ConfigurationError(
            "every kernel value underflowed at bandwidth h=(%g, %g): the "
            "particles coincide" % (bw[0], bw[1]))
    vals /= mass
    return DensityField(grid, vals)

