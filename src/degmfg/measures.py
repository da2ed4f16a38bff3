"""Kantorovich-Rubinstein (W1) distance machinery.

Three routes with different trust/speed trade-offs:
  * wasserstein1_exact      -- discrete optimal transport LP (HiGHS), solved by
                               column generation; GridDistance applies it to
                               coarsened slices as the Picard stopping metric
  * mincost_flow_reference  -- independent network-simplex oracle (integerized)
  * wasserstein1_sinkhorn   -- log-domain entropic solver with reg annealing,
                               for supports too large for the LP; the returned
                               plan is rounded to the feasible polytope, so
                               the biased value never undershoots the exact one

The ground cost is the Euclidean distance |x - y|, matching the d1 metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import networkx as nx
from scipy import sparse
from scipy.optimize import linprog

from .errors import ConfigurationError, SolverError
from .grid import DensityField, DensityPath

MAX_LP_NODES = 4096
SUPPORT_EPS = 1e-15
LP_CANDIDATES = 8      # nearest partners per source and per sink, first LP
LP_PRICING_TOL = 1e-9  # a pair enters once its reduced cost is below -tol
SINKHORN_REG_FACTOR = 3e-3  # default entropic reg, times the grid diameter


def _node_support(grid, values, eps=SUPPORT_EPS):
    """(points, weights) of the node masses W * values, zero-mass nodes dropped."""
    x1g, x2g = grid.meshgrid()
    w = grid.cell_weights() * values
    keep = w > eps * w.max()
    pts = np.stack([x1g[keep], x2g[keep]], axis=1)
    wt = w[keep]
    return pts, wt / wt.sum()


def density_support(m: DensityField, eps: float = SUPPORT_EPS):
    """(points, weights) of the grid measure, zero-mass nodes dropped."""
    return _node_support(m.grid, m.values, eps)


def _cost_matrix(xs, ys):
    d = xs[:, None, :] - ys[None, :, :]
    return np.sqrt(np.sum(d * d, axis=2))


def wasserstein1_exact(mu: DensityField, nu: DensityField) -> float:
    """Exact W1 between two grid measures via the transport LP."""
    if mu.grid != nu.grid:
        raise ConfigurationError("wasserstein1_exact requires identical grids")
    if mu.grid.n_nodes > MAX_LP_NODES:
        raise ConfigurationError(
            "grid has %d nodes > %d; coarsen the measures or use "
            "wasserstein1_sinkhorn" % (mu.grid.n_nodes, MAX_LP_NODES))
    xs, a = density_support(mu)
    ys, b = density_support(nu)
    return _transport_lp(xs, a, ys, b)[0]


def wasserstein1_points(xs, a, ys, b) -> float:
    """Exact W1 between weighted point clouds via the transport LP."""
    if len(a) * len(b) > MAX_LP_NODES ** 2:
        raise ConfigurationError("point clouds too large for the exact LP")
    return _transport_lp(xs, np.asarray(a, float), ys, np.asarray(b, float))[0]


def _northwest_corner(a, b):
    """Cells (i, j) of the north-west-corner plan, a feasible basis.

    Lays both marginals end to end on [0, 1]; every piece between two
    consecutive breakpoints of the cumulative sums is one cell.
    """
    ca, cb = np.cumsum(a)[:-1], np.cumsum(b)[:-1]
    starts = np.concatenate([[0.0], np.union1d(ca, cb)])
    return (np.searchsorted(ca, starts, side="right"),
            np.searchsorted(cb, starts, side="right"))


def _restricted_lp(cost, a, b, rows, cols):
    """Transport LP over the pairs (rows, cols) only; the HiGHS result."""
    n, m = len(a), len(b)
    var = np.arange(len(rows))
    # row-marginal constraints, then column marginals (last one redundant)
    A = sparse.coo_matrix(
        (np.ones(2 * len(var)),
         (np.concatenate([rows, n + cols]), np.concatenate([var, var]))),
        shape=(n + m, len(var))).tocsr()[:-1]
    rhs = np.concatenate([a, b])[:-1]
    # HiGHS presolve has declared feasible transport LPs (two coarsened
    # Gaussians with ~150 support points each) infeasible; the transport
    # polytope is never empty, so solve without it
    res = linprog(cost[rows, cols], A_eq=A, b_eq=rhs, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if not res.success:
        raise SolverError("transport LP failed: %s" % res.message)
    return res


def _transport_lp(xs, a, ys, b):
    """Exact transport LP by column generation; returns (value, rounds).

    Solves on a sparse candidate set (the nearest partners of every source
    and sink, plus the north-west-corner cells, which make it feasible),
    prices all n*m pairs with the duals of that solve and adds every pair
    of negative reduced cost. When none is left the restricted optimum is
    the optimum of the full LP, by LP duality.
    """
    n, m = len(a), len(b)
    cost = _cost_matrix(xs, ys)
    near_b = np.argpartition(cost, min(LP_CANDIDATES, m) - 1, axis=1)
    near_a = np.argpartition(cost, min(LP_CANDIDATES, n) - 1, axis=0)
    cand = np.zeros((n, m), dtype=bool)
    cand[np.arange(n)[:, None], near_b[:, :LP_CANDIDATES]] = True
    cand[near_a[:LP_CANDIDATES], np.arange(m)] = True
    cand[_northwest_corner(a, b)] = True
    rounds = 0
    while True:
        rows, cols = np.nonzero(cand)
        res = _restricted_lp(cost, a, b, rows, cols)
        rounds += 1
        duals = np.append(res.eqlin.marginals, 0.0)
        enter = cost - duals[:n, None] - duals[None, n:] < -LP_PRICING_TOL
        enter &= ~cand
        if not enter.any():
            return float(res.fun), rounds
        cand |= enter


def mincost_flow_reference(mu: DensityField, nu: DensityField,
                           scale: int = 10 ** 12) -> float:
    """Independent W1 oracle: integerized min-cost flow via network simplex.

    Masses and costs are scaled to integers (mass by scale*1e3, cost by
    scale); the induced value error is far below 1e-9 for unit-diameter-ish
    problems, so this is a trustworthy cross-check of the LP route.
    """
    xs, a = density_support(mu)
    ys, b = density_support(nu)
    mass_scale = scale * 1000
    ai = np.round(a * mass_scale).astype(object)
    bi = np.round(b * mass_scale).astype(object)
    # repair rounding so supplies and demands balance exactly
    ai[int(np.argmax(a))] += int(mass_scale) - int(ai.sum())
    bi[int(np.argmax(b))] += int(mass_scale) - int(bi.sum())
    g = nx.DiGraph()
    for i, s in enumerate(ai):
        g.add_node(("s", i), demand=-int(s))
    for j, d in enumerate(bi):
        g.add_node(("t", j), demand=int(d))
    cost = _cost_matrix(xs, ys)
    for i in range(len(ai)):
        for j in range(len(bi)):
            g.add_edge(("s", i), ("t", j), weight=int(round(cost[i, j] * scale)))
    flow_cost, _ = nx.network_simplex(g)
    return flow_cost / (scale * float(mass_scale))


@dataclass
class SinkhornResult:
    value: float            # transport cost of the rounded (feasible) plan
    debiased: float         # value minus the self-transport bias estimate
    reg: float
    iterations: int
    marginal_error: float


def _lse(m, axis):
    """Bare-bones logsumexp (no masking overhead; inputs are finite)."""
    mx = np.max(m, axis=axis, keepdims=True)
    out = mx.squeeze(axis) + np.log(np.sum(np.exp(m - mx), axis=axis))
    return out


def _sinkhorn_potentials(cost, log_a, log_b, reg, iters, f, g, tol):
    it = 0
    err = np.inf
    a = np.exp(log_a)
    for _ in range(iters):
        f = -reg * _lse((g[None, :] - cost) / reg + log_b[None, :], axis=1)
        g = -reg * _lse((f[:, None] - cost) / reg + log_a[:, None], axis=0)
        it += 1
        if it % 5 == 0 or it == iters:
            log_p = (f[:, None] + g[None, :] - cost) / reg \
                + log_a[:, None] + log_b[None, :]
            row = np.exp(_lse(log_p, axis=1))
            err = np.abs(row - a).sum()
            if err < tol:
                break
    return f, g, it, err


def _round_to_feasible(p, a, b):
    """Altschuler et al. rounding of an approximate plan onto U(a, b)."""
    row = p.sum(axis=1)
    p = p * np.minimum(1.0, a / np.maximum(row, 1e-300))[:, None]
    col = p.sum(axis=0)
    p = p * np.minimum(1.0, b / np.maximum(col, 1e-300))[None, :]
    ra = a - p.sum(axis=1)
    rb = b - p.sum(axis=0)
    s = ra.sum()
    if s > 1e-300:
        p = p + np.outer(ra, rb) / s
    return p


def sinkhorn_points(xs, a, ys, b, reg, iters=2500, tol=1e-5, debias=True):
    """Entropic OT between weighted point clouds, log domain, reg annealing.

    ``iters`` caps the sweeps at the final regularization level; earlier
    annealing levels get short warm-up sweeps. The plan is always rounded
    onto the feasible polytope, so a residual marginal error only perturbs
    the value by err * diameter; errors above 5e-2 abort.
    """
    if reg <= 0:
        raise ConfigurationError("sinkhorn regularization must be > 0")
    cost = _cost_matrix(xs, ys)
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    total_it = 0
    schedule = []
    r = max(cost.max() / 4.0, reg)
    while r > reg * 1.5:
        schedule.append(r)
        r /= 2.5
    schedule.append(reg)
    for k, r in enumerate(schedule):
        sweep = iters if k == len(schedule) - 1 else 40
        f, g, it, err = _sinkhorn_potentials(cost, log_a, log_b, r, sweep, f, g, tol)
        total_it += it
    if not np.isfinite(err) or err > 5e-2:
        raise SolverError(
            "sinkhorn scaling did not converge: marginal violation %.3g" % err)
    log_p = (f[:, None] + g[None, :] - cost) / reg + log_a[:, None] + log_b[None, :]
    plan = _round_to_feasible(np.exp(log_p), a, b)
    value = float(np.sum(plan * cost))
    bias = 0.0
    if debias:
        bias = 0.5 * (_self_transport(xs, a, reg, iters, tol)
                      + _self_transport(ys, b, reg, iters, tol))
    return SinkhornResult(value=value, debiased=max(value - bias, 0.0), reg=reg,
                          iterations=total_it, marginal_error=float(err))


def _self_transport(xs, a, reg, iters, tol):
    cost = _cost_matrix(xs, xs)
    log_a = np.log(a)
    f = np.zeros(len(a))
    f, g, _, _ = _sinkhorn_potentials(cost, log_a, log_a, reg, iters, f, f.copy(), tol)
    log_p = (f[:, None] + g[None, :] - cost) / reg + log_a[:, None] + log_a[None, :]
    plan = _round_to_feasible(np.exp(log_p), a, a)
    return float(np.sum(plan * cost))


def wasserstein1_sinkhorn(mu: DensityField, nu: DensityField, reg: float,
                          iters: int = 2500) -> SinkhornResult:
    """Entropic-regularized W1 surrogate; bias is O(reg * log n)."""
    xs, a = density_support(mu)
    ys, b = density_support(nu)
    return sinkhorn_points(xs, a, ys, b, reg, iters=iters)


class GridDistance:
    """Exact d1 between density slices on a common grid.

    Coarsens to at most ``max_points`` support points (block aggregation,
    mass preserving) and solves the transport LP between the coarsened
    measures; the value feeds fixed-point stopping rules.
    """

    def __init__(self, grid, max_points=320):
        self.grid = grid
        self.block = 1
        n = grid.n_nodes
        while n // (self.block * self.block) > max_points:
            self.block += 1

    def coarsen(self, values: np.ndarray):
        """Aggregate node masses onto block representative points."""
        b = self.block
        if b == 1:
            return _node_support(self.grid, values)
        w = self.grid.cell_weights() * values
        n1, n2 = self.grid.shape
        k1, k2 = -(-n1 // b), -(-n2 // b)
        wp = np.zeros((k1 * b, k2 * b))
        wp[:n1, :n2] = w
        xw = np.zeros_like(wp)
        yw = np.zeros_like(wp)
        x1g, x2g = self.grid.meshgrid()
        xw[:n1, :n2] = w * x1g
        yw[:n1, :n2] = w * x2g
        wb = wp.reshape(k1, b, k2, b).sum(axis=(1, 3))
        xb = xw.reshape(k1, b, k2, b).sum(axis=(1, 3))
        yb = yw.reshape(k1, b, k2, b).sum(axis=(1, 3))
        keep = wb > SUPPORT_EPS * wb.max()
        wt = wb[keep]
        pts = np.stack([xb[keep] / wt, yb[keep] / wt], axis=1)
        return pts, wt / wt.sum()

    def distance(self, a_values: np.ndarray, b_values: np.ndarray) -> float:
        if np.array_equal(a_values, b_values):
            return 0.0
        xs, a = self.coarsen(a_values)
        ys, b = self.coarsen(b_values)
        return wasserstein1_points(xs, a, ys, b)


@dataclass
class HolderEstimate:
    slope: float        # fitted log-log slope of d1 vs |s - t|, nan if degenerate
    max_ratio: float    # max over pairs of d1 / |s - t|^(1/2)
    n_pairs: int


def holder_halftime_estimate(path: DensityPath, distance=None) -> HolderEstimate:
    """Time-Holder estimator for a density path over dyadic time pairs."""
    nt = path.nt
    if distance is None:
        distance = GridDistance(path.grid).distance
    pairs = []
    lag = 1
    while lag <= nt - 1:
        pairs.append((0, lag))
        pairs.append((nt - 1 - lag, nt - 1))
        lag *= 2
    pairs = sorted(set(pairs))
    if len(pairs) < 4:
        raise ConfigurationError(
            "holder estimator needs >= 4 usable time pairs, got %d" % len(pairs))
    gaps, dists = [], []
    for i, j in pairs:
        d = distance(path.values[i], path.values[j])
        gaps.append((j - i) * path.dt)
        dists.append(d)
    gaps = np.array(gaps)
    dists = np.array(dists)
    ratio = float(np.max(dists / np.sqrt(gaps)))
    usable = dists > 1e-12
    if usable.sum() < 2:
        return HolderEstimate(slope=float("nan"), max_ratio=ratio, n_pairs=len(pairs))
    slope = float(np.polyfit(np.log(gaps[usable]), np.log(dists[usable]), 1)[0])
    return HolderEstimate(slope=slope, max_ratio=ratio, n_pairs=len(pairs))
