"""Kantorovich-Rubinstein (W1) distance machinery.

Two routes between weighted point clouds:
  * wasserstein1_points -- the discrete optimal transport LP, solved by
                           column generation; GridDistance applies it to
                           coarsened slices as the Picard stopping metric.
                           Each pricing round is one column-wise HiGHS model
                           (dual simplex, presolve off) passed straight to
                           the bindings scipy ships, scipy.optimize._highspy;
                           this is the one module that imports them
  * sinkhorn_points     -- log-domain entropic solver with reg annealing,
                           for supports too large for the LP; the returned
                           plan is rounded to the feasible polytope, so the
                           biased value never undershoots the exact one

GridDistance.coarsen turns a density slice into such a cloud, by block
aggregation for every block size: each block's mass sits at the block's
centre of mass, so at block size 1 (max_points >= n_nodes) every node of
positive mass is a point. The ground cost is the Euclidean distance
|x - y|, matching the d1 metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the HiGHS build linprog(method="highs") runs, called without linprog's
# input parsing and its per-column Python loop over bound duals
from scipy.optimize._highspy import _core as _highs

from .errors import ConfigurationError, SolverError
from .grid import DensityPath

MAX_LP_NODES = 4096
SUPPORT_EPS = 1e-15
LP_CANDIDATES = 8      # nearest partners per source and per sink, first LP
LP_PRICING_TOL = 1e-9  # a pair enters once its reduced cost is below -tol
SINKHORN_REG_FACTOR = 3e-3  # default entropic reg, times the grid diameter


def _cost_matrix(xs, ys):
    d = xs[:, None, :] - ys[None, :, :]
    return np.sqrt(np.sum(d * d, axis=2))


def wasserstein1_points(xs, a, ys, b) -> float:
    """Exact W1 between weighted point clouds via the transport LP."""
    if len(a) * len(b) > MAX_LP_NODES ** 2:
        raise ConfigurationError("point clouds too large for the exact LP")
    a, b = np.asarray(a, float), np.asarray(b, float)
    if not all(np.isfinite(v).all() for v in (xs, a, ys, b)):
        raise ConfigurationError("point clouds must be finite")
    return _transport_lp(xs, a, ys, b)[0]


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
    """Transport LP over the pairs (rows, cols) only: (optimum, row duals).

    One HiGHS model, column-wise: pair k has a 1 in source row rows[k] and
    in sink row n + cols[k]. The last sink row is implied by the others and
    left out, so the dual of a kept row is the one HiGHS returns and the
    dropped row's dual is 0.
    """
    n, m, k = len(a), len(b), len(rows)
    entries = np.stack([rows, n + cols], axis=1)
    kept = entries < n + m - 1
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = k
    lp.num_row_ = lp.a_matrix_.num_row_ = n + m - 1
    lp.col_cost_ = cost[rows, cols]
    lp.col_lower_ = np.zeros(k)
    lp.col_upper_ = np.full(k, _highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = np.concatenate([a, b[:-1]])
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    lp.a_matrix_.index_ = entries[kept]
    lp.a_matrix_.value_ = np.ones(kept.sum())
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    # HiGHS presolve has declared feasible transport LPs (two coarsened
    # Gaussians with ~150 support points each) infeasible; the transport
    # polytope is never empty, so solve without it
    highs.setOptionValue("presolve", "off")
    # after refusing a model (a NaN weight) HiGHS still runs and reports
    # an optimum of whatever it holds
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError("transport LP not solved: HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverError("transport LP not solved: HiGHS model status %s"
                          % highs.modelStatusToString(status))
    return (highs.getInfo().objective_function_value,
            np.array(highs.getSolution().row_dual))


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
        value, duals = _restricted_lp(cost, a, b, rows, cols)
        rounds += 1
        duals = np.append(duals, 0.0)
        enter = cost - duals[:n, None] - duals[None, n:] < -LP_PRICING_TOL
        enter &= ~cand
        if not enter.any():
            return value, rounds
        cand |= enter


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


class GridDistance:
    """Exact d1 between density slices on a common grid.

    Coarsens to at most ``max_points`` support points (block aggregation,
    mass preserving) and solves the transport LP between the coarsened
    measures; the value feeds fixed-point stopping rules.
    """

    def __init__(self, grid, max_points=320):
        if max_points < 1:
            raise ConfigurationError(
                "max_points must be >= 1 (got %d)" % max_points)
        self.grid = grid
        self.block = 1
        n = grid.n_nodes
        while n // (self.block * self.block) > max_points:
            self.block += 1

    def coarsen(self, values: np.ndarray):
        """(points, weights) of the slice's block masses, each at its
        block's centre of mass; blocks of no mass are dropped."""
        b = self.block
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


def holder_halftime_estimate(path: DensityPath) -> HolderEstimate:
    """Time-Holder estimator for a density path over dyadic time pairs,
    with the ``GridDistance`` of the path's grid."""
    nt = path.nt
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
