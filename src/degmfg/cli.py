"""Command-line entry point tying solvers, sweeps, MC validation, and the
verification suite into reproducible runs.

Subcommands: solve-hjb, solve-fpe, solve-mfg, sweep-eps, mc-validate, w1,
verify, run, export. A command builds one RunConfig and hands only that
object on: a command-line override (mc-validate's --n and --seed) or a
sweep level (sweep-eps's last epsilon) is an edit of it, so the config a
run directory's config.json records is the one its fields were solved
with. The solving subcommands write a run directory holding each path as
one binary file, u/path.npy and m/path.npy; export writes their slices
beside them as field CSVs, the input format of w1 and of solve-hjb
--m-path. Exit codes: 0 success, 1 property failure, 2 configuration
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import io as dio
from . import sde
from .config import RunConfig, load_config, parse_section
from .errors import ConfigurationError, SolverError
from .fixed_point import eps_sweep, picard_solve
from .fpe import FpeReport, solve_fpe_forward
from .grid import DensityField, DensityPath, Stencil, constant_path
from .hjb import solve_hjb_backward
from .measures import SINKHORN_REG_FACTOR, GridDistance, sinkhorn_points, \
    wasserstein1_points
from .operators import sup_norm
from .verify import VerifyThresholds, ae_residual_report, lipschitz_estimate, \
    property_checks, report_to_dict

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True, default=dio.json_default))


def _write_run(out, cfg: RunConfig, u, m, summary: dict):
    """Save the run directory of ``cfg``'s fields, then print its summary."""
    dio.save_run(out, cfg, u, m, summary)
    _print_json(summary)


def _load_m_path(args, cfg: RunConfig) -> DensityPath:
    """Density path for the HJB stage: a CSV slice held constant in time,
    or the config's initial density if no CSV is given."""
    hjb_cfg = cfg.make_hjb_config()
    if getattr(args, "m_path", None):
        grid, values = dio.read_field_csv(args.m_path)
        if grid != cfg.make_grid():
            raise ConfigurationError("--m-path grid does not match the config")
        m0 = DensityField(grid, values)
    else:
        m0 = cfg.make_initial_density()
    return constant_path(m0, hjb_cfg.dt, hjb_cfg.nt)


def _cmd_solve_hjb(args) -> int:
    cfg = load_config(args.config)
    dyn = cfg.make_dynamics()
    coupling = cfg.make_coupling()
    hjb_cfg = cfg.make_hjb_config()
    m_path = _load_m_path(args, cfg)
    u = solve_hjb_backward(dyn, coupling, m_path, hjb_cfg)
    rep = ae_residual_report(u, dyn, coupling, m_path)
    summary = {
        "sup_norm": sup_norm(u.values),
        "lipschitz_estimate": lipschitz_estimate(u.values[0], u.grid),
        "residual_median": rep.quantiles[0],
    }
    _write_run(args.out or cfg.output_dir, cfg, u, m_path, summary)
    return EXIT_OK


def _cmd_solve_fpe(args) -> int:
    cfg = load_config(args.config)
    dyn = cfg.make_dynamics()
    coupling = cfg.make_coupling()
    hjb_cfg = cfg.make_hjb_config()
    m_path0 = _load_m_path(args, cfg)
    u = solve_hjb_backward(dyn, coupling, m_path0, hjb_cfg)
    report = FpeReport()
    m = solve_fpe_forward(m_path0.slice(0), u, dyn, hjb_cfg, report=report)
    summary = {
        "mass_drift_max": report.mass_drift_max,
        "min_density": report.min_density,
        "second_moments": [m.grid.second_moment(v) for v in m.values],
    }
    _write_run(args.out or cfg.output_dir, cfg, u, m, summary)
    return EXIT_OK


def _solve_mfg(cfg: RunConfig):
    sol = picard_solve(cfg.make_dynamics(), cfg.make_coupling(),
                       cfg.make_initial_density(), cfg.make_hjb_config(),
                       cfg.make_fixed_point())
    if not sol.converged:
        raise SolverError("Picard iteration did not converge within %d "
                          "iterations (last residual %g)"
                          % (sol.iterations, sol.residual_history[-1]))
    return sol


def _picard_summary(sol) -> dict:
    """The record of a converged Picard solve, as solve-mfg and run write it."""
    return {
        "converged": sol.converged,
        "iters": sol.iterations,
        "residuals": [float(r) for r in sol.residual_history],
        "steps": sol.steps,
        "epsilon": sol.epsilon,
        "lp_residual": sol.lp_residual,
    }


def _cmd_solve_mfg(args) -> int:
    cfg = load_config(args.config)
    sol = _solve_mfg(cfg)
    _write_run(args.out or cfg.output_dir, cfg, sol.u, sol.m,
               _picard_summary(sol))
    return EXIT_OK


def _cmd_sweep_eps(args) -> int:
    cfg = load_config(args.config)
    res = eps_sweep(cfg.make_dynamics(), cfg.make_coupling(),
                    cfg.make_initial_density(), cfg.make_hjb_config(),
                    cfg.make_fixed_point())
    summary = {
        "converged": not res.aborted,
        "iters": [lv.solution.iterations for lv in res.levels],
        "residuals": [[float(r) for r in lv.solution.residual_history]
                      for lv in res.levels],
        "steps": [lv.solution.steps for lv in res.levels],
        "eps_deltas": [float(d) for d in res.sup_norm_deltas],
        "d1_deltas": [float(d) for d in res.d1_deltas],
        "eps_levels": [lv.epsilon for lv in res.levels],
    }
    last = res.levels[-1]
    # the fields saved are the last level's: so is the config saved with them
    _write_run(args.out or cfg.output_dir,
               replace(cfg, dynamics=replace(cfg.dynamics,
                                             epsilon=last.epsilon)),
               last.solution.u, last.solution.m, summary)
    if res.aborted:
        raise SolverError("eps sweep aborted at eps=%g" % last.epsilon)
    return EXIT_OK


def _start_point(text: str, grid) -> tuple:
    """The point 'x1,x2' given to --x0; it must lie in the grid's box."""
    try:
        x0 = tuple(float(v) for v in text.split(","))
    except ValueError:
        x0 = ()
    if len(x0) != 2:
        raise ConfigurationError("--x0 must be 'x1,x2', got %r" % text)
    if not (grid.x1_min <= x0[0] <= grid.x1_max
            and grid.x2_min <= x0[1] <= grid.x2_max):
        raise ConfigurationError(
            "--x0=%s lies outside the box [%g, %g] x [%g, %g]"
            % (text, grid.x1_min, grid.x1_max, grid.x2_min, grid.x2_max))
    return x0


def _mc_summary(cfg: RunConfig, sol, x0, t0: float) -> dict:
    """Monte Carlo estimate of u(x0, t0), with the ensemble of ``cfg.mc``,
    against the PDE value at x0: the bilinear interpolant of the time slice
    nearest t0."""
    est = sde.mc_value(cfg.make_dynamics(), cfg.make_coupling(),
                       sol.m, sol.u, x0, t0, cfg.make_ensemble())
    at = Stencil(sol.u.grid, np.array([x0], dtype=float))
    pde_value = float(at.gather(
        sol.u.values[int(round(t0 / sol.u.dt))].ravel())[0])
    return {
        "mc_mean": est.mean,
        "mc_stderr": est.std_error,
        "pde_value": pde_value,
        "abs_diff": abs(est.mean - pde_value),
        "pass": est.agrees_with(pde_value),
    }


def _cmd_mc_validate(args) -> int:
    cfg = load_config(args.config)
    x0 = _start_point(args.x0, cfg.make_grid())
    given = {"n_particles": args.n, "seed": args.seed}
    cfg = replace(cfg, mc=replace(cfg.mc, **{
        key: value for key, value in given.items() if value is not None}))
    sde.step_count(cfg.time.T, cfg.time.dt, x0, args.t0, cfg.mc)
    summary = _mc_summary(cfg, _solve_mfg(cfg), x0, args.t0)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dio.write_json(os.path.join(args.out, "mc_validate.json"), summary)
    _print_json(summary)
    return EXIT_OK if summary["pass"] else EXIT_PROPERTY


def _cmd_w1(args) -> int:
    if args.reg is not None and not args.sinkhorn:
        raise ConfigurationError("--reg is read only with --sinkhorn")
    ga, va = dio.read_field_csv(args.a)
    gb, vb = dio.read_field_csv(args.b)
    da, db = DensityField(ga, va), DensityField(gb, vb)
    xs, wa = GridDistance(ga, max_points=args.max_points).coarsen(da.values)
    ys, wb = GridDistance(gb, max_points=args.max_points).coarsen(db.values)
    if args.sinkhorn:
        reg = SINKHORN_REG_FACTOR * ga.diameter if args.reg is None \
            else args.reg
        value = sinkhorn_points(xs, wa, ys, wb, reg=reg, debias=False).value
    else:
        value = wasserstein1_points(xs, wa, ys, wb)
    print("%.12g" % value)
    return EXIT_OK


def _cmd_verify(args) -> int:
    thresholds = None
    if args.tol_file:
        thresholds = parse_section("tol-file", VerifyThresholds(),
                                   dio.read_json(args.tol_file))
    u, m, dyn, coupling = dio.load_run(args.run)
    report = report_to_dict(property_checks(u, m, dyn, coupling, thresholds))
    out = args.out or args.run
    os.makedirs(out, exist_ok=True)
    dio.write_json(os.path.join(out, "verify.json"), report)
    _print_json(report)
    return EXIT_OK if report["passed"] else EXIT_PROPERTY


def _cmd_export(args) -> int:
    dio.export_run(args.run)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = args.out or cfg.output_dir
    with open(args.config, "rb") as fh:
        cfg_hash = hashlib.sha256(fh.read()).hexdigest()
    timings = {}
    t0 = time.monotonic()
    sol = _solve_mfg(cfg)
    timings["solve_mfg"] = time.monotonic() - t0
    mfg_summary = _picard_summary(sol)
    t0 = time.monotonic()
    dio.save_run(out, cfg, sol.u, sol.m, mfg_summary)
    timings["save_run"] = time.monotonic() - t0

    t0 = time.monotonic()
    grid = sol.u.grid
    # off centre, clamped to the interior nodes 1..n-2: never on a wall
    x0 = (grid.x1[min(grid.n1 // 2 + 2, grid.n1 - 2)],
          grid.x2[max(grid.n2 // 2 - 2, 1)])
    mc_summary = _mc_summary(cfg, sol, x0, 0.0)
    timings["mc_validate"] = time.monotonic() - t0

    t0 = time.monotonic()
    verify_report = report_to_dict(property_checks(
        sol.u, sol.m, cfg.make_dynamics(), cfg.make_coupling()))
    timings["verify"] = time.monotonic() - t0

    all_passed = bool(mc_summary["pass"] and verify_report["passed"])
    run_summary = {
        "config_hash": cfg_hash,
        "timings": timings,
        "solve_mfg": mfg_summary,
        "mc_validate": mc_summary,
        "verify": verify_report,
        "all_passed": all_passed,
    }
    dio.write_json(os.path.join(out, "run_summary.json"), run_summary)
    _print_json({"all_passed": all_passed, "config_hash": cfg_hash})
    return EXIT_OK if all_passed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degmfg",
        description="Degenerate mean-field-game numerical laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("solve-hjb", _cmd_solve_hjb,
             help="solve the backward value equation for a frozen density")
    sp.add_argument("--config", required=True)
    sp.add_argument("--m-path", default=None,
                    help="density CSV held constant in time")
    sp.add_argument("--out", default=None)

    sp = add("solve-fpe", _cmd_solve_fpe,
             help="solve the forward density equation under the feedback")
    sp.add_argument("--config", required=True)
    sp.add_argument("--m-path", default=None)
    sp.add_argument("--out", default=None)

    sp = add("solve-mfg", _cmd_solve_mfg,
             help="Picard fixed point: full steps, theta damping as fallback")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)

    sp = add("sweep-eps", _cmd_sweep_eps,
             help="vanishing-viscosity sweep along the config schedule")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)

    sp = add("mc-validate", _cmd_mc_validate,
             help="Monte Carlo estimate of the value vs the PDE solution")
    sp.add_argument("--config", required=True)
    sp.add_argument("--x0", required=True, help="start point 'x1,x2'")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)

    sp = add("w1", _cmd_w1, help="Wasserstein-1 distance between two fields")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--sinkhorn", action="store_true",
                    help="entropic estimate instead of the exact LP")
    sp.add_argument("--reg", type=float, default=None,
                    help="Sinkhorn regularization, with --sinkhorn only")
    sp.add_argument("--max-points", type=int, default=320)

    sp = add("verify", _cmd_verify,
             help="run the property suite on a finished run directory")
    sp.add_argument("--run", required=True)
    sp.add_argument("--tol-file", default=None)
    sp.add_argument("--out", default=None)

    sp = add("run", _cmd_run, help="full pipeline: solve, validate, verify")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)

    sp = add("export", _cmd_export,
             help="write the u/ and m/ slices of a run directory as CSVs")
    sp.add_argument("--run", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
