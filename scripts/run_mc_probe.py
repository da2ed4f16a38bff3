#!/usr/bin/env python3
"""Monte Carlo cross-validation experiment.

Solves the coupled system from a config, then compares the Monte Carlo
value estimate against the PDE value at a grid of probe points. Writes a
CSV: x1, x2, mc_mean, mc_stderr, pde_value, abs_diff.
"""

import argparse
import csv
import dataclasses
import sys

from degmfg import sde
from degmfg.config import load_config
from degmfg.fixed_point import picard_solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default="mc_probe.csv")
    ap.add_argument("--n", type=int, default=None,
                    help="particles per probe (default: config mc.n_particles)")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.n is not None:
        cfg = dataclasses.replace(
            cfg, mc=dataclasses.replace(cfg.mc, n_particles=args.n))
    sol = picard_solve(cfg.make_dynamics(), cfg.make_coupling(),
                       cfg.make_initial_density(), cfg.make_hjb_config(),
                       cfg.make_fixed_point())
    if not sol.converged:
        print("solver did not converge", file=sys.stderr)
        return 3
    grid = sol.u.grid
    probes = [(grid.n1 // 2, grid.n2 // 2),
              (grid.n1 // 4, grid.n2 // 2),
              (3 * grid.n1 // 4, grid.n2 // 2),
              (grid.n1 // 2, grid.n2 // 4),
              (grid.n1 // 2, 3 * grid.n2 // 4)]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "mc_mean", "mc_stderr", "pde_value",
                    "abs_diff"])
        for i1, i2 in probes:
            x0 = (float(grid.x1[i1]), float(grid.x2[i2]))
            est = sde.mc_value(cfg.make_dynamics(), cfg.make_coupling(),
                               sol.m, sol.u, x0, 0.0, cfg.make_ensemble())
            pde = float(sol.u.values[0, i1, i2])
            w.writerow([x0[0], x0[1], est.mean, est.std_error, pde,
                        abs(est.mean - pde)])
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
