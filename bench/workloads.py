"""The three benchmark workloads.

Each workload has a ``setup`` that reads and validates its config and
builds every input the timed pass needs, and a ``run_pass`` that does the
timed work and returns ``(seconds, record)``. The record holds the pass's
checks (``problems`` is empty when every check held) and its accuracy
numbers. All inputs come from ``configs/grushin_default.json`` plus the
workload seed, which drives only the Monte Carlo seed and the particle
sampling; the PDE inputs do not depend on it.

Solver functions are looked up on their modules at call time
(``hjb.solve_hjb_backward``, not a name imported once), so the traced run
sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

from degmfg import cli, config, fpe, hjb, sde, verify
from degmfg import io as dio
from degmfg.grid import DensityPath

BASE_CONFIG = os.path.join("configs", "grushin_default.json")
MC_PARTICLES = 10_000
MC_TOLERANCE = 0.05       # pass rule of `degmfg run`: |mean - u| <= 3*stderr + 0.05
KDE_L1_TOLERANCE = 0.2    # KDE of the simulated particles vs the FPE density at T
MASS_DRIFT_MAX = 1e-8


def load_sized_config(root, n=None, nt=None):
    """Parse and validate grushin_default, optionally at another size.

    The SDE step is set to the time mesh, the finest the config allows.
    """
    with open(os.path.join(root, BASE_CONFIG), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if n is not None:
        raw["grid"]["n1"] = raw["grid"]["n2"] = n
        raw["time"]["nt"] = nt
        raw["mc"]["dt_sde"] = raw["time"]["T"] / (nt - 1)
    return config.parse_config(json.dumps(raw))


def frozen_path(m0, hjb_cfg):
    """The initial density held constant over the time mesh."""
    return DensityPath(m0.grid, hjb_cfg.dt,
                       np.repeat(m0.values[None], hjb_cfg.nt, axis=0),
                       validate_slices=False)


def tree_digest(run_dir, subdirs=("u", "m")):
    """sha256 over the names and bytes of every field dump."""
    h = hashlib.sha256()
    for sub in subdirs:
        for name in sorted(os.listdir(os.path.join(run_dir, sub))):
            h.update(("%s/%s\n" % (sub, name)).encode())
            with open(os.path.join(run_dir, sub, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Workload:
    name = ""
    setup_repeats = 5

    def __init__(self, root, seed, out_dir):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        """Build the inputs; returns the seconds spent in config loading."""
        raise NotImplementedError

    def run_pass(self, index):
        raise NotImplementedError

    def _run_dir(self, index):
        return os.path.join(self.out_dir, "pass%d" % index)


class MfgRun32(Workload):
    """`degmfg run` on grushin_default (32^2, nt=64), called in process."""

    name = "mfg_run_32"

    def setup(self):
        t0 = time.perf_counter()
        cfg = load_sized_config(self.root)
        load_s = time.perf_counter() - t0
        # `degmfg run` builds these again inside the pass; they are built here
        # so that setup_s covers the same steps in every workload
        cfg.make_grid(), cfg.make_dynamics(), cfg.make_coupling()
        cfg.make_initial_density()
        seeded = dataclasses.replace(
            cfg, mc=dataclasses.replace(cfg.mc, seed=self.seed))
        self.config_path = os.path.join(self.out_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config.serialize_config(seeded))
        self.first_digest = None
        return load_s

    def run_pass(self, index):
        run_dir = self._run_dir(index)
        argv = ["run", "--config", self.config_path, "--out", run_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        problems = []
        if code != 0:
            problems.append("exit code %d" % code)
        record = {"exit_code": code}
        summary_path = os.path.join(run_dir, "run_summary.json")
        if os.path.exists(summary_path):
            summary = dio.read_json(summary_path)
            mfg, mc = summary["solve_mfg"], summary["mc_validate"]
            if not mfg["converged"]:
                problems.append("Picard iteration did not converge")
            if not summary["all_passed"]:
                problems.append("run_summary.json all_passed is false")
            digest = tree_digest(run_dir)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("u/ and m/ dumps differ from the first pass")
            record.update(picard_iters=mfg["iters"],
                          residual_history=mfg["residuals"],
                          mc_abs_diff=mc["abs_diff"], mc_stderr=mc["mc_stderr"],
                          dumps_sha256=digest)
        else:
            problems.append("run_summary.json missing")
        shutil.rmtree(run_dir, ignore_errors=True)
        record["problems"] = problems
        return seconds, record


class MarchEps128(Workload):
    """Vanishing-viscosity march with the density frozen, 128^2, nt=256."""

    name = "march_eps_128"

    def setup(self):
        t0 = time.perf_counter()
        cfg = load_sized_config(self.root, n=128, nt=256)
        load_s = time.perf_counter() - t0
        self.hjb_cfg = cfg.make_hjb_config()
        self.dyn = cfg.make_dynamics()
        self.coupling = cfg.make_coupling()
        self.m0 = cfg.make_initial_density()
        self.m_path = frozen_path(self.m0, self.hjb_cfg)
        self.eps_levels = list(cfg.fixed_point.eps_schedule) + [0.0]
        return load_s

    def run_pass(self, index):
        levels = []
        t0 = time.perf_counter()
        for eps in self.eps_levels:
            dyn = self.dyn.with_epsilon(eps)
            u = hjb.solve_hjb_backward(dyn, self.coupling, self.m_path,
                                       self.hjb_cfg)
            report = fpe.FpeReport()
            m = fpe.solve_fpe_forward(self.m0, u, dyn, self.hjb_cfg,
                                      report=report)
            results = verify.property_checks(u, m, dyn, self.coupling)
            levels.append((eps, report.mass_drift_max,
                           [r.name for r in results if not r.passed]))
        seconds = time.perf_counter() - t0
        problems = []
        for eps, drift, failed in levels:
            if failed:
                problems.append("eps=%g failed %s" % (eps, failed))
            if not drift <= MASS_DRIFT_MAX:
                problems.append("eps=%g mass drift %.3g > 1e-8" % (eps, drift))
        return seconds, {"problems": problems,
                         "mass_drift_max": max(d for _, d, _ in levels)}


class Validate64(Workload):
    """Post-solve validation at 64^2, nt=128: MC, particles, I/O, verify."""

    name = "validate_64"
    setup_repeats = 3

    def setup(self):
        t0 = time.perf_counter()
        cfg = load_sized_config(self.root, n=64, nt=128)
        load_s = time.perf_counter() - t0
        self.cfg = cfg
        hjb_cfg = cfg.make_hjb_config()
        self.dyn = cfg.make_dynamics()
        self.coupling = cfg.make_coupling()
        m0 = cfg.make_initial_density()
        self.u = hjb.solve_hjb_backward(self.dyn, self.coupling,
                                        frozen_path(m0, hjb_cfg), hjb_cfg)
        self.m = fpe.solve_fpe_forward(m0, self.u, self.dyn, hjb_cfg)
        grid = self.u.grid
        # the interior node `degmfg run` validates at
        i1, i2 = grid.n1 // 2 + 2, grid.n2 // 2 - 2
        self.x0 = (grid.x1[i1], grid.x2[i2])
        self.pde_value = float(self.u.values[0, i1, i2])
        self.ensemble = sde.EnsembleConfig(n_particles=MC_PARTICLES,
                                           seed=self.seed, dt_sde=hjb_cfg.dt)
        # a Philox key that none of this seed's particle blocks uses
        self.sample_seed = (self.seed << 20) + (1 << 20) - 1
        return load_s

    def run_pass(self, index):
        run_dir = self._run_dir(index)
        grid = self.u.grid
        t0 = time.perf_counter()
        est = sde.mc_value(self.dyn, self.coupling, self.m, self.u, self.x0,
                           0.0, self.ensemble)
        starts = sde.sample_density(self.m.slice(0), MC_PARTICLES,
                                    self.sample_seed)
        ens = sde.simulate_paths(self.dyn, self.u, starts, 0.0, self.ensemble)
        kde = sde.empirical_density(ens, grid)
        dio.save_run(run_dir, self.cfg, self.u, self.m,
                     {"mc_mean": est.mean, "mc_stderr": est.std_error})
        u2, m2, dyn2, coupling2 = dio.load_run(run_dir)
        results = verify.property_checks(u2, m2, dyn2, coupling2)
        seconds = time.perf_counter() - t0
        shutil.rmtree(run_dir, ignore_errors=True)

        problems = []
        abs_diff = abs(est.mean - self.pde_value)
        if not abs_diff <= 3 * est.std_error + MC_TOLERANCE:
            problems.append("MC mean %.6g vs PDE %.6g: |diff| %.3g > 3*%.3g+%g"
                            % (est.mean, self.pde_value, abs_diff,
                               est.std_error, MC_TOLERANCE))
        if not (np.array_equal(u2.values, self.u.values)
                and np.array_equal(m2.values, self.m.values)
                and u2.dt == self.u.dt and m2.dt == self.m.dt):
            problems.append("load_run fields differ from those written")
        failed = [r.name for r in results if not r.passed]
        if failed:
            problems.append("property suite failed %s" % failed)
        kde_l1 = grid.integrate(np.abs(kde.values - self.m.values[-1]))
        if not kde_l1 <= KDE_L1_TOLERANCE:
            problems.append("KDE vs FPE density L1 %.3g > %g"
                            % (kde_l1, KDE_L1_TOLERANCE))
        return seconds, {"problems": problems, "mc_abs_diff": abs_diff,
                         "mc_stderr": est.std_error, "kde_l1": kde_l1}


WORKLOADS = {w.name: w for w in (MfgRun32, MarchEps128, Validate64)}
