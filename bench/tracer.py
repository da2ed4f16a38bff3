"""Outside-in tracer for the degmfg benchmark.

The tracer replaces module and class attributes of the ``degmfg`` package
with timing wrappers, on the names that callers actually resolve at call
time (``degmfg.fixed_point.solve_hjb_backward`` is the binding
``psi_map`` uses, ``degmfg.hjb.splu`` the one ``solve_hjb_backward``
uses, and so on). Nothing in the program is edited; ``uninstall`` puts the
original attributes back.

Each span records its name, start, end, parent span id and the pass it
belongs to, plus a few attributes derived from the wrapped call's inputs
and return value (iteration counts, node-steps, bytes). Spans stay in
memory until ``write_jsonl``; ``pass_layer_metrics`` turns the spans of one pass
into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import time

from degmfg import cli, coupling, fixed_point, fpe, hjb, measures, sde, verify
from degmfg import io as dio


class Tracer:
    def __init__(self):
        self.spans = []
        self.current_pass = None
        self._stack = []
        self._patches = []

    # --- recording ---------------------------------------------------------
    def _open(self, name):
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.current_pass, "name": name,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root_span(self, name, pass_index):
        """The span that covers one whole pass; every span opened inside it
        is tagged with ``pass_index``."""
        self.current_pass = pass_index
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.current_pass = None

    # --- installation ------------------------------------------------------
    def wrap(self, owner, attr, name, prepare=None, describe=None):
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``prepare(bound)`` may edit the bound arguments before the call;
        ``describe(bound, result)`` returns attributes stored on the span and
        runs after the span is closed, so its cost is not charged to it.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if (prepare or describe) else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if prepare is not None:
                    prepare(bound)
                args, kwargs = bound.args, bound.kwargs
            span = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if describe is not None:
                span["attrs"] = describe(bound, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# --- what to wrap ------------------------------------------------------------

def _tree_bytes(root, top_files=None):
    """Total size of the files under ``root``; with ``top_files``, only those
    top-level files plus everything in subdirectories."""
    total = 0
    for dirpath, _, files in os.walk(root):
        for fn in files:
            if top_files is not None and dirpath == root and fn not in top_files:
                continue
            total += os.path.getsize(os.path.join(dirpath, fn))
    return total


def _steps_of_path(bound, result):
    nt, n1, n2 = result.values.shape
    return {"node_steps": (nt - 1) * n1 * n2}


def _inject_fpe_report(bound):
    # solve_fpe_forward builds a throw-away FpeReport when given none; hand
    # it one instead so its mass-drift measurement can be read afterwards.
    if bound.arguments.get("report") is None:
        bound.arguments["report"] = fpe.FpeReport()


def _fpe_attrs(bound, result):
    attrs = _steps_of_path(bound, result)
    attrs["mass_drift_max"] = bound.arguments["report"].mass_drift_max
    return attrs


def _particle_steps(bound, result):
    a = bound.arguments
    u_path, cfg = a["u_path"], a["cfg"]
    steps = int(round((u_path.horizon - a["t0"]) / cfg.dt_sde))
    return {"particle_steps": cfg.n_particles * steps}


def _picard_attrs(bound, result):
    return {"iterations": result.iterations,
            "residual_history": [float(r) for r in result.residual_history],
            "lp_residual": float(result.lp_residual),
            "converged": bool(result.converged)}


def install_degmfg(tracer):
    """Wrap the layer boundaries of every benchmark workload's call path."""
    w = tracer.wrap

    w(cli, "picard_solve", "fixed_point.picard", describe=_picard_attrs)
    w(fixed_point, "psi_map", "fixed_point.psi")

    for owner in (fixed_point, hjb):
        w(owner, "solve_hjb_backward", "hjb.solve", describe=_steps_of_path)
    w(hjb, "assemble_diffusion", "hjb.assemble")
    w(hjb, "splu", "hjb.factor")

    for owner in (fixed_point, fpe):
        w(owner, "solve_fpe_forward", "fpe.solve",
          prepare=_inject_fpe_report, describe=_fpe_attrs)
    w(fpe, "assemble_dual_diffusion", "fpe.assemble")
    w(fpe, "splu", "fpe.factor")

    w(measures.GridDistance, "distance", "measures.distance")
    w(measures.GridDistance, "coarsen", "measures.coarsen",
      describe=lambda b, r: {"points": len(r[1])})
    w(measures, "sinkhorn_points", "measures.sinkhorn",
      describe=lambda b, r: {"iterations": r.iterations})
    w(measures, "_self_transport", "measures.self_transport")
    w(fixed_point, "wasserstein1_points", "measures.lp")

    w(coupling.CouplingSpec, "running_cost", "coupling.F")
    w(coupling.CouplingSpec, "terminal_cost", "coupling.G")

    w(sde, "mc_value", "sde.mc_value", describe=_particle_steps)
    w(sde, "sample_density", "sde.sample_density")
    w(sde, "simulate_paths", "sde.simulate_paths", describe=_particle_steps)
    w(sde, "empirical_density", "sde.empirical_density")

    for owner in (cli, verify):
        w(owner, "property_checks", "verify.property_checks",
          describe=lambda b, r: {"failed": sum(not p.passed for p in r)})
    # verify.ae_residual_report imports pde_residual from degmfg.hjb per call
    w(hjb, "pde_residual", "verify.pde_residual")

    w(dio, "save_run", "io.save_run",
      describe=lambda b, r: {"bytes": _tree_bytes(b.arguments["run_dir"])})
    w(dio, "load_run", "io.load_run",
      describe=lambda b, r: {"bytes": _tree_bytes(
          b.arguments["run_dir"], top_files={"config.json", "summary.json"})})


# --- per-layer metrics -------------------------------------------------------

def _self_times(spans):
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
            for s in spans}


# metrics counted from the inputs and return values of the wrapped calls,
# not timed
COMPUTED = frozenset((
    "measures.sinkhorn.iters", "measures.support_points",
    "fixed_point.picard_iters", "fixed_point.final_residual",
    "fixed_point.lp_residual", "hjb.node_steps", "fpe.node_steps",
    "fpe.mass_drift_max", "sde.particle_steps", "verify.failed_properties",
    "io.bytes_written", "io.bytes_read"))


def pass_layer_metrics(spans):
    """Per-layer metrics of one traced pass (the spans of that pass)."""
    self_t = _self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def self_s(name):
        return sum(self_t[s["id"]] for s in by_name.get(name, ()))

    def attr_sum(attr, *names):
        # a call that raised has no attributes
        return sum(s.get("attrs", {}).get(attr, 0)
                   for n in names for s in by_name.get(n, ()))

    distance_ids = {s["id"] for s in by_name.get("measures.distance", ())}
    support = [s["attrs"]["points"] for s in by_name.get("measures.coarsen", ())
               if s["parent"] in distance_ids and "attrs" in s]
    picard = [s["attrs"] for s in by_name.get("fixed_point.picard", ())
              if "attrs" in s]
    last = picard[-1] if picard else None
    drifts = [s["attrs"]["mass_drift_max"] for s in by_name.get("fpe.solve", ())
              if "attrs" in s]

    return {
        "measures.distance.calls": calls("measures.distance"),
        "measures.distance.busy_s": busy("measures.distance"),
        "measures.sinkhorn.calls": calls("measures.sinkhorn"),
        "measures.sinkhorn.iters": attr_sum("iterations", "measures.sinkhorn"),
        "measures.sinkhorn.busy_s": busy("measures.sinkhorn"),
        "measures.self_transport.calls": calls("measures.self_transport"),
        "measures.self_transport.busy_s": busy("measures.self_transport"),
        "measures.lp.calls": calls("measures.lp"),
        "measures.lp.busy_s": busy("measures.lp"),
        "measures.support_points": statistics.fmean(support) if support else 0,
        "fixed_point.picard.busy_s": busy("fixed_point.picard"),
        "fixed_point.picard.self_s": self_s("fixed_point.picard"),
        "fixed_point.psi_calls": calls("fixed_point.psi"),
        "fixed_point.picard_iters": attr_sum("iterations", "fixed_point.picard"),
        "fixed_point.final_residual":
            last["residual_history"][-1] if last and last["residual_history"] else 0,
        # picard_solve runs the LP cross-check only after converging
        "fixed_point.lp_residual":
            last["lp_residual"] if last and last["converged"] else 0,
        "hjb.solve.calls": calls("hjb.solve"),
        "hjb.solve.busy_s": busy("hjb.solve"),
        "hjb.solve.self_s": self_s("hjb.solve"),
        "hjb.assemble.busy_s": busy("hjb.assemble"),
        "hjb.factor.calls": calls("hjb.factor"),
        "hjb.factor.busy_s": busy("hjb.factor"),
        "hjb.node_steps": attr_sum("node_steps", "hjb.solve"),
        "fpe.solve.calls": calls("fpe.solve"),
        "fpe.solve.busy_s": busy("fpe.solve"),
        "fpe.solve.self_s": self_s("fpe.solve"),
        "fpe.assemble.busy_s": busy("fpe.assemble"),
        "fpe.factor.calls": calls("fpe.factor"),
        "fpe.factor.busy_s": busy("fpe.factor"),
        "fpe.node_steps": attr_sum("node_steps", "fpe.solve"),
        "fpe.mass_drift_max": max(drifts) if drifts else 0,
        "coupling.calls": calls("coupling.F", "coupling.G"),
        "coupling.busy_s": busy("coupling.F", "coupling.G"),
        "sde.mc_value.busy_s": busy("sde.mc_value"),
        "sde.sample_density.busy_s": busy("sde.sample_density"),
        "sde.simulate_paths.busy_s": busy("sde.simulate_paths"),
        "sde.empirical_density.busy_s": busy("sde.empirical_density"),
        "sde.particle_steps":
            attr_sum("particle_steps", "sde.mc_value", "sde.simulate_paths"),
        "verify.property_checks.busy_s": busy("verify.property_checks"),
        "verify.property_checks.self_s": self_s("verify.property_checks"),
        "verify.pde_residual.busy_s": busy("verify.pde_residual"),
        "verify.failed_properties": attr_sum("failed", "verify.property_checks"),
        "io.save_run.busy_s": busy("io.save_run"),
        "io.load_run.busy_s": busy("io.load_run"),
        "io.bytes_written": attr_sum("bytes", "io.save_run"),
        "io.bytes_read": attr_sum("bytes", "io.load_run"),
    }
