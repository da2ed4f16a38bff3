"""Run one degmfg benchmark workload and print its metrics.

    python3 bench/run.py --workload mfg_run_32 --seed 1 --seconds 45 --trace 0

Run from the root of a degmfg source checkout. The workload runs in this
single process, a closed loop of passes back to back until the next pass
would overrun ``--seconds`` (at least one pass). Every pass checks its
output; a pass whose checks fail counts as failed.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced passes alternate: the
traced ones give the per-layer metrics (medians over traced passes, each
value per pass), and the ratio of the two medians gives the tracing
overhead. Spans and pass records are written under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of BENCHMARK.json.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "thread_cap": THREADS}


def run_setup(wl):
    """Set up ``setup_repeats`` times; median seconds and config load time."""
    totals, loads = [], []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        loads.append(wl.setup())
        totals.append(time.perf_counter() - t0)
    return statistics.median(totals), statistics.median(loads)


def run_passes(wl, seconds, tracer):
    """Closed loop of passes; with a tracer, untraced and traced alternate."""
    from tracer import install_degmfg

    modes = ("untraced", "traced") if tracer else ("untraced",)
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        index = len(passes)
        mode = modes[index % len(modes)]
        wall0 = time.perf_counter()
        if mode == "traced":
            install_degmfg(tracer)
            scope = tracer.root_span("bench.pass", index)
        else:
            scope = contextlib.nullcontext()
        try:
            with scope:
                secs, record = wl.run_pass(index)
        except Exception:
            traceback.print_exc()
            secs = time.perf_counter() - wall0
            record = {"problems": ["raised %s" % sys.exc_info()[0].__name__]}
        finally:
            if mode == "traced":
                tracer.uninstall()
        record.update(index=index, mode=mode, seconds=secs)
        passes.append(record)
        print("pass %d %s %.4f s %s %s" % (
            index, mode, secs, "ok" if not record["problems"] else "FAILED",
            json.dumps({k: v for k, v in record.items()
                        if k not in ("index", "mode", "seconds")})), flush=True)
        now = time.perf_counter()
        longest = max(longest, now - wall0)
        if index + 1 >= len(modes) and now - start + longest > seconds:
            return passes


def layer_metrics(passes, tracer, load_s):
    from tracer import pass_layer_metrics

    traced = [p for p in passes if p["mode"] == "traced"]
    per_pass = [pass_layer_metrics([s for s in tracer.spans
                                    if s["pass"] == p["index"]])
                for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["sde.mc_abs_diff"] = statistics.median(p.get("mc_abs_diff", 0)
                                               for p in traced)
    out["config.load_s"] = load_s
    traced_s = statistics.median(p["seconds"] for p in traced)
    untraced_s = statistics.median(p["seconds"] for p in passes
                                   if p["mode"] == "untraced")
    out["trace.run_s"] = traced_s
    out["trace.spans"] = statistics.median(
        sum(1 for s in tracer.spans if s["pass"] == p["index"]) for p in traced)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "degmfg", "__init__.py")):
        print("error: %s holds no degmfg source tree (src/degmfg)" % ROOT,
              file=sys.stderr)
        return 2
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    # thread caps take effect only if set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, src)
    import degmfg.cli
    if not os.path.abspath(degmfg.cli.__file__).startswith(src + os.sep):
        print("error: degmfg imported from %s, not from %s"
              % (degmfg.cli.__file__, src), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    from tracer import COMPUTED, Tracer
    from workloads import WORKLOADS

    out_dir = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    tracer = Tracer() if args.trace else None
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, work_dir)
        setup_body_s, load_s = run_setup(wl)
        env = environment()
        print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                                args.trace))
        print("environment %s" % json.dumps(env, sort_keys=True))
        print("setup: import %.4f s + set-up body %.4f s (median of %d)"
              % (import_s, setup_body_s, wl.setup_repeats), flush=True)
        passes = run_passes(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [p["seconds"] for p in passes if p["mode"] == "untraced"]
    if args.trace:
        values = layer_metrics(passes, tracer, load_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(untraced),
            "setup_s": import_s + setup_body_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print("error: measured metrics %s do not match BENCHMARK.json"
              % sorted(set(values) ^ {m["name"] for m in wanted}),
              file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "import_s": import_s,
                   "setup_body_s": setup_body_s, "passes": passes,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write_jsonl(os.path.join(out_dir, tag + ".spans.jsonl"))

    failed = sum(1 for p in passes if p["problems"])
    print("passes: %d untraced, %d traced; run_s is the median of the %d "
          "untraced" % (len(untraced), len(passes) - len(untraced),
                        len(untraced)))
    for name, m in metrics.items():
        print("  %-34s %-14.6g %s%s" % (name, m["value"], m["unit"],
                                        " (computed)" if name in COMPUTED else ""))
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
