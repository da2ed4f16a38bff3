#!/usr/bin/env python3
"""Compare the fields of two run directories slice by slice.

    PYTHONPATH=src python scripts/compare_runs.py RUN_A RUN_B

(``PYTHONPATH=src`` is only needed when degmfg is not installed.)

Each field, u/ and m/, is read as ``degmfg.io.read_path`` reads it: from its
path.npy, on the box of the run's config.json, or else from its slice CSVs,
so a run written before the binary format compares with one written after.
For every time slice k prints whether slice k of the two runs is
byte-identical (equal ``tobytes()``, which for the ``%.17g`` CSVs is equal
files) and the maximum absolute difference of their values, then one line
per field with the worst slice and one with that worst difference relative
to the field's largest |value| in either run (0 where both fields are 0).
If both runs have a summary.json with Picard ``iters``, ``steps`` and
``residuals``, those are compared too. Then every value of summary.json
and of run_summary.json (``timings`` left out) is compared exactly: one
line per value that differs and one line per file. Exits 0 when both runs
hold the same slices on the same grid, 1 otherwise (also, after one line
naming it, when a run has no u/ or m/ directory or a field cannot be read).
"""

import argparse
import json
import os
import sys

import numpy as np

from degmfg.config import load_config
from degmfg.errors import ConfigurationError
from degmfg.io import read_path


def _read_field(run_dir, field):
    box = load_config(os.path.join(run_dir, "config.json")).make_grid()
    return read_path(os.path.join(run_dir, field), box)


def compare_field(a, b, field):
    """Print one line per slice; return (n_identical, max_abs_diff) or None
    if the runs hold different slices or grids."""
    (ga, va), (gb, vb) = _read_field(a, field), _read_field(b, field)
    if len(va) != len(vb):
        print("%s/: the runs hold different slices" % field)
        return None
    if ga != gb:
        print("%s/: grids differ" % field)
        return None
    identical, worst, scale = 0, 0.0, 0.0
    for k, (sa, sb) in enumerate(zip(va, vb)):
        same = sa.tobytes() == sb.tobytes()
        diff = float(np.abs(sa - sb).max())
        identical += same
        worst = max(worst, diff)
        scale = max(scale, float(np.abs(sa).max()), float(np.abs(sb).max()))
        print("%s/slice_%04d bytes %s max|diff| %.3g"
              % (field, k, "equal" if same else "differ", diff))
    print("%s/: %d of %d slices byte-identical, max|diff| %.3g"
          % (field, identical, len(va), worst))
    print("%s/: max|diff| / max|value| %.3g"
          % (field, worst / scale if scale > 0 else 0.0))
    return identical, worst


def compare_picard(a, b):
    sa, sb = (os.path.join(r, "summary.json") for r in (a, b))
    if not (os.path.exists(sa) and os.path.exists(sb)):
        return
    with open(sa, encoding="utf-8") as fa, open(sb, encoding="utf-8") as fb:
        ja, jb = json.load(fa), json.load(fb)
    if "residuals" not in ja or "residuals" not in jb:
        return
    ra, rb = np.asarray(ja["residuals"]), np.asarray(jb["residuals"])
    line = "picard iters %s vs %s, steps %s vs %s" % (
        ja.get("iters"), jb.get("iters"), ja.get("steps"), jb.get("steps"))
    if ra.shape == rb.shape and ra.size:
        rel = np.abs(ra - rb) / np.maximum(np.abs(ra), 1e-300)
        line += ", residuals max relative diff %.3g" % float(rel.max())
    print(line)


def _leaves(obj, path=""):
    """(path, value) for every scalar and every empty list or object of a
    JSON document, so that a key holding [] is not lost."""
    if isinstance(obj, dict) and obj:
        for key in sorted(obj):
            yield from _leaves(obj[key], "%s.%s" % (path, key) if path else key)
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaves(value, "%s[%d]" % (path, i))
    else:
        yield path, obj


def compare_json(a, b, name, skip=()):
    """Print the values of the JSON file ``name`` that differ between the
    runs, keys in ``skip`` left out; repr equality, so nan equals nan."""
    pa, pb = (os.path.join(r, name) for r in (a, b))
    if not (os.path.exists(pa) and os.path.exists(pb)):
        return
    leaves = []
    for path in (pa, pb):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        leaves.append({k: repr(v) for k, v in _leaves(
            {k: v for k, v in doc.items() if k not in skip})})
    la, lb = leaves
    differ = sorted(k for k in la.keys() | lb.keys() if la.get(k) != lb.get(k))
    for key in differ:
        print("%s %s: %s vs %s" % (name, key, la.get(key, "missing"),
                                   lb.get(key, "missing")))
    status = "%d values differ" % len(differ) if differ else "equal"
    if skip:
        status += " (%s left out)" % ", ".join(skip)
    print("%s: %s" % (name, status))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="first run directory")
    p.add_argument("b", help="second run directory")
    args = p.parse_args(argv)
    for run in (args.a, args.b):
        for f in ("u", "m"):
            if not os.path.isdir(os.path.join(run, f)):
                print("%s: no %s/ directory" % (run, f))
                return 1
    try:
        ok = all([compare_field(args.a, args.b, f) is not None
                  for f in ("u", "m")])
    except ConfigurationError as exc:
        print("configuration error: %s" % exc)
        return 1
    compare_picard(args.a, args.b)
    compare_json(args.a, args.b, "summary.json")
    compare_json(args.a, args.b, "run_summary.json", skip=("timings",))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
