#!/usr/bin/env python3
"""Compare the field dumps of two run directories slice by slice.

    PYTHONPATH=src python scripts/compare_runs.py RUN_A RUN_B

(``PYTHONPATH=src`` is only needed when degmfg is not installed.)

For every slice CSV under u/ and m/ prints whether the two files are
byte-identical (sha256) and the maximum absolute difference of their
values, then one line per field with the worst slice and one with that
worst difference relative to the field's largest |value| in either run (0
where both fields are 0). If both runs have a summary.json with Picard
``iters``, ``steps`` and ``residuals``, those are compared too. Then every value of summary.json and of run_summary.json
(``timings`` left out) is compared exactly: one line per value that
differs and one line per file. Exits 0 when both runs hold the same slices
on the same grid, 1 otherwise (also, after one line naming it, when a run
has no u/ or m/ directory).
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from degmfg.io import read_field_csv


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _slices(run_dir, field):
    d = os.path.join(run_dir, field)
    return sorted(n for n in os.listdir(d) if n.endswith(".csv"))


def compare_field(a, b, field):
    """Print one line per slice; return (n_identical, max_abs_diff) or None
    if the runs hold different slices or grids."""
    names = _slices(a, field)
    if names != _slices(b, field):
        print("%s/: the runs hold different slices" % field)
        return None
    identical, worst, scale = 0, 0.0, 0.0
    for name in names:
        pa, pb = os.path.join(a, field, name), os.path.join(b, field, name)
        ga, va = read_field_csv(pa)
        gb, vb = read_field_csv(pb)
        if ga != gb:
            print("%s/%s: grids differ" % (field, name))
            return None
        same = _sha256(pa) == _sha256(pb)
        diff = float(np.abs(va - vb).max())
        identical += same
        worst = max(worst, diff)
        scale = max(scale, float(np.abs(va).max()), float(np.abs(vb).max()))
        print("%s/%s sha256 %s max|diff| %.3g"
              % (field, name, "equal" if same else "differ", diff))
    print("%s/: %d of %d slices byte-identical, max|diff| %.3g"
          % (field, identical, len(names), worst))
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
    ok = all([compare_field(args.a, args.b, f) is not None
              for f in ("u", "m")])
    compare_picard(args.a, args.b)
    compare_json(args.a, args.b, "summary.json")
    compare_json(args.a, args.b, "run_summary.json", skip=("timings",))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
