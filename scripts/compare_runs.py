#!/usr/bin/env python3
"""Compare the field dumps of two run directories slice by slice.

    python scripts/compare_runs.py RUN_A RUN_B

For every slice CSV under u/ and m/ prints whether the two files are
byte-identical (sha256) and the maximum absolute difference of their
values, then one line per field with the worst slice. If both runs have a
summary.json with Picard ``iters`` and ``residuals``, those are compared
too. Exits 0 when both runs hold the same slices on the same grid, 1
otherwise.
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
    identical, worst = 0, 0.0
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
        print("%s/%s sha256 %s max|diff| %.3g"
              % (field, name, "equal" if same else "differ", diff))
    print("%s/: %d of %d slices byte-identical, max|diff| %.3g"
          % (field, identical, len(names), worst))
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
    line = "picard iters %s vs %s" % (ja.get("iters"), jb.get("iters"))
    if ra.shape == rb.shape and ra.size:
        rel = np.abs(ra - rb) / np.maximum(np.abs(ra), 1e-300)
        line += ", residuals max relative diff %.3g" % float(rel.max())
    print(line)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="first run directory")
    p.add_argument("b", help="second run directory")
    args = p.parse_args(argv)
    ok = all([compare_field(args.a, args.b, f) is not None
              for f in ("u", "m")])
    compare_picard(args.a, args.b)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
