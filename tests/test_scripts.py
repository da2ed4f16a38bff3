"""Smoke tests of the experiment scripts, run as commands on decoupled_zero."""

import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
ZERO_CFG = os.path.join(ROOT, "configs", "decoupled_zero.json")


@pytest.mark.parametrize("script, extra, header, rows", [
    # the eps schedule (0.1, 0.05) plus eps = 0
    ("run_sweep.py", [], ["eps", "iterations", "final_residual",
                          "sup_norm_delta", "d1_delta"], 3),
    ("run_holder.py", [], ["eps", "slope", "max_ratio", "n_pairs"], 3),
    # five probe points; --n overrides the config's particle count
    ("run_mc_probe.py", ["--n", "200"], ["x1", "x2", "mc_mean", "mc_stderr",
                                         "pde_value", "abs_diff"], 5),
])
def test_script_writes_its_csv(tmp_path, script, extra, header, rows):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--config", ZERO_CFG, "--out", str(out)] + extra,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows
