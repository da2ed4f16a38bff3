"""Tests of scripts/compare_runs.py, run as a command on real run directories."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from degmfg import io as dio
from degmfg.cli import EXIT_OK, main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "compare_runs.py")
ZERO_CFG = os.path.join(ROOT, "configs", "decoupled_zero.json")


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    runs = [str(root / name) for name in ("a", "b")]
    for run in runs:
        assert main(["run", "--config", ZERO_CFG, "--out", run]) == EXIT_OK
    return runs


def _compare(a, b):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, SCRIPT, a, b], env=env,
                          capture_output=True, text=True, timeout=120)


def test_identical_runs(two_runs):
    proc = _compare(*two_runs)
    assert proc.returncode == 0, proc.stderr
    for field in ("u", "m"):
        assert ("%s/: 33 of 33 slices byte-identical, max|diff| 0\n" % field
                in proc.stdout)
        # decoupled_zero's u is 0 everywhere: 0, not 0 / 0
        assert "%s/: max|diff| / max|value| 0\n" % field in proc.stdout
    assert "picard iters 1 vs 1" in proc.stdout


def test_changed_value_is_reported(two_runs, tmp_path):
    a, b = two_runs
    changed = str(tmp_path / "changed")
    shutil.copytree(b, changed)
    path = os.path.join(changed, "m", "path.npy")
    values = np.load(path)
    values[5, 3, 4] += 0.25
    np.save(path, values)
    proc = _compare(a, changed)
    assert proc.returncode == 0, proc.stderr
    assert "m/slice_0005 bytes differ max|diff| 0.25\n" in proc.stdout
    assert "m/slice_0004 bytes equal max|diff| 0\n" in proc.stdout
    assert "m/: 32 of 33 slices byte-identical, max|diff| 0.25\n" \
        in proc.stdout
    assert "u/: 33 of 33 slices byte-identical" in proc.stdout


def test_relative_difference_per_field(two_runs, tmp_path):
    a, b = two_runs
    changed = str(tmp_path / "changed")
    shutil.copytree(b, changed)
    path = os.path.join(changed, "m", "path.npy")
    values = np.load(path)
    values[7, 2, 2] = 3.0 * values[7].max()  # the largest value of either run
    np.save(path, values)
    original = np.load(os.path.join(a, "m", "path.npy"))
    scale = max(abs(original).max(), abs(values).max())
    worst = abs(values[7] - original[7]).max()
    proc = _compare(a, changed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = lines.index("m/: 32 of 33 slices byte-identical, max|diff| %.3g"
                          % worst)
    assert lines[summary + 1] == ("m/: max|diff| / max|value| %.3g"
                                  % (worst / scale))
    assert "u/: max|diff| / max|value| 0" in lines


def test_missing_slice_fails(two_runs, tmp_path):
    a, b = two_runs
    short = str(tmp_path / "short")
    shutil.copytree(b, short)
    path = os.path.join(short, "u", "path.npy")
    np.save(path, np.load(path)[:32])
    proc = _compare(a, short)
    assert proc.returncode == 1
    assert "u/: the runs hold different slices" in proc.stdout


def test_run_summary_compared_except_timings(two_runs, tmp_path):
    a, b = two_runs
    # the two runs' timings differ; nothing else does
    proc = _compare(a, b)
    assert "run_summary.json: equal (timings left out)\n" in proc.stdout
    assert "summary.json: equal\n" in proc.stdout
    changed = str(tmp_path / "changed")
    shutil.copytree(b, changed)
    path = os.path.join(changed, "run_summary.json")
    summary = dio.read_json(path)
    summary["verify"]["properties"][0]["passed"] = False
    summary["mc_validate"]["mc_stderr"] = 0.5
    dio.write_json(path, summary)
    proc = _compare(a, changed)
    assert proc.returncode == 0, proc.stderr
    assert ("run_summary.json verify.properties[0].passed: True vs False\n"
            in proc.stdout)
    assert "run_summary.json mc_validate.mc_stderr: 0.0 vs 0.5\n" in proc.stdout
    assert ("run_summary.json: 2 values differ (timings left out)\n"
            in proc.stdout)


def test_empty_list_is_a_value(two_runs, tmp_path):
    a, b = two_runs
    changed = str(tmp_path / "changed")
    shutil.copytree(b, changed)
    path = os.path.join(changed, "summary.json")
    summary = dio.read_json(path)
    summary["eps_deltas"] = []
    dio.write_json(path, summary)
    proc = _compare(a, changed)
    assert proc.returncode == 0, proc.stderr
    assert "summary.json eps_deltas: missing vs []\n" in proc.stdout
    assert "summary.json: 1 values differ\n" in proc.stdout


def test_parent_csv_run_compares_with_its_binary_run(two_runs, tmp_path):
    # a run directory of slice CSVs only, as written before path.npy
    a, b = two_runs
    csv_run = str(tmp_path / "csv")
    shutil.copytree(b, csv_run)
    assert main(["export", "--run", csv_run]) == EXIT_OK
    for field in ("u", "m"):
        os.remove(os.path.join(csv_run, field, "path.npy"))
    proc = _compare(csv_run, a)
    assert proc.returncode == 0, proc.stderr
    for field in ("u", "m"):
        assert ("%s/: 33 of 33 slices byte-identical, max|diff| 0\n" % field
                in proc.stdout)


@pytest.mark.parametrize("field", ["u", "m"])
def test_missing_field_directory_fails_in_one_line(two_runs, tmp_path, field):
    a, b = two_runs
    broken = str(tmp_path / "broken")
    shutil.copytree(b, broken)
    shutil.rmtree(os.path.join(broken, field))
    for pair in ((a, broken), (broken, a)):
        proc = _compare(*pair)
        assert proc.returncode == 1
        assert proc.stdout == "%s: no %s/ directory\n" % (broken, field)
        assert proc.stderr == ""
