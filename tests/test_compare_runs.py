"""Tests of scripts/compare_runs.py, run as a command on real run directories."""

import os
import shutil
import subprocess
import sys

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
    path = os.path.join(changed, "m", "slice_0005.csv")
    grid, values = dio.read_field_csv(path)
    values[3, 4] += 0.25
    dio.write_fields([path], grid, [values])
    proc = _compare(a, changed)
    assert proc.returncode == 0, proc.stderr
    assert "m/slice_0005.csv sha256 differ max|diff| 0.25\n" in proc.stdout
    assert "m/slice_0004.csv sha256 equal max|diff| 0\n" in proc.stdout
    assert "m/: 32 of 33 slices byte-identical, max|diff| 0.25\n" \
        in proc.stdout
    assert "u/: 33 of 33 slices byte-identical" in proc.stdout


def test_relative_difference_per_field(two_runs, tmp_path):
    a, b = two_runs
    changed = str(tmp_path / "changed")
    shutil.copytree(b, changed)
    path = os.path.join(changed, "m", "slice_0007.csv")
    grid, values = dio.read_field_csv(path)
    values[2, 2] = 3.0 * values.max()  # the largest value of either run
    dio.write_fields([path], grid, [values])
    scale = max(max(abs(dio.read_field_csv(os.path.join(run, "m", name))[1]).max()
                    for name in os.listdir(os.path.join(run, "m")))
                for run in (a, changed))
    worst = abs(values - dio.read_field_csv(
        os.path.join(a, "m", "slice_0007.csv"))[1]).max()
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
    os.remove(os.path.join(short, "u", "slice_0032.csv"))
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
