"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json
import os
import shutil
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from degmfg import cli
from degmfg import grid as dgrid
from degmfg import io as dio
from degmfg.cli import EXIT_CONFIG, EXIT_OK, main
from degmfg.config import load_config, serialize_config
from degmfg.grid import truncated_gaussian
from degmfg.measures import GridDistance, wasserstein1_points
from references import centered_flux_fpe, default_grid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
ZERO_CFG = os.path.join(CONFIG_DIR, "decoupled_zero.json")
STRESS_CFG = os.path.join(CONFIG_DIR, "advection_stress.json")


def _hash_tree(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()


class TestExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{"
                       "\"grid\": {\"n1\": 2}}")
        assert main(["solve-mfg", "--config", str(bad)]) == EXIT_CONFIG
        assert "n1 >= 4" in capsys.readouterr().err

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"mystery\": 1}")
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    def test_wrong_type_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mc": {"dt_sde": "abc"}}))
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert "configuration error: mc: " in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("0,1", "expected 3 fields"), ("0,1,abc", "'abc' is not a number")])
    def test_malformed_field_csv_is_exit_2(self, tmp_path, capsys, row,
                                           message):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,value\n0,0,1\n%s\n1,0,3\n1,1,4\n" % row)
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def hjb_run(tmp_path_factory):
    """A finished solve-hjb run directory of the decoupled_zero config."""
    out = str(tmp_path_factory.mktemp("hjb") / "run")
    assert main(["solve-hjb", "--config", ZERO_CFG, "--out", out]) == EXIT_OK
    return out


class TestMissingInput:
    @pytest.mark.parametrize("argv, missing", [
        (["run", "--config", "{gone}"], "{gone}"),
        (["verify", "--run", "{run}", "--tol-file", "{gone}"], "{gone}"),
        (["solve-hjb", "--config", ZERO_CFG, "--m-path", "{gone}"], "{gone}"),
        (["w1", "--a", "{gone}", "--b", "{gone}"], "{gone}"),
        (["verify", "--run", "{run}"], "{run}/m"),
        (["verify", "--run", "{run}"], "{run}/u")])
    def test_missing_input_is_exit_2(self, tmp_path, capsys, hjb_run,
                                     argv, missing):
        run = str(tmp_path / "run")
        shutil.copytree(hjb_run, run)
        gone = str(tmp_path / "no_such_file")
        if missing in ("{run}/m", "{run}/u"):
            shutil.rmtree(os.path.join(run, missing[-1]))
        fill = {"gone": gone, "run": run}
        argv = [a.format(**fill) for a in argv]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("configuration error: cannot read %s: No such file or "
                "directory" % missing.format(**fill)) in err


class TestSolveAndVerify:
    def test_decoupled_zero_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["run", "--config", ZERO_CFG, "--out", out]) == EXIT_OK
        summary = dio.read_json(os.path.join(out, "run_summary.json"))
        assert summary["all_passed"]
        # decoupled zero config: the value fields are identically zero
        mfg = summary["solve_mfg"]
        assert mfg["converged"] and mfg["iters"] == 1
        assert mfg["steps"] == [1.0]
        hjb_sup = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert main(["export", "--run", out]) == EXIT_OK
        with open(os.path.join(out, "u", "slice_0000.csv")) as fh:
            fh.readline()
            assert all(float(line.rsplit(",", 1)[1]) == 0.0 for line in fh)

    def test_summaries_record_the_step_taken(self, tmp_path, capsys):
        assert main(["solve-mfg", "--config", ZERO_CFG,
                     "--out", str(tmp_path / "mfg")]) == EXIT_OK
        mfg = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert mfg["steps"] == [1.0]
        assert main(["sweep-eps", "--config", ZERO_CFG,
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        sweep = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert sweep["steps"] == [[1.0]] * len(sweep["eps_levels"])

    def test_sweep_eps_saves_the_last_level_under_its_own_config(
            self, tmp_path, capsys):
        # decoupled_zero's own epsilon is the last level's, 0, which would
        # hide a config.json copied from the input instead
        raw = dio.read_json(ZERO_CFG)
        raw["dynamics"]["epsilon"] = 0.05
        config = str(tmp_path / "config.json")
        dio.write_json(config, raw)
        out = str(tmp_path / "sweep")
        assert main(["sweep-eps", "--config", config, "--out", out]) == EXIT_OK
        sweep = json.loads(capsys.readouterr().out.splitlines()[-1])
        saved = dio.read_json(os.path.join(out, "config.json"))
        assert saved["dynamics"]["epsilon"] == 0.0 == sweep["eps_levels"][-1]
        assert dio.load_run(out)[2].epsilon == 0.0
        saved["dynamics"]["epsilon"] = 0.05
        assert saved == json.loads(serialize_config(load_config(config)))

    def test_eps_deltas_only_in_the_sweep(self, tmp_path, capsys):
        # only sweep-eps has epsilon levels to difference
        mfg_out, run_out = str(tmp_path / "mfg"), str(tmp_path / "run")
        assert main(["solve-mfg", "--config", ZERO_CFG,
                     "--out", mfg_out]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert main(["run", "--config", ZERO_CFG, "--out", run_out]) == EXIT_OK
        run_summary = dio.read_json(os.path.join(run_out, "run_summary.json"))
        for summary in (printed, run_summary["solve_mfg"],
                        dio.read_json(os.path.join(mfg_out, "summary.json")),
                        dio.read_json(os.path.join(run_out, "summary.json"))):
            assert "steps" in summary and "eps_deltas" not in summary
        capsys.readouterr()
        assert main(["sweep-eps", "--config", ZERO_CFG,
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        sweep = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert len(sweep["eps_deltas"]) == len(sweep["eps_levels"]) - 1

    def test_run_keeps_the_solve_mfg_record(self, tmp_path, capsys):
        assert main(["solve-mfg", "--config", ZERO_CFG,
                     "--out", str(tmp_path / "mfg")]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        out = str(tmp_path / "run")
        assert main(["run", "--config", ZERO_CFG, "--out", out]) == EXIT_OK
        summary = dio.read_json(os.path.join(out, "run_summary.json"))
        assert summary["solve_mfg"] == printed
        assert set(printed) >= {"epsilon", "lp_residual"}
        assert set(summary["timings"]) == {"solve_mfg", "save_run",
                                           "mc_validate", "verify"}

    @pytest.mark.parametrize("n", range(4, 13))
    def test_run_on_the_smallest_grids(self, tmp_path, capsys, n):
        # the start point of the MC check stays on the grid; semiconcavity
        # needs 5 nodes per axis inside the 10% frame, which leaves 4 at
        # n = 4 and n = 6
        cfg = load_config(ZERO_CFG)
        cfg = replace(cfg, grid=replace(cfg.grid, n1=n, n2=n))
        config = tmp_path / "config.json"
        config.write_text(serialize_config(cfg))
        out = str(tmp_path / "run")
        code = main(["run", "--config", str(config), "--out", out])
        if n in (4, 6):
            assert code == EXIT_CONFIG
            assert "needs at least 5 nodes per axis inside the boundary " \
                "frame, which leaves 4 x 4" in capsys.readouterr().err
        else:
            assert code == EXIT_OK
            assert dio.read_json(os.path.join(out, "run_summary.json"))[
                "all_passed"]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12])
    def test_run_starts_the_mc_check_off_the_walls(self, tmp_path,
                                                   monkeypatch, n):
        # the node (n1//2 + 2, n2//2 - 2), clamped to 1..n-2: at n = 5 the
        # unclamped node is the box corner; from n = 7 on it is unchanged
        starts = []
        summary = cli._mc_summary

        def capture(cfg, sol, x0, t0):
            starts.append(x0)
            return summary(cfg, sol, x0, t0)

        monkeypatch.setattr(cli, "_mc_summary", capture)
        cfg = load_config(ZERO_CFG)
        cfg = replace(cfg, grid=replace(cfg.grid, n1=n, n2=n))
        config = tmp_path / "config.json"
        config.write_text(serialize_config(cfg))
        main(["run", "--config", str(config), "--out", str(tmp_path / "r")])
        grid = cfg.make_grid()
        (x1, x2), = starts
        assert grid.x1[0] < x1 < grid.x1[-1] and grid.x2[0] < x2 < grid.x2[-1]
        if n >= 7:
            assert (x1, x2) == (grid.x1[n // 2 + 2], grid.x2[n // 2 - 2])

    def test_solve_mfg_summary_file_is_what_it_prints(self, tmp_path, capsys):
        # the mesh lives in config.json alone: summary.json adds nothing
        out = str(tmp_path / "mfg")
        assert main(["solve-mfg", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert dio.read_json(os.path.join(out, "summary.json")) == printed

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--config", ZERO_CFG, "--out", out_a]) == EXIT_OK
        assert main(["run", "--config", ZERO_CFG, "--out", out_b]) == EXIT_OK
        # timings differ; compare everything except the run summary
        for sub in ("u", "m"):
            assert _hash_tree(os.path.join(out_a, sub)) == \
                _hash_tree(os.path.join(out_b, sub))
        sa = dio.read_json(os.path.join(out_a, "run_summary.json"))
        sb = dio.read_json(os.path.join(out_b, "run_summary.json"))
        sa.pop("timings"), sb.pop("timings")
        assert sa == sb

    def test_solve_hjb_summary_keys(self, tmp_path, capsys):
        out = str(tmp_path / "hjb")
        assert main(["solve-hjb", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        summary = json.loads(line)
        assert set(summary) >= {"sup_norm", "lipschitz_estimate",
                                "residual_median"}

    def test_solve_hjb_applies_the_density_rule_once_to_the_path(
            self, tmp_path, monkeypatch):
        calls = []
        rule = dgrid.density_rule

        def counting_rule(g, values):
            calls.append(values.ndim)
            return rule(g, values)

        monkeypatch.setattr(dgrid, "density_rule", counting_rule)
        assert main(["solve-hjb", "--config", ZERO_CFG,
                     "--out", str(tmp_path / "hjb")]) == EXIT_OK
        assert calls.count(3) == 1

    def test_solve_fpe_summary_keys(self, tmp_path, capsys):
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(summary) >= {"mass_drift_max", "min_density",
                                "second_moments"}
        assert summary["mass_drift_max"] <= 1e-8

    def test_verify_passes_on_honest_run(self, tmp_path, capsys):
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", STRESS_CFG,
                     "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--run", out]) == EXIT_OK
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["passed"]

    def test_a_density_that_breaks_the_rule_is_exit_2(self, tmp_path,
                                                      capsys):
        # the layout of a run directory that solve-fpe --sabotage-upwind
        # once wrote: the centered-flux path as m/, and a summary that
        # claims it needs no density rule; verify holds m/ to it anyway
        with pytest.raises(SystemExit) as exc:
            main(["solve-fpe", "--config", STRESS_CFG, "--sabotage-upwind"])
        assert exc.value.code == EXIT_CONFIG
        out = str(tmp_path / "sab")
        assert main(["solve-fpe", "--config", STRESS_CFG,
                     "--out", out]) == EXIT_OK
        capsys.readouterr()
        u, _, dyn, _ = dio.load_run(out)
        cfg = load_config(STRESS_CFG)
        m, _ = centered_flux_fpe(cfg.make_initial_density(), u, dyn,
                                 cfg.make_hjb_config())
        np.save(os.path.join(out, "m", "path.npy"), m.values)
        dio.write_json(os.path.join(out, "summary.json"),
                       {"validate_density": False})
        assert main(["verify", "--run", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: %s: density has "
                              "negativity " % os.path.join(out, "m"))

    def test_verify_of_a_truncated_run_is_exit_2(self, tmp_path, capsys):
        # m/ loses its last two slices: the paths no longer share one mesh
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        capsys.readouterr()
        path_file = os.path.join(out, "m", "path.npy")
        np.save(path_file, np.load(path_file)[:31])
        assert main(["verify", "--run", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: %s lies on " % os.path.join(out, "m") \
            in err
        assert "with nt=31, dt=0.03125, not on " in err
        assert err.rstrip().endswith("with nt=33, dt=0.03125")

    @pytest.mark.parametrize("damage, message", [
        ("truncate", "Failed to read all data for array"),
        ("object", "Object arrays cannot be loaded when allow_pickle=False"),
        ("float32", "holds a float32 array of shape (33, 24, 24)"),
        ("2-D", "holds a float64 array of shape (33, 576)")])
    def test_verify_of_a_malformed_path_file_is_exit_2(
            self, tmp_path, capsys, hjb_run, damage, message):
        run = str(tmp_path / "run")
        shutil.copytree(hjb_run, run)
        path_file = os.path.join(run, "m", "path.npy")
        values = np.load(path_file)
        if damage == "truncate":
            with open(path_file, "rb") as fh:
                data = fh.read()
            with open(path_file, "wb") as fh:
                fh.write(data[:-8])
        elif damage == "object":
            np.save(path_file, values.astype(object))
        elif damage == "float32":
            np.save(path_file, values.astype(np.float32))
        else:
            np.save(path_file, values.reshape(len(values), -1))
        assert main(["verify", "--run", run]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert path_file in err and message in err

    def test_export_writes_the_slices_of_the_loaded_paths(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["run", "--config", ZERO_CFG, "--out", out]) == EXIT_OK
        u, m, _, _ = dio.load_run(out)
        assert main(["export", "--run", out]) == EXIT_OK
        for field, path in (("u", u), ("m", m)):
            names = ["slice_%04d.csv" % k for k in range(path.nt)]
            assert sorted(n for n in os.listdir(os.path.join(out, field))
                          if n.endswith(".csv")) == names
            written = [str(tmp_path / ("%s_%d.csv" % (field, k)))
                       for k in range(path.nt)]
            dio.write_fields(written, path.grid, path.values)
            for name, ref in zip(names, written):
                with open(os.path.join(out, field, name), "rb") as a, \
                        open(ref, "rb") as b:
                    assert a.read() == b.read()
        # the CSV route, path.npy removed, loads the same arrays bit for bit
        for field in ("u", "m"):
            os.remove(os.path.join(out, field, "path.npy"))
        u2, m2, _, _ = dio.load_run(out)
        assert u2.values.tobytes() == u.values.tobytes()
        assert m2.values.tobytes() == m.values.tobytes()

    @pytest.mark.parametrize("summary, code, message", [
        ({"nt": 33}, EXIT_OK, ""),  # no dt: the mesh is config.json's
        ({"dt": "abc"}, EXIT_OK, ""),
        ([1], EXIT_OK, ""),  # not an object: never read, so not an error
        ({"validate_density": "no"}, EXIT_OK, "")],
        ids=("no-dt", "text-dt", "list", "text-validate-density"))
    def test_verify_reads_only_validate_density_from_the_summary(
            self, tmp_path, capsys, hjb_run, summary, code, message):
        run = str(tmp_path / "run")
        shutil.copytree(hjb_run, run)
        dio.write_json(os.path.join(run, "summary.json"), summary)
        assert main(["verify", "--run", run]) == code
        assert message in capsys.readouterr().err

    def test_verify_does_not_read_the_summary(self, tmp_path, capsys,
                                              hjb_run):
        # the same exit code and report whether summary.json is missing,
        # is not an object, is not JSON or holds any keys at all: the mesh
        # is config.json's, so a summary without dt or with a text dt too
        run = str(tmp_path / "run")
        shutil.copytree(hjb_run, run)
        summary = os.path.join(run, "summary.json")
        outcomes = []
        for text in (None, "[1]", "not json {", '{"validate_density": "no"}',
                     '{"validate_density": false, "nt": 3}', '{"nt": 33}',
                     '{"dt": "abc"}'):
            if text is None:
                os.remove(summary)
            else:
                with open(summary, "w", encoding="utf-8") as fh:
                    fh.write(text)
            code = main(["verify", "--run", run])
            out, err = capsys.readouterr()
            outcomes.append((code, out, err))
        assert outcomes[0][0] == EXIT_OK and outcomes[0][2] == ""
        assert outcomes == [outcomes[0]] * len(outcomes)

    def test_verify_checks_the_fields_against_the_config_mesh(
            self, tmp_path, capsys, hjb_run):
        run = str(tmp_path / "run")
        shutil.copytree(hjb_run, run)
        config = dio.read_json(os.path.join(run, "config.json"))
        config["time"]["nt"] = 17
        dio.write_json(os.path.join(run, "config.json"), config)
        assert main(["verify", "--run", run]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: %s lies on " % os.path.join(run, "u") \
            in err
        assert err.rstrip().endswith("with nt=17, dt=0.0625")

    def test_verify_tol_file(self, tmp_path, capsys):
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"lipschitz_max": 1e-12}))
        capsys.readouterr()
        # zero fields: even an absurd Lipschitz cap passes
        assert main(["verify", "--run", out,
                     "--tol-file", str(tol)]) == EXIT_OK
        tol.write_text(json.dumps({"nonsense_key": 1.0}))
        assert main(["verify", "--run", out,
                     "--tol-file", str(tol)]) == EXIT_CONFIG


class TestSmallTools:
    def test_mc_validate_exact_for_zero_config(self, tmp_path, capsys):
        assert main(["mc-validate", "--config", ZERO_CFG, "--x0", "0.5,0.0",
                     "--t0", "0.0", "--n", "500"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["pass"]
        assert summary["abs_diff"] == 0.0

    def test_mc_summary_reads_u_at_x0_not_at_the_nearest_node(self):
        # u linear in space, so its bilinear interpolant is exact off the
        # nodes; x0 = (0.5, 0) lies 0.65 cells from the nearest node in x1
        cfg = load_config(ZERO_CFG)
        cfg = replace(cfg, mc=replace(cfg.mc, n_particles=10))
        grid, dt, nt = cfg.make_grid(), cfg.time.dt, cfg.time.nt
        x1g, x2g = grid.meshgrid()
        t = dt * np.arange(nt)[:, None, None]
        u = dgrid.ValuePath(grid, dt, 0.25 + 0.3 * x1g - 0.2 * x2g + 0.1 * t)
        m0 = cfg.make_initial_density()
        m = dgrid.DensityPath(grid, dt, np.repeat(m0.values[None], nt, axis=0))
        sol = SimpleNamespace(u=u, m=m)
        summary = cli._mc_summary(cfg, sol, (0.5, 0.0), 0.5)
        assert abs(summary["pde_value"] - (0.25 + 0.3 * 0.5 + 0.1 * 0.5)) \
            <= 1e-12

    @pytest.mark.parametrize("x0, message", [
        ("a,0", "must be 'x1,x2'"),
        ("6,0", "outside the box"),
        ("-6,0", "outside the box")])
    def test_mc_validate_rejects_bad_start_point(self, monkeypatch, capsys,
                                                 x0, message):
        # checked before the Picard solve; -6 would wrap to a node at +4.3
        def no_solve(*args):
            raise AssertionError("--x0 was not checked before the solve")

        monkeypatch.setattr(cli, "_solve_mfg", no_solve)
        assert main(["mc-validate", "--config", ZERO_CFG, "--x0=" + x0,
                     "--n", "10"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--t0", "0.51"], "dt_sde=0.03125 must tile the interval [0.51, 1]"),
        (["--t0", "1.0"], "t0 must lie in [0, T)"),
        (["--t0", "-0.25"], "t0 must lie in [0, T)"),
        (["--n", "0"], "n_particles must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--seed", "17592186044416"], "seed must be < 2**44")])
    def test_mc_validate_checks_arguments_before_the_solve(
            self, monkeypatch, capsys, argv, message):
        def no_solve(*args):
            raise AssertionError("an argument was not checked before the solve")

        monkeypatch.setattr(cli, "_solve_mfg", no_solve)
        assert main(["mc-validate", "--config", ZERO_CFG, "--x0", "0,0"]
                    + argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"time": {"nt": 33.0}}, {"fixed_point": {"n_check_slices": 3.5}},
        {"fixed_point": {"lp_check_points": -1}}, {"mc": {"seed": -1}},
        {"mc": {"n_particles": 100.0}}, {"mc": {"seed": 17592186044416}}])
    def test_bad_number_fails_at_parse(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(dio.read_json(ZERO_CFG), **config)))
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        section = next(iter(config))
        assert ("configuration error: %s: " % section
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "out")

    def test_nan_epsilon_is_exit_2(self, tmp_path, capsys):
        # NaN passes every rule written as a comparison like "epsilon < 0"
        raw = dio.read_json(ZERO_CFG)
        raw["dynamics"] = dict(raw["dynamics"], epsilon=float("nan"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert ("configuration error: dynamics: epsilon must be >= 0"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("tol, message", [
        ({"lipschitz_max": "abc"},
         "tol-file: lipschitz_max must be a number (got 'abc')"),
        ([1], "section 'tol-file' must be a JSON object"),
        ({"boundary_frame": 0.5},
         "tol-file: boundary_frame must lie in [0, 0.5) (got 0.5)"),
        ({"nonsense_key": 1.0}, "unknown key 'nonsense_key' in section "
                                "'tol-file'"),
        ('{"lipschitz_max": ', "is not valid JSON")])
    def test_tol_file_checked_before_the_run_is_read(self, tmp_path, capsys,
                                                     tol, message):
        path = tmp_path / "tol.json"
        path.write_text(tol if isinstance(tol, str) else json.dumps(tol))
        assert main(["verify", "--run", str(tmp_path / "no_run"),
                     "--tol-file", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_w1_rejects_nonpositive_max_points(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        grid = default_grid(n1=32, n2=32)
        dio.write_fields([a], grid, [truncated_gaussian(grid).values])
        assert main(["w1", "--a", a, "--b", a,
                     "--max-points", "-1"]) == EXIT_CONFIG
        assert "max_points must be >= 1" in capsys.readouterr().err

    def test_w1_exact_zero_for_identical_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", ZERO_CFG,
                     "--out", out]) == EXIT_OK
        assert main(["export", "--run", out]) == EXIT_OK
        capsys.readouterr()
        a = os.path.join(out, "m", "slice_0000.csv")
        assert main(["w1", "--a", a, "--b", a]) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_w1_sinkhorn_close_to_exact(self, tmp_path, capsys):
        out = str(tmp_path / "fpe")
        assert main(["solve-fpe", "--config", STRESS_CFG,
                     "--out", out]) == EXIT_OK
        assert main(["export", "--run", out]) == EXIT_OK
        capsys.readouterr()
        a = os.path.join(out, "m", "slice_0000.csv")
        b = os.path.join(out, "m", "slice_0063.csv")
        assert main(["w1", "--a", a, "--b", b]) == EXIT_OK
        exact = float(capsys.readouterr().out.strip())
        assert main(["w1", "--a", a, "--b", b, "--sinkhorn"]) == EXIT_OK
        sink = float(capsys.readouterr().out.strip())
        assert exact > 0.01
        assert abs(sink - exact) <= 0.05 * exact + 1e-3

    def test_w1_prints_the_recorded_values(self, tmp_path, capsys):
        # values printed when the exact route was one dense LP; the Sinkhorn
        # route must print the same digits, the column-generation LP (the
        # default) the same value up to the last printed digits
        grid = default_grid(n1=32, n2=32)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        dio.write_fields([a, b], grid, [
            truncated_gaussian(grid).values,
            truncated_gaussian(grid, center=(0.3, 0.1), variance=0.5).values])
        assert main(["w1", "--a", a, "--b", b, "--sinkhorn"]) == EXIT_OK
        assert capsys.readouterr().out == "0.413323008233\n"
        assert main(["w1", "--a", a, "--b", b]) == EXIT_OK
        exact = float(capsys.readouterr().out)
        assert abs(exact - 0.407061697866) <= 1e-9

    def test_w1_coarsens_each_field_on_its_own_grid(self, tmp_path, capsys):
        # a field and its translate by (5, 5): the same values on a shifted
        # box are 5 sqrt(2) apart, not 0
        grid = default_grid(n1=16, n2=16)
        shifted = dgrid.Grid2D(0.0, 10.0, 0.0, 10.0, 16, 16)
        values = truncated_gaussian(grid).values
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        dio.write_fields([a], grid, [values])
        dio.write_fields([b], shifted, [values])
        assert main(["w1", "--a", a, "--b", b]) == EXIT_OK
        assert abs(float(capsys.readouterr().out) - 5.0 * np.sqrt(2.0)) \
            <= 1e-5

    def test_w1_between_grids_of_different_sizes(self, tmp_path, capsys):
        # 16^2 nodes keep block size 1, 20^2 take block size 2 at the
        # default 320 points: each side is coarsened on its own grid
        fine = default_grid(n1=20, n2=20)
        coarse = default_grid(n1=16, n2=16)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        dio.write_fields([a], coarse, [truncated_gaussian(coarse).values])
        dio.write_fields([b], fine, [truncated_gaussian(fine).values])
        assert main(["w1", "--a", a, "--b", b]) == EXIT_OK
        ref = wasserstein1_points(
            *GridDistance(coarse).coarsen(truncated_gaussian(coarse).values),
            *GridDistance(fine).coarsen(truncated_gaussian(fine).values))
        assert capsys.readouterr().out == "%.12g\n" % ref
        assert 0.0 < ref < 0.5

    @pytest.mark.parametrize("argv, message", [
        (["--reg", "0.1"], "--reg is read only with --sinkhorn"),
        (["--sinkhorn", "--reg", "0"], "sinkhorn regularization must be > 0")])
    def test_w1_reg_is_a_sinkhorn_argument(self, tmp_path, capsys, argv,
                                           message):
        a = str(tmp_path / "a.csv")
        grid = default_grid(n1=32, n2=32)
        dio.write_fields([a], grid, [truncated_gaussian(grid).values])
        assert main(["w1", "--a", a, "--b", a] + argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_solve_mfg_has_no_eps_flag(self, capsys):
        # a run's epsilon is its config's dynamics.epsilon
        with pytest.raises(SystemExit) as exc:
            main(["solve-mfg", "--config", ZERO_CFG, "--eps", "0"])
        assert exc.value.code == EXIT_CONFIG

    def test_w1_has_no_exact_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["w1", "--a", "a.csv", "--b", "b.csv", "--exact"])
        assert exc.value.code == EXIT_CONFIG
