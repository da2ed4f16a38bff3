"""Tests for config parsing/validation and run-directory serialization."""

import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from degmfg.config import CouplingSection, RunConfig, parse_config, \
    serialize_config
from degmfg.errors import ConfigurationError
from degmfg.fixed_point import FixedPointConfig
from degmfg.grid import Grid2D, ValuePath
from degmfg.hjb import HjbConfig
from degmfg import io as dio
from degmfg.sde import EnsembleConfig
from references import constant_path, default_grid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestParseConfig:
    def test_shipped_configs_parse_and_validate(self):
        for name in sorted(os.listdir(CONFIG_DIR)):
            cfg = parse_config(_shipped(name))
            # the factories must all construct without error
            cfg.make_grid()
            cfg.make_dynamics()
            cfg.make_coupling()
            cfg.make_hjb_config()
            cfg.make_fixed_point()
            cfg.make_ensemble()
            cfg.make_initial_density()

    def test_round_trip_identity(self):
        cfg = parse_config(_shipped("grushin_default.json"))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_small_grid_names_invariant(self):
        text = json.dumps({"grid": {"n1": 2}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        assert any("n1 >= 4" in p for p in exc.value.problems)

    def test_increasing_eps_schedule_names_rule(self):
        text = json.dumps({"fixed_point": {"eps_schedule": [0.05, 0.1]}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        assert any("strictly decreasing" in p for p in exc.value.problems)

    def test_unknown_keys_are_errors(self):
        text = json.dumps({"grid": {"n1": 16, "bogus": 1}, "extra": {}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        joined = "; ".join(exc.value.problems)
        assert "bogus" in joined and "extra" in joined

    def test_all_errors_reported_at_once(self):
        text = json.dumps({"grid": {"n1": 2, "n2": 3},
                           "time": {"T": -1.0},
                           "dynamics": {"preset": "nope"}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        assert len(exc.value.problems) >= 4

    def test_solver_object_rules_reported_together(self):
        # the coupling and the ensemble own these rules; parsing reports both
        text = json.dumps({"coupling": {"name": "nonlocal_smooth",
                                        "params": {"delta": 0}},
                           "mc": {"n_particles": 0}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        problems = exc.value.problems
        assert any(p.startswith("coupling:") and "delta" in p for p in problems)
        assert any(p.startswith("mc:") and "n_particles" in p
                   for p in problems)

    @pytest.mark.parametrize("name, key", [
        ("nonlocal_smooth", "c1"), ("local_power", "power"),
        ("decoupled", "g_amp")])
    def test_coupling_params_obey_the_section_rules(self, name, key):
        # as in a section, an unknown key and a value that is not a number
        # are errors, each naming the coupling and the key
        text = json.dumps({"coupling": {"name": name, "params": {
            key: True, "typo_key": 3, "width": "1.5"}}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        known = sorted(RunConfig(coupling=CouplingSection(name))
                       .make_coupling().params)
        assert exc.value.problems == [
            "coupling: %s: param %r must be a number (got True)" % (name, key),
            "coupling: %s: unknown param 'typo_key' (known: %s)"
            % (name, known),
            "coupling: %s: param 'width' must be a number (got '1.5')" % name]

    @pytest.mark.parametrize("mc", [{"dt_sde": "abc"},
                                    {"n_particles": 0, "dt_sde": 0.5}])
    def test_invalid_section_skips_rules_that_read_it(self, mc):
        # the dt_sde rule spans time and mc; it reads only sections that built
        with pytest.raises(ConfigurationError) as exc:
            parse_config(json.dumps({"mc": mc}))
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith("mc: ")

    def test_removed_store_every_key_rejected(self):
        # run directories written while mc.store_every existed carry it
        with pytest.raises(ConfigurationError) as exc:
            parse_config(json.dumps({"mc": {"store_every": 1}}))
        assert exc.value.problems == [
            "unknown key 'store_every' in section 'mc' "
            "(known: ['dt_sde', 'n_particles', 'seed'])"]

    @pytest.mark.parametrize("section, solver_class", [
        ("grid", Grid2D), ("time", HjbConfig),
        ("fixed_point", FixedPointConfig), ("mc", EnsembleConfig)])
    def test_sections_are_the_solver_objects(self, section, solver_class):
        cfg = parse_config("{}")
        built = getattr(cfg, section)
        assert type(built) is solver_class
        assert built == getattr(RunConfig(), section)

    @pytest.mark.parametrize("section, raw, problem", [
        ("grid", {"n1": 2}, "grid: n1 >= 4 violated (got 2)"),
        ("time", {"T": 0.0}, "time: time horizon T must be > 0"),
        ("fixed_point", {"theta": 0.0},
         "fixed_point: damping theta must lie in (0, 1]"),
        ("mc", {"n_particles": 0}, "mc: n_particles must be >= 1"),
        ("fixed_point", {"lp_check_points": -1},
         "fixed_point: lp_check_points must be >= 1"),
        ("fixed_point", {"lp_check_points": 0},
         "fixed_point: lp_check_points must be >= 1"),
        ("mc", {"seed": -1}, "mc: seed must be >= 0"),
        # a number field takes a JSON number of its default's type
        ("time", {"nt": 33.0}, "time: nt must be an integer (got 33.0)"),
        ("grid", {"n1": 32.0}, "grid: n1 must be an integer (got 32.0)"),
        ("fixed_point", {"max_outer_iters": 2.5},
         "fixed_point: max_outer_iters must be an integer (got 2.5)"),
        ("fixed_point", {"n_check_slices": 3.5},
         "fixed_point: n_check_slices must be an integer (got 3.5)"),
        ("mc", {"n_particles": 100.0},
         "mc: n_particles must be an integer (got 100.0)"),
        ("mc", {"n_particles": True},
         "mc: n_particles must be an integer (got True)"),
        ("mc", {"seed": 1.5}, "mc: seed must be an integer (got 1.5)"),
        ("mc", {"dt_sde": "abc"}, "mc: dt_sde must be a number (got 'abc')"),
        ("time", {"T": False}, "time: T must be a number (got False)"),
        ("mc", {"seed": 2 ** 44},
         "mc: seed must be < 2**44 (got 17592186044416)")])
    def test_section_checks_itself(self, section, raw, problem):
        # the section's own rule, prefixed by the section name
        with pytest.raises(ConfigurationError) as exc:
            parse_config(json.dumps({section: raw}))
        assert exc.value.problems == [problem]

    def test_float_field_takes_an_int(self):
        cfg = parse_config(json.dumps({"time": {"T": 2, "nt": 65}}))
        assert cfg.time == HjbConfig(T=2.0, nt=65)

    def test_section_keys_replace_the_defaults(self):
        cfg = parse_config(json.dumps({"mc": {"seed": 7},
                                       "grid": {"n2": 16}}))
        assert cfg.mc == replace(RunConfig().mc, seed=7)
        assert cfg.mc.dt_sde == 0.015625
        assert cfg.grid == Grid2D(-5.0, 5.0, -5.0, 5.0, 32, 16)

    def test_one_problem_does_not_hide_another(self):
        text = json.dumps({"grid": {"n1": 2},
                           "initial_density": {"variance": -1.0},
                           "dynamics": {"preset": "nope", "epsilon": -1.0},
                           "coupling": {"name": "local_power",
                                        "params": {"c1": -1.0, "power": 0}}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        sections = [p.split(":")[0] for p in exc.value.problems]
        assert sorted(sections) == ["coupling", "coupling", "dynamics",
                                    "dynamics", "grid", "initial_density"]

    def test_wrong_type_is_a_config_problem(self):
        text = json.dumps({"coupling": {"params": [1, 2]}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        assert any(p.startswith("coupling:") for p in exc.value.problems)

    def test_two_time_slices_rejected(self):
        # HjbConfig accepts nt = 2; a run needs three slices
        with pytest.raises(ConfigurationError) as exc:
            parse_config(json.dumps({"time": {"nt": 2}}))
        assert any("nt must be >= 3" in p for p in exc.value.problems)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("not json {")

    def test_coarse_dt_sde_rejected(self):
        text = json.dumps({"time": {"T": 1.0, "nt": 11},
                           "mc": {"dt_sde": 0.5}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        # the rule of EnsembleConfig.check_step, prefixed by its section
        assert exc.value.problems == [
            "mc: dt_sde=0.5 exceeds the value-path mesh dt=0.1: the "
            "feedback control would be stale"]

    def test_largest_seed_accepted(self):
        assert parse_config(json.dumps(
            {"mc": {"seed": 2 ** 44 - 1}})).mc.seed == 2 ** 44 - 1


class TestFieldCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = default_grid(n1=9, n2=7)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.shape)
        path = tmp_path / "f.csv"
        dio.write_fields([path], grid, [values])
        g2, v2 = dio.read_field_csv(path)
        assert g2 == grid
        assert np.array_equal(v2, values)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            dio.read_field_csv(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("x1,x2,value\n0,0,1\n0,1,2\n1,0,3\n")
        with pytest.raises(ConfigurationError):
            dio.read_field_csv(path)

    def test_duplicated_node_rejected(self, tmp_path):
        # sixteen rows on a 4x4 grid, but (0, 1) is missing and (0, 0) twice
        rows = ["%d,%d,%d" % (i, j, 4 * i + j)
                for i in range(4) for j in range(4)]
        rows[1] = "0,0,1"
        path = tmp_path / "dup.csv"
        path.write_text("x1,x2,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ConfigurationError, match="full grid"):
            dio.read_field_csv(path)

    def test_two_field_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,x2,value\n0,0,1\n0,1\n1,0,3\n1,1,4\n")
        with pytest.raises(ConfigurationError, match="line 3: expected 3"):
            dio.read_field_csv(path)

    def test_rows_that_only_add_up_rejected(self, tmp_path):
        # six fields on two lines, but split two and four
        path = tmp_path / "shifted.csv"
        path.write_text("x1,x2,value\n0,0\n1,0,1,3\n")
        with pytest.raises(ConfigurationError, match="line 2: expected 3"):
            dio.read_field_csv(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("x1,x2,value\n0,0,1\n0,1,abc\n1,0,3\n1,1,4\n")
        with pytest.raises(ConfigurationError, match="line 3: 'abc'"):
            dio.read_field_csv(path)

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"x1,x2,value\n\xff\xfe\x00\n")
        with pytest.raises(ConfigurationError, match="not a text file"):
            dio.read_field_csv(path)

    def test_lf_line_ends_read_like_crlf(self, tmp_path):
        grid = default_grid(n1=9, n2=7)
        values = np.random.default_rng(1).standard_normal(grid.shape)
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        dio.write_fields([crlf], grid, [values])
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert b"\r" not in lf.read_bytes()
        g2, v2 = dio.read_field_csv(lf)
        assert g2 == grid
        assert np.array_equal(v2, values)


class TestFieldCsvBytes:
    """The byte format of field CSVs: csv.writer rows of %.17g numbers."""

    GRID = Grid2D(-1.5, 2.5, 0.25, 1.75, 9, 7)  # dx1 = 0.5, dx2 = 0.25

    def _values(self, seed=0):
        values = np.random.default_rng(seed).standard_normal(self.GRID.shape)
        values.flat[:5] = [-0.0, 5e-324, 1e-300, -1e300, 1.0 / 3.0]
        return values

    def _reference(self, path, values):
        # the writer this format was first defined by
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "value"])
            for i in range(self.GRID.n1):
                for j in range(self.GRID.n2):
                    writer.writerow(["%.17g" % self.GRID.x1[i],
                                     "%.17g" % self.GRID.x2[j],
                                     "%.17g" % values[i, j]])

    def test_write_matches_csv_writer(self, tmp_path):
        values = self._values()
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        self._reference(ref, values)
        dio.write_fields([out], self.GRID, [values])
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_bytes().startswith(b"x1,x2,value\r\n-1.5,0.25,-0\r\n")

    def test_path_writer_matches_slice_writer(self, tmp_path):
        values = np.stack([self._values(seed) for seed in range(3)])
        dio._write_path(tmp_path / "path", self.GRID, values)
        for k in range(3):
            one = tmp_path / ("one_%d.csv" % k)
            dio.write_fields([one], self.GRID, [values[k]])
            written = tmp_path / "path" / ("slice_%04d.csv" % k)
            assert written.read_bytes() == one.read_bytes()

    def test_special_values_read_back_bit_equal(self, tmp_path):
        values = self._values()
        path = tmp_path / "f.csv"
        self._reference(path, values)
        grid, back = dio.read_field_csv(path)
        assert grid == self.GRID
        assert np.array_equal(back.view(np.int64), values.view(np.int64))
        assert np.signbit(back.flat[0]) and back.flat[1] == 5e-324


class TestRunDirectory:
    def test_save_and_load_run(self, tmp_path):
        cfg = parse_config(_shipped("decoupled_zero.json"))
        grid = cfg.make_grid()
        hjb = cfg.make_hjb_config()
        m0 = cfg.make_initial_density()
        u = ValuePath(grid, hjb.dt, np.zeros((hjb.nt,) + grid.shape))
        m = constant_path(m0, hjb.dt, hjb.nt)
        run_dir = tmp_path / "run"
        dio.save_run(run_dir, cfg, u, m, {"note": 1})
        u2, m2, dyn, coupling = dio.load_run(run_dir)
        assert np.array_equal(u2.values, u.values)
        assert np.array_equal(m2.values, m.values)
        assert u2.dt == u.dt
        assert dyn.name == cfg.dynamics.preset
        assert coupling.name == cfg.coupling.name

    @pytest.mark.parametrize("field", ["u", "m"])
    def test_off_mesh_path_is_refused_before_any_field_is_written(
            self, tmp_path, field):
        # path.npy holds no coordinates: config.json is its mesh
        cfg = parse_config(_shipped("decoupled_zero.json"))
        grid, hjb = cfg.make_grid(), cfg.make_hjb_config()
        u_nt, m_nt = (hjb.nt - 1, hjb.nt) if field == "u" \
            else (hjb.nt, hjb.nt - 1)
        u = ValuePath(grid, hjb.dt, np.zeros((u_nt,) + grid.shape))
        m = constant_path(cfg.make_initial_density(), hjb.dt, m_nt)
        run_dir = tmp_path / "run"
        with pytest.raises(ConfigurationError) as exc:
            dio.save_run(run_dir, cfg, u, m, {})
        assert exc.value.problems[0].startswith(
            "%s lies on " % os.path.join(run_dir, field))
        for sub in ("u", "m"):
            assert not os.path.exists(run_dir / sub)

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            dio.load_run(tmp_path)
