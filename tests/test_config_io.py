"""Tests for config parsing/validation and run-directory serialization."""

import json
import os

import numpy as np
import pytest

from degmfg.config import RunConfig, load_config, parse_config, \
    serialize_config
from degmfg.errors import ConfigurationError
from degmfg.grid import DensityPath, Grid2D, ValuePath, default_grid, \
    truncated_gaussian
from degmfg import io as dio

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
                           "mc": {"store_every": 0}})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        problems = exc.value.problems
        assert any(p.startswith("coupling:") and "delta" in p for p in problems)
        assert any(p.startswith("mc:") and "store_every" in p
                   for p in problems)

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
        assert any("dt_sde" in p for p in exc.value.problems)


class TestFieldCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = default_grid(n1=9, n2=7)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.shape)
        path = tmp_path / "f.csv"
        dio.write_field_csv(path, grid, values)
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


class TestRunDirectory:
    def test_save_and_load_run(self, tmp_path):
        cfg = parse_config(_shipped("decoupled_zero.json"))
        grid = cfg.make_grid()
        hjb = cfg.make_hjb_config()
        m0 = cfg.make_initial_density()
        u = ValuePath(grid, hjb.dt, np.zeros((hjb.nt,) + grid.shape))
        m = DensityPath(grid, hjb.dt,
                        np.repeat(m0.values[None], hjb.nt, axis=0))
        run_dir = tmp_path / "run"
        dio.save_run(run_dir, cfg, u, m, {"note": 1})
        u2, m2, dyn, coupling = dio.load_run(run_dir)
        assert np.array_equal(u2.values, u.values)
        assert np.array_equal(m2.values, m.values)
        assert u2.dt == u.dt
        assert dyn.name == cfg.dynamics.preset
        assert coupling.name == cfg.coupling.name

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            dio.load_run(tmp_path)
