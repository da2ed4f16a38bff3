"""The data model: path invariants, the density rule, density diagnostics,
the time-mesh rule."""

import os
from dataclasses import replace

import numpy as np
import pytest

from degmfg import grid as grid_module
from degmfg import io as dio
from degmfg import sde
from degmfg.config import load_config
from degmfg.dynamics import dynamics_preset
from degmfg.errors import ConfigurationError
from degmfg.fpe import solve_fpe_forward
from degmfg.grid import DensityField, DensityPath, Grid2D, ValuePath, \
    truncated_gaussian
from degmfg.hjb import HjbConfig, solve_hjb_backward
from references import const_coupling, uniform_density

GRID = Grid2D(-2.0, 2.0, -1.0, 1.0, 9, 7)
ZERO = const_coupling()
ZERO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "decoupled_zero.json")
NEGATIVE = "density has negativity -1e-09 below the -1e-12 tolerance"
HEAVY = "density mass 1.5 differs from 1 beyond 1e-8"


def _unit(grid=GRID):
    return uniform_density(grid).values


def _bad_slices():
    """(values, message): one slice breaks one rule."""
    neg = _unit().copy()
    neg[4, 3] = -1e-9
    return [(neg, NEGATIVE), (1.5 * _unit(), HEAVY)]


@pytest.mark.parametrize("cls", [ValuePath, DensityPath])
class TestPathInvariants:
    def test_shape(self, cls):
        with pytest.raises(ConfigurationError,
                           match=r"%s values must be \(nt, n1, n2\)"
                           % cls.__name__):
            cls(GRID, 0.1, _unit())

    def test_dt(self, cls):
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            cls(GRID, 0.0, np.stack([_unit()] * 3))

    def test_finite(self, cls):
        v = np.stack([_unit()] * 3)
        v[1, 2, 2] = np.nan
        with pytest.raises(ConfigurationError,
                           match="%s contains non-finite" % cls.__name__):
            cls(GRID, 0.1, v)

    def test_read_only_copy_and_time_mesh(self, cls):
        v = np.stack([_unit()] * 5)
        path = cls(GRID, 0.25, v)
        v[0, 0, 0] = 7.0
        assert path.values[0, 0, 0] != 7.0
        with pytest.raises(ValueError):
            path.values[0, 0, 0] = 1.0
        assert path.nt == 5 and path.horizon == 1.0
        np.testing.assert_array_equal(path.times(), [0, 0.25, 0.5, 0.75, 1])


class TestDensityRule:
    @pytest.mark.parametrize("k", range(2))
    def test_field_and_path_give_the_same_message(self, k):
        bad, message = _bad_slices()[k]
        with pytest.raises(ConfigurationError) as field_exc:
            DensityField(GRID, bad)
        with pytest.raises(ConfigurationError) as path_exc:
            DensityPath(GRID, 0.1, np.stack([_unit(), bad, _unit()]))
        assert field_exc.value.problems == path_exc.value.problems == [message]

    def test_first_bad_slice_is_reported(self):
        (neg, neg_msg), (heavy, heavy_msg) = _bad_slices()
        for stack, message in (([heavy, neg], heavy_msg),
                               ([neg, heavy], neg_msg)):
            with pytest.raises(ConfigurationError) as exc:
                DensityPath(GRID, 0.1, np.stack([_unit()] + stack))
            assert exc.value.problems == [message]

    def test_path_is_its_fields_clipped(self):
        # a negativity within the tolerance is clipped, slice by slice
        g = _unit().copy()
        g[0, 0] = 0.0
        g /= GRID.integrate(g)
        g[0, 0] = -5e-13
        v = np.stack([g, _unit(), g])
        path = DensityPath(GRID, 0.1, v)
        for k in range(3):
            np.testing.assert_array_equal(path.values[k],
                                          DensityField(GRID, v[k]).values)
        assert path.values.min() == 0.0

    def test_path_validation_builds_no_field(self, monkeypatch):
        def no_field(*args):
            raise AssertionError("DensityPath built a DensityField")

        v = np.stack([_unit()] * 4)
        monkeypatch.setattr(grid_module, "DensityField", no_field)
        DensityPath(GRID, 0.1, v)

    def test_unvalidated_path_keeps_its_values(self):
        (neg, _), (heavy, _) = _bad_slices()
        path = DensityPath(GRID, 0.1, np.stack([neg, heavy]),
                           validate_slices=False)
        np.testing.assert_array_equal(path.values, np.stack([neg, heavy]))


class TestDiagnostics:
    def test_mass_of_a_density_is_one(self):
        assert abs(GRID.integrate(truncated_gaussian(GRID).values) - 1) < 1e-12

    def test_boundary_mass_is_the_edge_layer(self):
        v = _unit()
        w = GRID.cell_weights() * v
        assert GRID.boundary_mass(v) == pytest.approx(
            w.sum() - w[1:-1, 1:-1].sum(), rel=1e-14)
        inner = np.zeros(GRID.shape)
        inner[1:-1, 1:-1] = 1.0
        assert GRID.boundary_mass(inner) == 0.0

    def test_second_moment_of_a_point_mass(self):
        v = np.zeros(GRID.shape)
        v[6, 4] = 1.0  # the node (1, 1/3)
        expected = GRID.cell_weights()[6, 4] * (1.0 + 1.0 / 9.0)
        assert GRID.second_moment(v) == pytest.approx(expected, rel=1e-14)


def _mesh_text(grid, nt, dt):
    return ("[%g, %g] x [%g, %g] at %dx%d nodes with nt=%d, dt=%r"
            % (grid.x1_min, grid.x1_max, grid.x2_min, grid.x2_max,
               grid.n1, grid.n2, nt, dt))


def _density_path(grid, nt, dt):
    return DensityPath(grid, dt, np.stack([_unit(grid)] * nt))


def _value_path(grid, nt, dt):
    return ValuePath(grid, dt, np.zeros((nt,) + grid.shape))


def _hjb(tmp_path, path_grid, nt, dt):
    solve_hjb_backward(dynamics_preset("zero", epsilon=0.0), ZERO,
                       _density_path(path_grid, nt, dt), HjbConfig(1.0, 5))


def _fpe(tmp_path, path_grid, nt, dt):
    solve_fpe_forward(uniform_density(GRID), _value_path(path_grid, nt, dt),
                      dynamics_preset("zero", epsilon=0.0), HjbConfig(1.0, 5))


def _mc_value(tmp_path, path_grid, nt, dt):
    sde.mc_value(dynamics_preset("zero", epsilon=0.0), ZERO,
                 _density_path(path_grid, nt, dt), _value_path(GRID, 5, 0.25),
                 (0.0, 0.0), 0.0, sde.EnsembleConfig(10, seed=0, dt_sde=0.25))


def _load_run(tmp_path, path_grid, nt, dt):
    # save_run applies the rule before it writes, with load_run's names
    run = str(tmp_path / "run")
    cfg = replace(load_config(ZERO_CONFIG), grid=GRID, time=HjbConfig(1.0, 5))
    dio.save_run(run, cfg, _value_path(GRID, 5, 0.25),
                 _density_path(path_grid, nt, dt), {})
    dio.load_run(run)


class TestMeshRule:
    """One rule decides whether a path lies on a (grid, nt, dt); each caller
    checks its path against the 9x7 grid with nt=5, dt=0.25. The HJB config
    holds no grid, and a run directory's config.json gives u and m one dt,
    so those two cases cannot arise."""

    OFF = {"grid": (Grid2D(-2.0, 2.0, -1.0, 1.0, 9, 8), 5, 0.25),
           "nt": (GRID, 4, 0.25),
           "dt": (GRID, 5, 0.5)}

    @pytest.mark.parametrize("caller, axis", [
        (_hjb, "nt"), (_hjb, "dt"),
        (_fpe, "grid"), (_fpe, "nt"), (_fpe, "dt"),
        (_mc_value, "grid"), (_mc_value, "nt"), (_mc_value, "dt"),
        (_load_run, "grid"), (_load_run, "nt")])
    def test_mismatch_names_the_path_and_both_meshes(self, tmp_path, caller,
                                                     axis):
        path_grid, nt, dt = self.OFF[axis]
        with pytest.raises(ConfigurationError) as exc:
            caller(tmp_path, path_grid, nt, dt)
        name = {_hjb: "m_path", _fpe: "u_path", _mc_value: "m_path",
                _load_run: os.path.join(str(tmp_path / "run"), "m")}[caller]
        assert exc.value.problems == ["%s lies on %s, not on %s" % (
            name, _mesh_text(path_grid, nt, dt), _mesh_text(GRID, 5, 0.25))]

    def test_tolerance_is_relative_to_max_dt_one(self):
        path = _value_path(GRID, 5, 0.25)
        grid_module.require_mesh("u", path, GRID, 5, 0.25 + 0.9e-12)
        with pytest.raises(ConfigurationError):
            grid_module.require_mesh("u", path, GRID, 5, 0.25 + 1.1e-12)
        long = _value_path(GRID, 5, 4.0)
        grid_module.require_mesh("u", long, GRID, 5, 4.0 + 3.9e-12)
        with pytest.raises(ConfigurationError):
            grid_module.require_mesh("u", long, GRID, 5, 4.0 + 4.1e-12)
