"""The data model: path invariants, the density rule, density diagnostics."""

import numpy as np
import pytest

from degmfg import grid as grid_module
from degmfg.errors import ConfigurationError
from degmfg.grid import DensityField, DensityPath, Grid2D, ValuePath, \
    truncated_gaussian, uniform_density

GRID = Grid2D(-2.0, 2.0, -1.0, 1.0, 9, 7)
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
