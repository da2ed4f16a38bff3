"""Couplings along a density path: F on every slice from one evaluation;
the Gaussian smoother against scipy's filter."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from degmfg.coupling import (_SMOOTH_BLOCK, CouplingSpec, builtin_coupling,
                             smooth_measure)
from degmfg.errors import ConfigurationError
from degmfg.grid import DensityField, DensityPath, Grid2D


def _densities(grid, nt, seed=3):
    """nt random unit-mass slices, a few entries slightly negative (within
    the density rule's -1e-12 tolerance, so that clipping shows)."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 1.0, size=(nt,) + grid.shape)
    v[:, 0, 0] = -1e-13
    v /= np.array([grid.integrate(s) for s in v])[:, None, None]
    return v


def _bowl(grid, amp, width):
    x1g, x2g = grid.meshgrid()
    return amp * (1.0 - np.exp(-(x1g ** 2 + x2g ** 2) / (2.0 * width ** 2)))


def _reference(name, p, grid, m):
    """F of one clipped slice m, written out per slice."""
    if name == "nonlocal_smooth":
        smooth = smooth_measure(DensityField(grid, m), p["delta"])
        return p["c1"] * smooth + _bowl(grid, p["f_amp"], p["width"])
    if name == "local_power":
        return p["c1"] * m ** p["power"]
    return _bowl(grid, p["f_amp"], p["width"])


@pytest.mark.parametrize("name, params", [
    ("nonlocal_smooth", {}), ("local_power", {"power": 1.5}),
    ("decoupled", {"f_amp": 0.3})])
@pytest.mark.parametrize("n1, n2", [(32, 32), (17, 9)])
@pytest.mark.parametrize("validated", [True, False])
def test_path_cost_equals_per_slice_filter(name, params, n1, n2, validated):
    grid = Grid2D(-3.0, 3.0, -2.0, 2.0, n1, n2)
    values = _densities(grid, _SMOOTH_BLOCK + 3)  # a full block and a rest
    coupling = builtin_coupling(name, params)
    f = coupling.running_cost(DensityPath(grid, 0.1, values,
                                          validate_slices=validated))
    assert f.shape == values.shape and f.flags.writeable
    for k in range(len(values)):
        ref = _reference(name, coupling.params, grid,
                         np.clip(values[k], 0.0, None))
        assert np.array_equal(f[k], ref), k


@pytest.mark.parametrize("n1, n2, delta", [
    (128, 128, 0.5), (17, 9, 0.5),
    (17, 9, 20.0),   # a kernel wider than the box
    (32, 32, 0.1)])
def test_smooth_measure_matches_gaussian_filter(n1, n2, delta):
    # the axis-factor products sum in another order than scipy's filter,
    # so they agree to roundoff, not bit for bit
    grid = Grid2D(-3.0, 3.0, -2.0, 2.0, n1, n2)
    values = np.clip(_densities(grid, 5), 0.0, None)
    sigma = (delta / grid.dx1, delta / grid.dx2)
    ref = gaussian_filter(values, sigma=(0.0,) + sigma, mode="constant")
    path = smooth_measure(DensityPath(grid, 0.1, values), delta)
    assert path.shape == values.shape
    assert np.abs(path - ref).max() <= 1e-14 * np.abs(ref).max()
    field = smooth_measure(DensityField(grid, values[2]), delta)
    ref2 = gaussian_filter(values[2], sigma=sigma, mode="constant")
    assert np.abs(field - ref2).max() <= 1e-14 * np.abs(ref2).max()


def test_F_sees_the_validated_path_once():
    grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
    seen = []

    def F(x1g, x2g, m):
        seen.append(m)
        return m.values

    coupling = CouplingSpec(F=F, G=F, monotone=True)
    path = DensityPath(grid, 0.1, _densities(grid, 4), validate_slices=False)
    f = coupling.running_cost(path)
    assert len(seen) == 1 and isinstance(seen[0], DensityPath)
    assert seen[0].values.min() == 0.0  # clipped by the density rule
    # a fresh array, not the read-only values F returned
    assert f.flags.writeable and not np.shares_memory(f, seen[0].values)
    assert np.array_equal(f, np.clip(path.values, 0.0, None))
    # G still receives the terminal slice as a field
    coupling.terminal_cost(path.slice(3))
    assert isinstance(seen[1], DensityField)


def test_first_bad_slice_reported():
    grid = Grid2D(-3.0, 3.0, -2.0, 2.0, 17, 9)
    values = _densities(grid, 5)
    values[3] *= 1.1  # mass 1.1
    values[2, 4, 4] = -1e-6
    path = DensityPath(grid, 0.1, values, validate_slices=False)
    with pytest.raises(ConfigurationError) as exc:
        builtin_coupling("nonlocal_smooth").running_cost(path)
    with pytest.raises(ConfigurationError) as per_slice:
        DensityField(grid, values[2])
    assert str(exc.value) == str(per_slice.value)
    assert "negativity -1e-06" in str(exc.value)
