"""Coupling functionals F(x, m) and G(x, m_T) with monotonicity metadata.

The built-in instances satisfy the standing structural constraints: bounded
with bounded derivatives uniformly over measures, Lipschitz in the measure
(d1 topology), and monotonically increasing in m when flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .errors import ConfigurationError
from .grid import DensityField, DensityPath, ScalarField


@dataclass(frozen=True)
class CouplingSpec:
    """F, G take (x1 grid, x2 grid, density) and return an array.

    F receives a validated DensityPath, G the terminal DensityField; both
    read its ``grid`` and ``values``, so couplings work on any grid.
    """

    F: Callable
    G: Callable
    monotone: bool
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def running_cost(self, m_path: DensityPath) -> np.ndarray:
        """F on every slice of a density path, one fresh (nt, n1, n2) array
        the caller may overwrite. Every path the package builds is
        validated; an unvalidated one, from an outside caller, meets the
        density rule here, once over its stack."""
        if not m_path.validate_slices:
            m_path = DensityPath(m_path.grid, m_path.dt, m_path.values)
        return _evaluate(self.F, m_path)

    def terminal_cost(self, m_T: DensityField) -> ScalarField:
        return ScalarField(m_T.grid, _evaluate(self.G, m_T))


def _evaluate(cost: Callable, m) -> np.ndarray:
    """``cost`` of the density ``m`` as a fresh array of its shape (a
    broadcast or read-only result, m's own values say, is copied)."""
    out = np.asarray(cost(*m.grid.meshgrid(), m), dtype=float)
    if out.shape != m.values.shape or not out.flags.writeable:
        out = np.broadcast_to(out, m.values.shape).copy()
    return out


_SMOOTH_BLOCK = 8  # time slices per product in smooth_measure


def smooth_measure(m, delta: float) -> np.ndarray:
    """Gaussian-kernel smoothing (K_delta * m)(x) of a DensityField, or of
    every slice of a DensityPath, as one fresh array of its shape.

    The kernel separates, so each slice is the product K1 @ m @ K2^T of
    per-axis matrices: each is scipy's Gaussian filter applied to an
    identity, with its weights, truncation and zero boundary, and agrees
    with ``scipy.ndimage.gaussian_filter`` to roundoff. The products run
    over blocks of ``_SMOOTH_BLOCK`` slices through one block-sized
    buffer, so no second path-sized array exists, and every slice of a
    path equals the product of that slice alone, bit for bit.

    Nonnegative kernel, so the map m -> K_delta * m is monotone.
    """
    grid = m.grid
    k1 = gaussian_filter1d(np.eye(grid.n1), delta / grid.dx1, axis=0,
                           mode="constant")
    k2t = gaussian_filter1d(np.eye(grid.n2), delta / grid.dx2, axis=0,
                            mode="constant").T
    values = m.values.reshape((-1,) + grid.shape)  # a field is one slice
    out = np.empty(values.shape)
    tmp = np.empty((min(_SMOOTH_BLOCK, len(values)),) + grid.shape)
    for s in range(0, len(values), _SMOOTH_BLOCK):
        v = values[s:s + _SMOOTH_BLOCK]
        np.matmul(k1, v, out=tmp[:len(v)])
        np.matmul(tmp[:len(v)], k2t, out=out[s:s + _SMOOTH_BLOCK])
    return out.reshape(m.values.shape)


def _bowl(x1g, x2g, amp, width):
    """Smooth bounded well: 0 at origin, -> amp far away, gradients O(amp/width)."""
    return amp * (1.0 - np.exp(-(x1g ** 2 + x2g ** 2) / (2.0 * width ** 2)))


# the params of each built-in coupling, with their defaults
_PARAMS = {
    "nonlocal_smooth": dict(c1=0.5, c_terminal=0.5, delta=0.5, f_amp=0.2,
                            g_amp=1.0, width=1.5),
    "local_power": dict(c1=0.5, power=1.0, g_amp=1.0, width=1.5),
    "decoupled": dict(f_amp=0.0, g_amp=0.0, width=1.5),
}


def builtin_coupling(name: str, params: dict | None = None) -> CouplingSpec:
    """Named coupling instances: nonlocal_smooth, local_power, decoupled.

    ``params`` replace the defaults and obey the section rules: an unknown
    key, or a value that is not a number (true and false are not), is an
    error that names the coupling and the key.
    """
    if name not in _PARAMS:
        raise ConfigurationError("unknown coupling %r (known: %s)"
                                 % (name, ", ".join(_PARAMS)))
    p = dict(_PARAMS[name])
    problems = []
    for key, value in (params or {}).items():
        if key not in p:
            problems.append("%s: unknown param %r (known: %s)"
                            % (name, key, sorted(p)))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append("%s: param %r must be a number (got %r)"
                            % (name, key, value))
        else:
            p[key] = float(value)
    width = p["width"]

    def bowl(amp):
        return lambda x1g, x2g, m: _bowl(x1g, x2g, amp, width)

    if name == "nonlocal_smooth":
        delta = p["delta"]
        if delta <= 0:
            problems.append("kernel width delta must be > 0")
        if p["c1"] < 0 or p["c_terminal"] < 0:
            problems.append("monotone coupling requires c1 >= 0 and c_terminal >= 0")

        def smoothed(c, amp):
            def cost(x1g, x2g, m):
                out = smooth_measure(m, delta)  # c * (K * m) + bowl, in place
                out *= c
                out += _bowl(x1g, x2g, amp, width)
                return out
            return cost

        F = smoothed(p["c1"], p["f_amp"])
        G = smoothed(p["c_terminal"], p["g_amp"])
    elif name == "local_power":
        c1, power = p["c1"], p["power"]
        if c1 < 0:
            problems.append("local_power with c1 < 0 is not monotone")
        if power <= 0:
            problems.append("local_power requires power > 0")
        F, G = (lambda x1g, x2g, m: c1 * m.values ** power), bowl(p["g_amp"])
    else:
        F, G = bowl(p["f_amp"]), bowl(p["g_amp"])
    if problems:
        raise ConfigurationError(problems)
    return CouplingSpec(F=F, G=G, monotone=True, name=name, params=p)
